// The one name-to-strategy registry. Every caller that builds a selection
// strategy from a name — the query executor's USING clause, the workload
// engine's priority classes, the experiment line-up and the serving bench —
// goes through MakeStrategy, so a strategy's knobs are bound in one place.

#ifndef VQE_CORE_STRATEGY_FACTORY_H_
#define VQE_CORE_STRATEGY_FACTORY_H_

#include <cstddef>
#include <memory>
#include <string>

#include "common/status.h"
#include "core/strategy.h"

namespace vqe {

/// The knobs callers set when building a strategy by name; each applies
/// only to the strategies named beside it, every other knob keeps the
/// strategy's own default.
struct StrategyParams {
  /// γ: MES, MES-A, MES-B, SW-MES and D-MES.
  size_t gamma = 10;
  /// λ: SW-MES's sliding-window length in frames.
  size_t window = 400;
  /// SW-MES's exploration scale.
  double sw_exploration_scale = 1.0;
  /// EF's exploration length in frames per arm.
  size_t ef_explore = 2;
};

/// Builds OPT, BF, SGL, RAND, EF, MES, MES-A, MES-B, SW-MES or D-MES by its
/// canonical (upper-case) name; NotFound for any other name.
Result<std::unique_ptr<SelectionStrategy>> MakeStrategy(
    const std::string& name, const StrategyParams& params = {});

}  // namespace vqe

#endif  // VQE_CORE_STRATEGY_FACTORY_H_
