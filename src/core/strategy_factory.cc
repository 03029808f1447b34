#include "core/strategy_factory.h"

#include "core/baselines.h"
#include "core/ducb.h"
#include "core/mes.h"
#include "core/mes_b.h"

namespace vqe {

Result<std::unique_ptr<SelectionStrategy>> MakeStrategy(
    const std::string& name, const StrategyParams& params) {
  std::unique_ptr<SelectionStrategy> strategy;
  if (name == "MES" || name == "MES-A") {
    MesOptions o;
    o.gamma = params.gamma;
    o.subset_updates = name == "MES";
    strategy = std::make_unique<MesStrategy>(o);
  } else if (name == "MES-B") {
    MesBOptions o;
    o.gamma = params.gamma;
    strategy = std::make_unique<MesBStrategy>(o);
  } else if (name == "SW-MES") {
    SwMesOptions o;
    o.gamma = params.gamma;
    o.window = params.window;
    o.exploration_scale = params.sw_exploration_scale;
    strategy = std::make_unique<SwMesStrategy>(o);
  } else if (name == "D-MES") {
    DucbOptions o;
    o.gamma = params.gamma;
    strategy = std::make_unique<DucbMesStrategy>(o);
  } else if (name == "OPT") {
    strategy = std::make_unique<OptStrategy>();
  } else if (name == "BF") {
    strategy = std::make_unique<BruteForceStrategy>();
  } else if (name == "SGL") {
    strategy = std::make_unique<SingleBestStrategy>();
  } else if (name == "RAND") {
    strategy = std::make_unique<RandomStrategy>();
  } else if (name == "EF") {
    strategy = std::make_unique<ExploreFirstStrategy>(params.ef_explore);
  } else {
    return Status::NotFound("unknown strategy: " + name);
  }
  return strategy;
}

}  // namespace vqe
