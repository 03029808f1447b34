#include "common/math_util.h"

#include <algorithm>
#include <limits>

namespace vqe {

double Mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double SampleStdDev(const std::vector<double>& xs) {
  if (xs.size() < 2) return 0.0;
  const double mu = Mean(xs);
  double ss = 0.0;
  for (double x : xs) ss += (x - mu) * (x - mu);
  return std::sqrt(ss / static_cast<double>(xs.size() - 1));
}

double Min(const std::vector<double>& xs) {
  if (xs.empty()) return std::numeric_limits<double>::infinity();
  return *std::min_element(xs.begin(), xs.end());
}

double Max(const std::vector<double>& xs) {
  if (xs.empty()) return -std::numeric_limits<double>::infinity();
  return *std::max_element(xs.begin(), xs.end());
}

double SamplePercentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  if (q <= 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Nearest-rank: ceil(q * n), 1-based, clamped into the sample range.
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  if (rank == 0) rank = 1;
  if (rank > samples.size()) rank = samples.size();
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

SampleSummary Summarize(const std::vector<double>& xs) {
  SampleSummary s;
  s.count = xs.size();
  if (xs.empty()) return s;
  s.mean = Mean(xs);
  s.stddev = SampleStdDev(xs);
  s.min = Min(xs);
  s.max = Max(xs);
  return s;
}

Result<LinearFit> FitLine(const std::vector<double>& xs,
                          const std::vector<double>& ys) {
  if (xs.size() != ys.size()) {
    return Status::InvalidArgument("FitLine: xs and ys differ in length");
  }
  const size_t n = xs.size();
  if (n < 2) {
    return Status::InvalidArgument("FitLine: need at least two points");
  }
  const double mx = Mean(xs);
  const double my = Mean(ys);
  double sxx = 0.0;
  double sxy = 0.0;
  double syy = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double dx = xs[i] - mx;
    const double dy = ys[i] - my;
    sxx += dx * dx;
    sxy += dx * dy;
    syy += dy * dy;
  }
  if (sxx == 0.0) {
    return Status::InvalidArgument("FitLine: all x values are identical");
  }
  LinearFit fit;
  fit.slope = sxy / sxx;
  fit.intercept = my - fit.slope * mx;
  fit.r_squared = syy == 0.0 ? 1.0 : (sxy * sxy) / (sxx * syy);
  return fit;
}

}  // namespace vqe
