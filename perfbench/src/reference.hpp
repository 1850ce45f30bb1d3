// Reference gaps the output checks compare against.
//
// Each mean and standard deviation (sd) of one run's final gap was
// measured with this benchmark (264 to 394 runs per figure, over many
// master seeds) against the library as it stood when the benchmark was
// added.  The checks are statistical, not bit digests, so a later change
// to a sampling contract still passes as long as the process keeps its gap
// distribution.  One run's final gap may lie max(2, ceil(6 sd)) from the
// reference mean.  The mean over the k runs of one benchmark run may lie
// five standard errors of the difference, 5 s sqrt(1/k + 1/runs), from
// it, with s = max(sd, 1/2): gaps are whole numbers at these sizes, and a
// narrow lattice distribution's sd understates how far a mean of a few
// runs moves when one run lands a step off.  Five, not four: the gap
// distributions are skewed to the right, and one recorded set of 14
// paper_batch_shard runs lay four standard errors above its mean.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <map>
#include <stdexcept>
#include <string>

namespace perfbench {

struct gap_reference {
  double mean = 0.0;     ///< reference mean gap
  double sd = 0.0;       ///< standard deviation of one run's gap
  std::size_t runs = 0;  ///< runs the reference was measured over

  /// Allowed |gap - mean| for one run.
  [[nodiscard]] double single_tolerance() const { return std::max(2.0, std::ceil(6.0 * sd)); }
  /// Allowed |mean gap - mean| over `k` runs.
  [[nodiscard]] double mean_tolerance(std::size_t k) const {
    const double s = std::max(sd, 0.5);
    return 5.0 * s * std::sqrt(1.0 / static_cast<double>(k) + 1.0 / static_cast<double>(runs));
  }
};

/// b-Batch, b = n = 1e6, m = 1e8, kernel engine (paper_batch).
inline const gap_reference batch_kernel_gap{8.29, 0.64, 297};
/// The same process through the shard engine (paper_batch_shard).
inline const gap_reference batch_shard_gap{8.27, 0.67, 335};

/// steady_churn: final gap after warm-up to n and 10 cycles of n pairs,
/// per departure channel.
inline const std::map<std::string, gap_reference>& churn_gaps() {
  static const std::map<std::string, gap_reference> refs = {
      {"random", {7.58, 0.63, 264}},
      {"lease", {9.59, 0.73, 264}},
      {"drain", {9.55, 0.75, 264}},
  };
  return refs;
}

/// table_12_3: per campaign config label.
inline const gap_reference& table_gap(const std::string& label) {
  static const std::map<std::string, gap_reference> refs = {
      {"g-bounded/1@n=10000", {4.26, 0.44, 394}},
      {"g-bounded/2@n=10000", {6.07, 0.26, 394}},
      {"g-bounded/4@n=10000", {9.06, 0.43, 394}},
      {"g-bounded/8@n=10000", {14.62, 0.70, 394}},
      {"g-bounded/16@n=10000", {24.94, 0.95, 394}},
      {"g-myopic/1@n=10000", {3.90, 0.30, 394}},
      {"g-myopic/2@n=10000", {4.97, 0.27, 394}},
      {"g-myopic/4@n=10000", {6.99, 0.43, 394}},
      {"g-myopic/8@n=10000", {10.62, 0.60, 394}},
      {"g-myopic/16@n=10000", {17.07, 0.92, 394}},
      {"sigma-noisy-load/1@n=10000", {3.09, 0.29, 394}},
      {"sigma-noisy-load/2@n=10000", {4.24, 0.43, 394}},
      {"sigma-noisy-load/4@n=10000", {6.13, 0.42, 394}},
      {"sigma-noisy-load/8@n=10000", {9.20, 0.71, 394}},
      {"sigma-noisy-load/16@n=10000", {13.97, 0.90, 394}},
  };
  const auto it = refs.find(label);
  if (it == refs.end()) throw std::out_of_range("no reference gap for '" + label + "'");
  return it->second;
}

}  // namespace perfbench
