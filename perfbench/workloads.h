// The benchmark's workloads (README.md has why each exists).  A workload
// makes its inputs from the seed when constructed; measure() then runs
// rounds for about `budget_s` seconds and returns one Pass.  The traced
// run calls measure() twice, untraced then traced, on the same inputs.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "harness.h"

namespace perfbench {

class Workload {
 public:
  virtual ~Workload() = default;
  virtual Pass measure(double budget_s, Tracer& tracer) = 0;
  /// What the inputs are: a digest of each input (inputs.h) and the size
  /// of the ground truth the outputs are checked against.
  [[nodiscard]] const Json& inputs() const { return about_inputs_; }

 protected:
  Json about_inputs_;
};

[[nodiscard]] std::unique_ptr<Workload> make_fig10(std::uint64_t seed);
[[nodiscard]] std::unique_ptr<Workload> make_multi_pattern(
    std::uint64_t seed);
/// `work_dir` holds the run's store; the workload empties it as it goes.
[[nodiscard]] std::unique_ptr<Workload> make_serve_durable(
    std::uint64_t seed, const std::string& work_dir);

}  // namespace perfbench
