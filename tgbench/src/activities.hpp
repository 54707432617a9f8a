// The benchmark's three activities; each runs on every workload, and the
// workload named on the command line gets the full measurement window
// (docs in tgbench/NOTES.md).
#pragma once

#include <memory>

#include "common.hpp"

namespace tgbench {

/// The paper's trace -> translate -> replay flow on 8 cores (Table 2).
[[nodiscard]] std::unique_ptr<Activity> make_replay(const Options& opt);
/// A loaded 16x16 ×pipes mesh with 128 stochastic masters and 128 memories.
[[nodiscard]] std::unique_ptr<Activity> make_mesh(const Options& opt);
/// A funnel-tier design-space campaign in two shards, reports round-tripped.
[[nodiscard]] std::unique_ptr<Activity> make_campaign(const Options& opt);

} // namespace tgbench
