// Shared plumbing of the tgsim benchmark: options, the operation ledger,
// outside-call spans, the metric sheet and small timing helpers.
//
// Everything here lives on the benchmark side of the library boundary; the
// simulator is driven only through its public headers.
#pragma once

#include <chrono>
#include <cstddef>
#include <string>
#include <vector>

#include "sim/types.hpp"

namespace tgbench {

using tgsim::Cycle;
using tgsim::u32;
using tgsim::u64;

enum class Size { Full, Tiny };

struct Options {
    std::string workload;
    u64 seed = 1;
    double seconds = 10.0;
    bool trace = false;
    Size size = Size::Full;
    /// Self-test hook: offsets every verified reference cycle count by one,
    /// so each later comparison against it must count as a failed operation.
    bool inject_mismatch = false;
};

[[nodiscard]] inline double now_s() {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/// Median of a sample (mean of the middle two for even sizes); 0 if empty.
[[nodiscard]] double median(std::vector<double> v);
/// Mean of a sample; 0 if empty.
[[nodiscard]] double mean(const std::vector<double>& v);

/// Counts operations and the ones that failed a correctness check.
class Ledger {
public:
    /// Records one operation; a false `ok` counts it as failed and prints
    /// `what` (only the first few, so a systematic failure stays readable).
    void check(bool ok, const std::string& what);

    [[nodiscard]] u64 attempted() const noexcept { return attempted_; }
    [[nodiscard]] u64 failed() const noexcept { return failed_; }

private:
    u64 attempted_ = 0;
    u64 failed_ = 0;
};

/// Outside-call spans: each one brackets a call into a layer's public
/// function, by name. Spans are kept in memory and summed per name when
/// the run reports.
class Spans {
public:
    /// Opens a span named after a layer operation; returns its handle.
    std::size_t begin(std::string name);
    /// Closes the span opened by begin().
    void end(std::size_t id);

    /// Total duration (seconds) of the spans with this name.
    [[nodiscard]] double total(const std::string& name) const;

private:
    struct Span {
        std::string name;
        double start = 0.0;
        double stop = 0.0;
    };

    std::vector<Span> spans_;
};

/// One reported number with its unit.
struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

using Sheet = std::vector<Metric>;

/// A timed activity of the benchmark (replay, mesh or campaign). main.cpp
/// runs each one in a process of its own, sets it up, verifies it against
/// its reference, runs timed passes and asks for its metrics.
class Activity {
public:
    Activity() = default;
    Activity(const Activity&) = delete;
    Activity& operator=(const Activity&) = delete;
    virtual ~Activity() = default;

    /// Builds the activity's inputs; returns the time of one set-up in
    /// seconds. main.cpp calls it several times, spread over the run, and
    /// reports the median. Later calls rebuild the same inputs.
    virtual double setup() = 0;
    /// Runs the reference configuration that later passes are checked
    /// against. Not timed.
    virtual void verify(Ledger& ledger) = 0;
    /// One timed pass; checks its outputs into `ledger` (outside the timed
    /// region) and returns the pass time in seconds. With `spans`, the pass
    /// is traced: layer calls are bracketed and per-layer counters kept.
    virtual double pass(Ledger& ledger, Spans* spans) = 0;
    /// End-to-end metric(s) from the untraced pass times: total work over
    /// total time, i.e. the mean pass. Under host interference pass times
    /// split into fast and slow stretches; a median jumps between the two
    /// as their mix shifts, the mean follows the mix smoothly.
    virtual void end_to_end(const std::vector<double>& pass_seconds,
                            Sheet& out) const = 0;
    /// Per-layer metrics from the traced passes.
    virtual void per_layer(const Spans& spans, Sheet& out) const = 0;
};

} // namespace tgbench
