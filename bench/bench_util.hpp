// Helpers shared by the experiment harnesses.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "apps/apps.hpp"
#include "platform/platform.hpp"
#include "tg/program.hpp"
#include "tg/translator.hpp"

namespace tgsim::bench {

inline constexpr Cycle kMaxCycles = 600'000'000;

/// A WxH ×pipes mesh with `fifo_depth`-flit router FIFOs, every other
/// field at its default.
inline ic::XpipesConfig mesh_cfg(u32 width, u32 height, u32 fifo_depth) {
    ic::XpipesConfig cfg;
    cfg.width = width;
    cfg.height = height;
    cfg.fifo_depth = fifo_depth;
    return cfg;
}

/// Machine-readable results: rows of named numeric metrics, written as
/// BENCH_<name>.json into the working directory on destruction, so the perf
/// trajectory (cycles/sec, wall seconds, gating speedup) is tracked across
/// PRs and CI runs alongside the human-readable stdout tables.
class JsonReport {
public:
    using Metrics = std::vector<std::pair<std::string, double>>;

    explicit JsonReport(std::string name) : name_(std::move(name)) {}
    JsonReport(const JsonReport&) = delete;
    JsonReport& operator=(const JsonReport&) = delete;
    ~JsonReport() { write(); }

    void add_row(std::string row, Metrics metrics) {
        rows_.emplace_back(std::move(row), std::move(metrics));
    }

    void write() const {
        const std::string path = "BENCH_" + name_ + ".json";
        std::FILE* f = std::fopen(path.c_str(), "w");
        if (f == nullptr) {
            std::fprintf(stderr, "WARN: cannot write %s\n", path.c_str());
            return;
        }
        std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"rows\": [",
                     escaped(name_).c_str());
        for (std::size_t i = 0; i < rows_.size(); ++i) {
            std::fprintf(f, "%s\n    {\"name\": \"%s\"", i ? "," : "",
                         escaped(rows_[i].first).c_str());
            for (const auto& [key, value] : rows_[i].second)
                std::fprintf(f, ", \"%s\": %.17g", escaped(key).c_str(), value);
            std::fprintf(f, "}");
        }
        std::fprintf(f, "\n  ]\n}\n");
        std::fclose(f);
        std::fprintf(stderr, "wrote %s (%zu rows)\n", path.c_str(), rows_.size());
    }

private:
    static std::string escaped(const std::string& s) {
        std::string out;
        out.reserve(s.size());
        for (const char c : s) {
            if (c == '"' || c == '\\') out.push_back('\\');
            out.push_back(c);
        }
        return out;
    }

    std::string name_;
    std::vector<std::pair<std::string, Metrics>> rows_;
};

/// Scale factor for workload sizes (TGSIM_SCALE env var, default 1).
inline u32 scale() {
    if (const char* s = std::getenv("TGSIM_SCALE")) {
        const long v = std::strtol(s, nullptr, 10);
        if (v >= 1 && v <= 64) return static_cast<u32>(v);
    }
    return 1;
}

struct TimedRun {
    platform::RunResult result;
    std::vector<tg::Trace> traces;
};

/// Reference run with CPU cores. Collects traces when `traced`.
inline TimedRun run_cpu(const apps::Workload& w, platform::PlatformConfig cfg,
                        bool traced) {
    cfg.collect_traces = traced;
    platform::Platform p{cfg};
    p.load_workload(w);
    TimedRun out;
    out.result = p.run(kMaxCycles);
    if (!out.result.completed) {
        std::fprintf(stderr, "FATAL: reference run did not complete (%s)\n",
                     w.name.c_str());
        std::exit(1);
    }
    std::string msg;
    if (!p.run_checks(w, &msg)) {
        std::fprintf(stderr, "FATAL: %s reference checks failed: %s\n",
                     w.name.c_str(), msg.c_str());
        std::exit(1);
    }
    if (traced) out.traces = p.traces();
    return out;
}

/// Translates all traces with the workload's poll knowledge.
inline std::vector<tg::TgProgram> translate_all(
    const std::vector<tg::Trace>& traces, const apps::Workload& w,
    tg::TgMode mode = tg::TgMode::Reactive) {
    tg::TranslateOptions opt;
    opt.mode = mode;
    opt.polls = w.polls;
    std::vector<tg::TgProgram> out;
    for (const auto& t : traces) out.push_back(tg::translate(t, opt).program);
    return out;
}

/// TG replay run.
inline platform::RunResult run_tg(const std::vector<tg::TgProgram>& programs,
                                  const apps::Workload& w,
                                  platform::PlatformConfig cfg) {
    cfg.collect_traces = false;
    platform::Platform p{cfg};
    p.load_tg_programs(programs, w);
    const auto res = p.run(kMaxCycles);
    if (!res.completed) {
        std::fprintf(stderr, "FATAL: TG run did not complete (%s)\n",
                     w.name.c_str());
        std::exit(1);
    }
    return res;
}

inline double err_pct(Cycle ref, Cycle got) {
    return 100.0 * (static_cast<double>(got) - static_cast<double>(ref)) /
           static_cast<double>(ref);
}

} // namespace tgsim::bench
