// tgbench — the tgsim benchmark (see tgbench/NOTES.md).
//
//   tgbench --workload replay|mesh_a2a|campaign --seed N --seconds S
//           --trace 0|1 [--size full|tiny] [--inject-mismatch]
//
// Every run sets up, verifies and times all three activities (replay, mesh,
// campaign), each in a process of its own that works only when this one
// tells it to. The named workload's activity is measured for S seconds and
// its set-up repeated for a median; the other two get a shorter window
// spread over the same time, so every end-to-end metric is reported on
// every workload. peak_rss_mb is the named activity's process alone. With
// --trace 1 the passes are traced instead and the per-layer metrics are
// reported, plus the tracing overhead measured on the named workload.
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "activities.hpp"

namespace tgbench {
namespace {

/// Window of each activity the workload does not name, as a share of the
/// named activity's window (--seconds).
constexpr double kSideShare = 0.5;
/// Fewest timed passes any activity gets, whatever its window.
constexpr std::size_t kMinPasses = 3;

/// The workloads, each named after the activity it measures.
struct Workload {
    const char* name;
    /// Set-ups of the named activity per run; setup_s is their median.
    int setup_repeats;
    std::unique_ptr<Activity> (*make)(const Options&);
};

constexpr Workload kWorkloads[] = {
    {"replay", 5, make_replay},
    {"mesh_a2a", 15, make_mesh},
    {"campaign", 15, make_campaign},
};

const char* const kUsage =
    "usage: tgbench --workload replay|mesh_a2a|campaign --seed N --seconds S "
    "--trace 0|1 [--size full|tiny] [--inject-mismatch]\n";

bool parse_args(int argc, char** argv, Options& opt) {
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--inject-mismatch") {
            opt.inject_mismatch = true;
            continue;
        }
        if (i + 1 >= argc) return false;
        const std::string v = argv[++i];
        char* end = nullptr;
        if (a == "--workload") {
            opt.workload = v;
        } else if (a == "--seed") {
            opt.seed = std::strtoull(v.c_str(), &end, 10);
            if (*end != '\0') return false;
        } else if (a == "--seconds") {
            opt.seconds = std::strtod(v.c_str(), &end);
            if (*end != '\0' || !(opt.seconds > 0.0)) return false;
        } else if (a == "--trace") {
            if (v != "0" && v != "1") return false;
            opt.trace = v == "1";
        } else if (a == "--size") {
            if (v != "full" && v != "tiny") return false;
            opt.size = v == "tiny" ? Size::Tiny : Size::Full;
        } else {
            return false;
        }
    }
    return std::any_of(
        std::begin(kWorkloads), std::end(kWorkloads),
        [&](const Workload& w) { return opt.workload == w.name; });
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    for (unsigned leaf = 0; leaf < 3; ++leaf)
        if (__get_cpuid(0x80000002u + leaf, &regs[4 * leaf],
                        &regs[4 * leaf + 1], &regs[4 * leaf + 2],
                        &regs[4 * leaf + 3]) == 0)
            return "unknown";
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s = brand;
    s.erase(0, s.find_first_not_of(' '));
    return s;
#else
    return "unknown";
#endif
}

std::string compiler() {
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
}

/// Commands from the run to an activity's process, one byte each. Every
/// command but kReport is answered with one double (seconds).
enum Command : char {
    kSetup = 's',
    kVerify = 'v',
    kPass = 'p',
    kTracedPass = 't',
    kReport = 'r', ///< answered with the report text, then the process ends
};

void write_all(int fd, const void* data, std::size_t n) {
    const char* p = static_cast<const char*>(data);
    while (n > 0) {
        const ssize_t k = ::write(fd, p, n);
        if (k < 0 && errno == EINTR) continue;
        if (k <= 0) throw std::runtime_error("pipe write failed");
        p += k;
        n -= static_cast<std::size_t>(k);
    }
}

/// Reads exactly n bytes; false at end of file.
bool read_all(int fd, void* data, std::size_t n) {
    char* p = static_cast<char*>(data);
    while (n > 0) {
        const ssize_t k = ::read(fd, p, n);
        if (k < 0 && errno == EINTR) continue;
        if (k <= 0) return false;
        p += k;
        n -= static_cast<std::size_t>(k);
    }
    return true;
}

/// Report of one activity's process: its metrics as "m name value unit"
/// lines, its ledger and its peak resident set.
std::string report(Activity& a, const Ledger& ledger, const Spans& spans,
                   const std::vector<double>& plain,
                   const std::vector<double>& traced, bool named,
                   bool trace) {
    Sheet sheet;
    if (!trace) {
        a.end_to_end(plain, sheet);
    } else {
        a.per_layer(spans, sheet);
        if (named)
            sheet.push_back({"trace.overhead_pct",
                             100.0 * (mean(traced) / mean(plain) - 1.0),
                             "%"});
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    char line[256];
    std::string text;
    for (const Metric& m : sheet) {
        std::snprintf(line, sizeof line, "m %s %.17g %s\n", m.name.c_str(),
                      m.value, m.unit.c_str());
        text += line;
    }
    std::snprintf(line, sizeof line, "ops %llu %llu\nrss %.17g\n",
                  static_cast<unsigned long long>(ledger.attempted()),
                  static_cast<unsigned long long>(ledger.failed()),
                  static_cast<double>(ru.ru_maxrss) / 1024.0); // KiB -> MB
    return text + line;
}

/// Body of an activity's process: builds the activity, then serves the
/// run's commands until kReport or until the run closes the pipe.
[[noreturn]] void serve(const Workload& w, const Options& opt, bool named,
                        int in, int out) {
    int code = 0;
    try {
        const std::unique_ptr<Activity> a = w.make(opt);
        Ledger ledger;
        Spans spans;
        std::vector<double> plain, traced;
        for (char c = 0; read_all(in, &c, 1);) {
            double answer = 0.0;
            switch (c) {
            case kSetup: answer = a->setup(); break;
            case kVerify: a->verify(ledger); break;
            case kPass:
                plain.push_back(answer = a->pass(ledger, nullptr));
                break;
            case kTracedPass:
                traced.push_back(answer = a->pass(ledger, &spans));
                break;
            case kReport: {
                const std::string text = report(*a, ledger, spans, plain,
                                                traced, named, opt.trace);
                write_all(out, text.data(), text.size());
                std::_Exit(0);
            }
            default: throw std::runtime_error("unknown command");
            }
            write_all(out, &answer, sizeof answer);
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "tgbench %s: %s\n", w.name, e.what());
        code = 1;
    }
    std::_Exit(code);
}

/// The run's end of one activity's process.
class Peer {
public:
    Peer(const Workload& w, const Options& opt)
        : workload_(w.name), named_(opt.workload == w.name) {
        int down[2], up[2];
        if (::pipe(down) != 0 || ::pipe(up) != 0)
            throw std::runtime_error("pipe failed");
        std::fflush(nullptr);
        pid_ = ::fork();
        if (pid_ < 0) throw std::runtime_error("fork failed");
        if (pid_ == 0) {
            ::close(down[1]);
            ::close(up[0]);
            serve(w, opt, named_, down[0], up[1]);
        }
        ::close(down[0]);
        ::close(up[1]);
        to_ = down[1];
        from_ = up[0];
    }
    Peer(const Peer&) = delete;
    Peer& operator=(const Peer&) = delete;

    /// Kills the process if it has not reported (the run failed), and waits
    /// for it to end.
    ~Peer() {
        if (to_ >= 0) ::close(to_);
        if (from_ >= 0) ::close(from_);
        if (pid_ <= 0) return;
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, nullptr, 0);
    }

    [[nodiscard]] const char* workload() const noexcept { return workload_; }
    [[nodiscard]] bool named() const noexcept { return named_; }

    /// Sends one command and returns its answer.
    double call(Command c) {
        double answer = 0.0;
        write_all(to_, &c, 1);
        if (!read_all(from_, &answer, sizeof answer))
            throw std::runtime_error(std::string(workload_) +
                                     " activity ended early");
        return answer;
    }

    /// Asks for the report and waits for the process to end.
    std::string finish() {
        const Command c = kReport;
        write_all(to_, &c, 1);
        std::string text;
        char buf[4096];
        for (ssize_t k; (k = ::read(from_, buf, sizeof buf)) != 0;) {
            if (k < 0 && errno == EINTR) continue;
            if (k < 0) throw std::runtime_error("pipe read failed");
            text.append(buf, static_cast<std::size_t>(k));
        }
        int status = 0;
        ::waitpid(pid_, &status, 0);
        pid_ = -1;
        if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
            throw std::runtime_error(std::string(workload_) +
                                     " activity failed to report");
        return text;
    }

    // Pass bookkeeping of the run.
    std::vector<double> setups;
    std::size_t plain = 0;
    std::size_t traced = 0;
    double seconds = 0.0; ///< wall time spent in passes so far

private:
    const char* workload_;
    bool named_;
    pid_t pid_ = -1;
    int to_ = -1;
    int from_ = -1;
};

/// One pass of `p`, traced when the run is. The named activity of a traced
/// run alternates untraced and traced passes, so the tracing overhead
/// compares passes taken under the same conditions.
void step(Peer& p, bool trace) {
    const bool traced = trace && (!p.named() || p.plain > p.traced);
    p.seconds += p.call(traced ? kTracedPass : kPass);
    ++(traced ? p.traced : p.plain);
}

/// Adds one activity's report to the sheet and its ledger to the totals;
/// returns its peak resident set in MB.
double absorb(const std::string& text, Sheet& sheet, u64& attempted,
              u64& failed) {
    std::istringstream in(text);
    double rss = 0.0;
    for (std::string tag; in >> tag;) {
        if (tag == "m") {
            Metric m;
            in >> m.name >> m.value >> m.unit;
            sheet.push_back(m);
        } else if (tag == "ops") {
            u64 a = 0, f = 0;
            in >> a >> f;
            attempted += a;
            failed += f;
        } else if (tag == "rss") {
            in >> rss;
        }
    }
    if (!in.eof()) throw std::runtime_error("malformed activity report");
    return rss;
}

int run(const Options& opt) {
    std::printf("tgbench workload=%s seed=%llu seconds=%g trace=%d size=%s\n",
                opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
                opt.seconds, opt.trace ? 1 : 0,
                opt.size == Size::Tiny ? "tiny" : "full");
    std::printf("host nproc=%u compiler=\"%s\" cpu=\"%s\"\n",
                std::thread::hardware_concurrency(), compiler().c_str(),
                cpu_model().c_str());
    std::fflush(stdout);

    // Each activity runs in a process of its own, so its peak resident set
    // is its own; only one of them works at a time.
    std::signal(SIGPIPE, SIG_IGN);
    std::vector<std::unique_ptr<Peer>> peers;
    Peer* named = nullptr;
    int repeats = 1;
    for (const Workload& w : kWorkloads) {
        peers.push_back(std::make_unique<Peer>(w, opt));
        if (!peers.back()->named()) continue;
        named = peers.back().get();
        // The named activity's set-up repeats are spread over the run like
        // its passes: one before verification, the rest at even steps of
        // progress.
        if (!opt.trace) repeats = w.setup_repeats;
    }

    for (auto& p : peers) {
        p->setups.push_back(p->call(kSetup));
        p->call(kVerify);
    }

    // The named activity runs passes for --seconds, the other two for
    // kSideShare of that. Side passes keep pace with the named activity's
    // progress, so every figure samples the whole run, not one stretch of
    // it — the host's speed drifts over seconds.
    const auto behind = [&](const Peer& p, double progress) {
        const double window = (p.named() ? 1.0 : kSideShare) * opt.seconds;
        return p.seconds < progress * window ||
               (progress >= 1.0 && p.plain + p.traced < kMinPasses);
    };
    for (bool ran = true; ran;) {
        ran = false;
        const double progress = std::min(1.0, named->seconds / opt.seconds);
        if (static_cast<int>(named->setups.size()) <
            std::min(repeats, 1 + static_cast<int>(progress * repeats))) {
            named->setups.push_back(named->call(kSetup));
            ran = true;
        }
        for (auto& p : peers) {
            if (!behind(*p, p->named() ? 1.0 : progress)) continue;
            step(*p, opt.trace);
            ran = true;
        }
    }

    Sheet sheet;
    if (!opt.trace) sheet.push_back({"setup_s", median(named->setups), "s"});
    u64 attempted = 0, failed = 0;
    double rss = 0.0;
    for (auto& p : peers) {
        std::fprintf(stderr,
                     "%s: %zu untraced passes, %zu traced, %zu set-ups\n",
                     p->workload(), p->plain, p->traced, p->setups.size());
        const double r = absorb(p->finish(), sheet, attempted, failed);
        if (p->named()) rss = r;
    }
    if (!opt.trace) sheet.push_back({"peak_rss_mb", rss, "MB"});

    for (const Metric& m : sheet)
        std::printf("%-30s %18.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    const bool correct = failed == 0 && attempted > 0;
    std::printf("operations attempted=%llu failed=%llu\n",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < sheet.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", sheet[i].name.c_str(), sheet[i].value,
                    sheet[i].unit.c_str());
    std::printf("}}\n");
    return 0;
}

} // namespace
} // namespace tgbench

int main(int argc, char** argv) {
    tgbench::Options opt;
    if (!tgbench::parse_args(argc, argv, opt)) {
        std::fputs(tgbench::kUsage, stderr);
        return 2;
    }
    try {
        return tgbench::run(opt);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "tgbench: %s\n", e.what());
        return 1;
    }
}
