// Shared layer of the tgsim command-line tools (contract: docs/cli.md):
// the option table every tool reads its command line through, the shared
// option declarations and parsers, the benchmark table, and file I/O.
#pragma once

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "apps/apps.hpp"
#include "platform/platform.hpp"
#include "sweep/shard.hpp"
#include "sweep/sweep.hpp"
#include "tg/patterns.hpp"
#include "tg/source.hpp"
#include "tg/translator.hpp"

namespace tgsim::cli {

/// Prints the message to stderr and exits 1: the one way a usage error
/// ends a tool.
[[noreturn]] inline void die(const std::string& message) {
    std::fprintf(stderr, "%s\n", message.c_str());
    std::exit(1);
}

/// Strict unsigned parse (decimal, 0x hex or 0 octal): the whole string must
/// be consumed and in range, otherwise nullopt. Unlike bare strtoull this
/// rejects empty strings, signs, leading whitespace and trailing garbage —
/// "--jobs=abc" must be an error, not "one worker per hardware thread".
[[nodiscard]] inline std::optional<u64> parse_u64(const std::string& s) {
    if (s.empty() || !std::isdigit(static_cast<unsigned char>(s[0])))
        return std::nullopt;
    errno = 0;
    char* end = nullptr;
    const u64 v = std::strtoull(s.c_str(), &end, 0);
    if (end != s.c_str() + s.size() || errno == ERANGE) return std::nullopt;
    return v;
}

/// parse_u64 or exit(1) with a message naming the offending flag/field.
inline u64 parse_u64_or_die(const std::string& s, const std::string& what) {
    const auto v = parse_u64(s);
    if (!v) die(what + ": invalid number '" + s + "'");
    return *v;
}

/// Same, for 32-bit consumers: out-of-range values are a usage error, not a
/// silent truncation.
inline u32 parse_u32_or_die(const std::string& s, const std::string& what) {
    const u64 v = parse_u64_or_die(s, what);
    if (v > 0xFFFFFFFFull) die(what + ": value '" + s + "' out of 32-bit range");
    return static_cast<u32>(v);
}

/// Splits a comma-separated flag value ("2,4,8" -> {"2","4","8"}); empty
/// input yields no elements.
inline std::vector<std::string> split_list(const std::string& value,
                                           char sep = ',') {
    std::vector<std::string> out;
    std::istringstream ss{value};
    std::string tok;
    while (std::getline(ss, tok, sep)) {
        if (!tok.empty()) out.push_back(tok);
    }
    return out;
}

/// Maps a token through an explicit (token, value) table, or exits listing
/// every valid choice. `extra_choices` names accepted forms beyond the
/// table (e.g. the topology's "file:PATH", which carries a payload).
template <typename E>
[[nodiscard]] inline E enum_from(
    const std::string& what, const std::string& token,
    const std::vector<std::pair<std::string, E>>& table,
    const char* extra_choices = nullptr) {
    std::string valid;
    for (const auto& [name, value] : table) {
        if (token == name) return value;
        valid += (valid.empty() ? "" : ", ") + name;
    }
    if (extra_choices != nullptr) valid += std::string{", "} + extra_choices;
    die(what + ": unknown value '" + token + "' (valid: " + valid + ")");
}

// ---- the option table --------------------------------------------------
//
// Each tool declares every option ONCE — name, kind, help metavar, default
// and help line — and reads its command line only through the declaration:
//   - `--help` is rendered from the declarations, so help cannot drift
//     from what the tool accepts;
//   - unknown and repeated --flags are fatal (a typo like --jobz must not
//     silently run a default sweep for minutes);
//   - Number and Choice values are validated before any work starts;
//   - the typed getters take their default from the declaration, so help
//     and behaviour cannot disagree.
// A Choice's tokens are written once, in the (token, value) table that
// maps them to the enum. A default that depends on another input is
// declared empty; the tool computes it in one place and the help line
// names the rule.

class OptionSet {
public:
    enum class Kind : u8 { Flag, Number, Text, Choice };
    struct Option {
        std::string name; ///< without the leading "--"
        Kind kind = Kind::Text;
        std::string arg;  ///< help metavar, e.g. "N", "WxH", "PATH"
        std::string def;  ///< default; "" = none, or computed by the tool
        std::string help; ///< one-line description
        std::vector<std::pair<std::string, int>> choices = {};
        bool nonzero = false; ///< Number: 0 is a usage error
    };

    OptionSet(std::string tool, std::string summary)
        : tool_(std::move(tool)), summary_(std::move(summary)) {}

    OptionSet& add(Option option) {
        options_.push_back(std::move(option));
        return *this;
    }
    OptionSet& flag(const char* name, const char* help) {
        return add({name, Kind::Flag, "", "", help});
    }
    OptionSet& number(const char* name, const char* arg, const char* def,
                      const char* help, bool nonzero = false) {
        return add({name, Kind::Number, arg, def, help, {}, nonzero});
    }
    OptionSet& text(const char* name, const char* arg, const char* def,
                    const char* help) {
        return add({name, Kind::Text, arg, def, help});
    }
    template <typename E>
    OptionSet& choice(const char* name, const char* def, const char* help,
                      std::initializer_list<std::pair<const char*, E>> table) {
        Option o{name, Kind::Choice, "VALUE", def, help};
        for (const auto& [token, value] : table)
            o.choices.emplace_back(token, static_cast<int>(value));
        return add(std::move(o));
    }
    static constexpr std::size_t kUnbounded =
        std::numeric_limits<std::size_t>::max();
    /// Declares the positional arguments: between `min` and `max` of them,
    /// shown as `arg` in the help. Without a declaration a tool takes none.
    OptionSet& positional(const char* arg, std::size_t min,
                          std::size_t max = kUnbounded) {
        positional_ = {arg, min, max};
        return *this;
    }

    /// Parses "--key=value" / "--flag" arguments; the rest are positional.
    /// `--help` prints the help and exits 0; an unknown or repeated flag, an
    /// invalid Number or Choice value, or a wrong positional count exits 1.
    void parse(int argc, char** argv) {
        std::string repeated;
        for (int i = 1; i < argc; ++i) {
            const std::string a = argv[i];
            if (a.rfind("--", 0) != 0) {
                positionals_.push_back(a);
                continue;
            }
            const auto eq = a.find('=');
            const std::string name = a.substr(2, eq - 2);
            const std::string value =
                eq == std::string::npos ? "" : a.substr(eq + 1);
            if (!given_.emplace(name, value).second && repeated.empty())
                repeated = name;
        }
        if (has("help")) {
            print_help(stdout);
            std::exit(0);
        }
        if (!repeated.empty()) usage_error("option --" + repeated + " repeated");
        for (const auto& [name, value] : given_) {
            const Option* o = find(name);
            if (o == nullptr) usage_error("unknown option --" + name);
            if (o->kind == Kind::Number &&
                parse_u64_or_die(value, "--" + name) == 0 && o->nonzero)
                die("--" + name + ": must be nonzero");
            if (o->kind == Kind::Choice)
                (void)enum_from("--" + name, value, o->choices);
        }
        const auto& [arg, min, max] = positional_;
        if (positionals_.size() < min || positionals_.size() > max) {
            std::string count = std::to_string(min);
            if (max != min)
                count += max == kUnbounded ? " or more"
                                           : " to " + std::to_string(max);
            usage_error(max == 0 ? "takes no positional arguments"
                                 : "takes " + count + " " + arg +
                                       " argument(s)");
        }
    }

    /// Was the flag given on the command line?
    [[nodiscard]] bool has(const std::string& name) const {
        return given_.count(name) != 0;
    }
    /// The given value, else the declared default.
    [[nodiscard]] const std::string& get(const std::string& name) const {
        const auto it = given_.find(name);
        return it != given_.end() ? it->second : declared(name).def;
    }
    [[nodiscard]] u64 get_u64(const std::string& name) const {
        return parse_u64_or_die(get(name), "--" + name);
    }
    [[nodiscard]] u32 get_u32(const std::string& name) const {
        return parse_u32_or_die(get(name), "--" + name);
    }
    /// A Choice option's value, mapped through its declared table.
    template <typename E>
    [[nodiscard]] E get_choice(const std::string& name) const {
        return static_cast<E>(
            enum_from("--" + name, get(name), declared(name).choices));
    }
    [[nodiscard]] const std::vector<std::string>& positionals() const {
        return positionals_;
    }
    [[nodiscard]] const std::string& tool() const { return tool_; }
    [[nodiscard]] const Option* find(const std::string& name) const {
        for (const Option& o : options_)
            if (o.name == name) return &o;
        return nullptr;
    }

    void print_help(std::FILE* out) const {
        const auto& [arg, min, max] = positional_;
        std::fprintf(out, "usage: %s [options]%s%s%s\n%s\n\noptions:\n",
                     tool_.c_str(), max > 0 ? " " : "", arg.c_str(),
                     max > 1 ? "..." : "", summary_.c_str());
        for (const Option& o : options_) {
            std::string head = "  --" + o.name;
            if (o.kind != Kind::Flag) head += "=" + o.arg;
            std::string tail = o.help;
            for (std::size_t i = 0; i < o.choices.size(); ++i)
                tail += (i == 0 ? " (" : "|") + o.choices[i].first;
            if (!o.choices.empty()) tail += ")";
            if (!o.def.empty()) tail += " [default " + o.def + "]";
            std::fprintf(out, "%-28s %s\n", head.c_str(), tail.c_str());
        }
        std::fprintf(out, "%-28s %s\n", "  --help", "show this help");
    }

private:
    struct Positional {
        std::string arg;
        std::size_t min = 0, max = 0;
    };

    [[noreturn]] void usage_error(const std::string& message) const {
        die(tool_ + ": " + message + " (try --help)");
    }
    /// A getter on an undeclared name is a bug in the tool, not bad input.
    [[nodiscard]] const Option& declared(const std::string& name) const {
        const Option* o = find(name);
        if (o == nullptr) {
            std::fprintf(stderr, "%s: option --%s is not declared\n",
                         tool_.c_str(), name.c_str());
            std::abort();
        }
        return *o;
    }

    std::string tool_;
    std::string summary_;
    std::vector<Option> options_;
    Positional positional_;
    std::map<std::string, std::string> given_;
    std::vector<std::string> positionals_;
};

/// Every tool's main: parses argv against `options`, then runs `body`. An
/// exception escaping the body — a malformed input file, an unwritable
/// output — is reported as "<tool>: <message>" with exit 1, never an abort.
template <typename Body>
int run(OptionSet options, int argc, char** argv, Body&& body) {
    options.parse(argc, argv);
    try {
        return body(std::as_const(options));
    } catch (const std::exception& e) {
        std::fprintf(stderr, "%s: %s\n", options.tool().c_str(), e.what());
        return 1;
    }
}

/// Runs `load(path)`, prefixing any error with the path, so the tool
/// reports "<tool>: <file>: <message>".
template <typename Load>
auto load_file(const std::string& path, Load&& load) {
    try {
        return load(path);
    } catch (const std::exception& e) {
        throw std::runtime_error{path + ": " + e.what()};
    }
}

inline std::string read_text_file(const std::string& path) {
    std::ifstream in{path};
    if (!in) throw std::runtime_error{"cannot open"};
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

inline void write_text_file(const std::string& path, const std::string& text) {
    std::ofstream out{path};
    if (!out) throw std::runtime_error{"cannot open " + path + " for writing"};
    out << text;
}

/// Binary image files: raw little-endian 32-bit words.
inline void save_image(const std::vector<u32>& image, const std::string& path) {
    std::ofstream out{path, std::ios::binary};
    if (!out) throw std::runtime_error{"cannot open " + path + " for writing"};
    for (const u32 w : image) {
        const char bytes[4] = {
            static_cast<char>(w & 0xFF), static_cast<char>((w >> 8) & 0xFF),
            static_cast<char>((w >> 16) & 0xFF),
            static_cast<char>((w >> 24) & 0xFF)};
        out.write(bytes, 4);
    }
}

inline std::vector<u32> load_image(const std::string& path) {
    std::ifstream in{path, std::ios::binary};
    if (!in) throw std::runtime_error{"cannot open"};
    std::vector<u32> image;
    char bytes[4];
    while (in.read(bytes, 4)) {
        image.push_back(static_cast<u32>(static_cast<u8>(bytes[0])) |
                        (static_cast<u32>(static_cast<u8>(bytes[1])) << 8) |
                        (static_cast<u32>(static_cast<u8>(bytes[2])) << 16) |
                        (static_cast<u32>(static_cast<u8>(bytes[3])) << 24));
    }
    return image;
}

// ---- shared option declarations and their parsers ----------------------

/// The paper's benchmarks: the --app tokens, each with its default --size
/// and its factory.
struct App {
    const char* name;
    u32 size;
    apps::Workload (*make)(u32 cores, u32 size);
};
inline constexpr App kApps[] = {
    {"cacheloop", 100000,
     [](u32 c, u32 s) { return apps::make_cacheloop({c, s}); }},
    {"sp_matrix", 24, [](u32, u32 s) { return apps::make_sp_matrix({s}); }},
    {"mp_matrix", 24,
     [](u32 c, u32 s) { return apps::make_mp_matrix({c, s}); }},
    {"des", 16, [](u32 c, u32 s) { return apps::make_des({c, s}); }},
};

/// Declares --app (default `app`; "" makes it optional), --cores (default
/// `cores`; "" means the tool computes it, as `cores_help` says) and
/// --size, whose default is the app's own size from kApps.
inline OptionSet& add_workload_options(
    OptionSet& set, const char* app, const char* cores,
    const char* cores_help = "benchmark core count") {
    OptionSet::Option o{"app", OptionSet::Kind::Choice, "NAME", app,
                        "benchmark"};
    std::string sizes = "benchmark problem size [default by app:";
    for (std::size_t i = 0; i < std::size(kApps); ++i) {
        o.choices.emplace_back(kApps[i].name, static_cast<int>(i));
        sizes.append(" ").append(kApps[i].name).append("=");
        sizes += std::to_string(kApps[i].size);
    }
    return set.add(std::move(o))
        .number("cores", "N", cores, cores_help)
        .number("size", "N", "", (sizes + "]").c_str());
}

/// The --app benchmark for `cores` cores at --size (the app's own size
/// unless given).
[[nodiscard]] inline apps::Workload get_workload(const OptionSet& o,
                                                 u32 cores) {
    const App& app = kApps[o.get_choice<std::size_t>("app")];
    return app.make(cores, o.has("size") ? o.get_u32("size") : app.size);
}

inline OptionSet& add_ic_option(OptionSet& set) {
    return set.choice<platform::IcKind>(
        "ic", "amba", "interconnect",
        {{"amba", platform::IcKind::Amba},
         {"crossbar", platform::IcKind::Crossbar},
         {"xpipes", platform::IcKind::Xpipes}});
}

inline OptionSet& add_pattern_option(OptionSet& set, const char* def,
                                     const char* help) {
    using tg::Pattern;
    return set.choice<Pattern>("pattern", def, help,
                               {{"uniform_random", Pattern::UniformRandom},
                                {"bit_complement", Pattern::BitComplement},
                                {"transpose", Pattern::Transpose},
                                {"shuffle", Pattern::Shuffle},
                                {"tornado", Pattern::Tornado},
                                {"neighbor", Pattern::Neighbor},
                                {"hotspot", Pattern::Hotspot}});
}

/// The funnel flags (docs/analytic.md): evaluator tier and the cycle-tier
/// survivor budget.
inline OptionSet& add_tier_options(OptionSet& set) {
    return set
        .choice<sweep::Tier>("tier", "cycle", "evaluator tier",
                             {{"cycle", sweep::Tier::Cycle},
                              {"analytic", sweep::Tier::Analytic},
                              {"funnel", sweep::Tier::Funnel}})
        .number("funnel-top", "K", "16",
                "funnel tier: cycle-simulated survivor budget", true);
}

/// The traffic-source flags (docs/traffic.md): loop mode, and the two
/// open-loop knobs.
inline OptionSet& add_source_options(OptionSet& set) {
    return set
        .choice<tg::SourceMode>("source", "closed", "traffic-source loop mode",
                                {{"closed", tg::SourceMode::Closed},
                                 {"open", tg::SourceMode::Open}})
        .number("max-outstanding", "N", "0",
                "open loop: in-flight read packets per master NI cap"
                " (0 = unbounded)")
        .number("pending-limit", "N", "64",
                "open loop: per-master pending-packet queue bound", true);
}

/// The parsed tg::SourceConfig for the flags above. Open-only knobs with
/// --source=closed are a fatal usage error, not silently ignored (the
/// closed generator is inherently one-outstanding; accepting the flag
/// would misreport what ran). The offered rate is NOT set here — the
/// sweep's --rates axis owns it (sweep::make_rate_sweep).
[[nodiscard]] inline tg::SourceConfig get_source(const OptionSet& o) {
    tg::SourceConfig s;
    s.mode = o.get_choice<tg::SourceMode>("source");
    s.max_outstanding = o.get_u32("max-outstanding");
    s.pending_limit = o.get_u32("pending-limit");
    if (!s.open() && (o.has("max-outstanding") || o.has("pending-limit")))
        die("--max-outstanding/--pending-limit need --source=open");
    return s;
}

/// Shared distributed-campaign flag (docs/sweep.md):
///   --shard=k/N   evaluate only candidates with index % N == k (original
///                 indices are kept, so shard reports merge byte-identically
///                 via tgsim_merge). Absent = the whole grid.
/// A malformed spec is a fatal usage error, never a silent full run.
inline sweep::ShardSpec get_shard(const OptionSet& o) {
    if (!o.has("shard")) return {};
    const auto shard = sweep::parse_shard(o.get("shard"));
    if (!shard)
        die("--shard: bad spec '" + o.get("shard") +
            "' (need k/N with k < N, e.g. 0/3)");
    return *shard;
}

/// Parses one mesh spec: "auto" (dimensions chosen by the platform) or
/// "WxH", e.g. "3x3".
inline std::optional<ic::XpipesConfig> parse_mesh(const std::string& spec,
                                                  u32 fifo_depth) {
    ic::XpipesConfig mesh;
    mesh.width = 0;
    mesh.height = 0;
    mesh.fifo_depth = fifo_depth;
    if (spec == "auto") return mesh;
    const auto x = spec.find('x');
    if (x == std::string::npos || x == 0 || x + 1 == spec.size())
        return std::nullopt;
    char* end = nullptr;
    mesh.width = static_cast<u32>(std::strtoul(spec.c_str(), &end, 10));
    if (end != spec.c_str() + x) return std::nullopt;
    mesh.height =
        static_cast<u32>(std::strtoul(spec.c_str() + x + 1, &end, 10));
    if (*end != '\0') return std::nullopt; // reject trailing junk ("3x2x2")
    if (mesh.width == 0 || mesh.height == 0) return std::nullopt;
    return mesh;
}

/// A logical core grid flag (tgsim_patterns --mesh, tgsim_sweep --grid):
/// "WxH" with explicit dimensions.
inline ic::XpipesConfig get_grid(const OptionSet& o, const std::string& name) {
    const auto grid = parse_mesh(o.get(name), 4);
    if (!grid || grid->width == 0)
        die("bad --" + name + " spec '" + o.get(name) + "' (WxH, e.g. 4x4)");
    return *grid;
}

/// Strict double parse for rate lists; the whole string must be consumed,
/// the value finite and non-negative.
inline std::optional<double> parse_rate(const std::string& s) {
    if (s.empty()) return std::nullopt;
    errno = 0;
    char* end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    if (end != s.c_str() + s.size() || errno == ERANGE) return std::nullopt;
    if (!(v >= 0.0) || v > 1.0e9) return std::nullopt;
    return v;
}

/// The --rates offered-rate ladder: entries in (0, 1], strictly ascending
/// (find_saturation reads it in order, and sweep rows group into
/// per-fabric load-latency curves).
[[nodiscard]] inline std::vector<double> get_rates(const OptionSet& o) {
    std::vector<double> rates;
    for (const std::string& tok : split_list(o.get("rates"))) {
        const auto r = parse_rate(tok);
        if (!r || *r <= 0.0 || *r > 1.0)
            die("bad --rates entry '" + tok + "' (need (0,1])");
        if (!rates.empty() && *r <= rates.back())
            die("--rates must be strictly ascending");
        rates.push_back(*r);
    }
    if (rates.empty()) die("--rates is empty");
    return rates;
}

/// --fault-rate=R[,R2,...] (docs/faults.md): total per-flit fault
/// probabilities in [0, 1], split evenly across corruption, drop and
/// transient-stall faults; 0 disables the fault layer entirely.
[[nodiscard]] inline std::vector<double> get_fault_rates(const OptionSet& o) {
    std::vector<double> out;
    for (const std::string& tok : split_list(o.get("fault-rate"))) {
        const auto r = parse_rate(tok);
        if (!r || *r > 1.0)
            die("bad --fault-rate entry '" + tok + "' (need [0, 1])");
        out.push_back(*r);
    }
    if (out.empty()) die("--fault-rate is empty");
    return out;
}

/// FaultConfig for one axis point: the total rate is split evenly across
/// the three fault kinds, so one scalar sweeps all of them and FaultModel's
/// "rates sum to <= 1" validation holds for any total in [0, 1].
[[nodiscard]] inline ic::FaultConfig make_fault(double rate, u64 seed) {
    ic::FaultConfig f;
    f.corrupt_rate = f.drop_rate = f.stall_rate = rate / 3.0;
    f.seed = seed;
    return f;
}

/// One parsed --topology token (docs/topology.md):
///   mesh       the XY-routed 2D mesh (default; campaign identities stay
///              byte-compatible with pre-topology reports)
///   torus      2D torus with wrap links and minimal XY routing
///   file:PATH  table-routed graph in the docs/topology.md text format
struct TopologyChoice {
    ic::TopologyKind kind = ic::TopologyKind::Mesh;
    std::shared_ptr<const ic::GraphSpec> graph; ///< engaged iff kind == Table
};

/// Parses one --topology token. The graph file is loaded and validated
/// eagerly, so a malformed or disconnected graph is a fatal usage error
/// before any simulation starts, and every sweep worker shares the single
/// parsed spec.
[[nodiscard]] inline TopologyChoice parse_topology_or_die(
    const std::string& token, const std::string& what) {
    TopologyChoice out;
    if (token.rfind("file:", 0) == 0) {
        const std::string path = token.substr(5);
        if (path.empty()) die(what + ": empty graph path in '" + token + "'");
        std::string err;
        auto spec = ic::parse_graph(load_file(path, read_text_file), path,
                                    &err);
        if (!spec) die(what + ": " + err);
        out.kind = ic::TopologyKind::Table;
        out.graph = std::make_shared<const ic::GraphSpec>(std::move(*spec));
        return out;
    }
    out.kind = enum_from<ic::TopologyKind>(
        what, token,
        {{"mesh", ic::TopologyKind::Mesh}, {"torus", ic::TopologyKind::Torus}},
        "file:PATH");
    return out;
}

/// The --topology axis: a comma list for tgsim_sweep's candidate grid, a
/// single value for tgsim_patterns.
[[nodiscard]] inline std::vector<TopologyChoice> get_topologies(
    const OptionSet& o) {
    std::vector<TopologyChoice> out;
    for (const std::string& tok : split_list(o.get("topology")))
        out.push_back(parse_topology_or_die(tok, "--topology"));
    if (out.empty()) die("--topology is empty");
    return out;
}

/// Fatal parse-time capacity check: an explicit fabric must host n_cores
/// cores plus the shared memory and semaphore bank
/// (platform::xpipes_nodes_needed). A --mesh too small for the --grid used
/// to surface only as a mid-sweep setup error — or a Platform throw after
/// minutes of other candidates; now it fails in milliseconds with the
/// numbers spelled out. Auto-sized meshes always fit and pass through.
inline void check_fabric_capacity(const ic::XpipesConfig& fabric, u32 n_cores,
                                  const std::string& what) {
    u32 nodes = 0;
    if (fabric.topology == ic::TopologyKind::Table) {
        nodes = fabric.graph ? fabric.graph->nodes : 0;
    } else {
        if (fabric.width == 0 || fabric.height == 0) return; // auto-sized
        nodes = fabric.width * fabric.height;
    }
    const u32 needed = platform::xpipes_nodes_needed(n_cores);
    if (nodes < needed) {
        die(what + ": " + std::to_string(nodes) +
            " node(s) cannot host the " + std::to_string(n_cores) +
            "-core grid plus 2 shared slaves (need >= " +
            std::to_string(needed) + " nodes)");
    }
}

/// Parses a --poll value: a comma list of base:size:retry_cmp:value:idle
/// specs, e.g. --poll=0x30000000:256:eq:0:1,0x30001000:4:ne:1:2
inline std::vector<tg::PollSpec> parse_polls(const std::string& value) {
    std::vector<tg::PollSpec> polls;
    for (const std::string& spec : split_list(value)) {
        const std::vector<std::string> parts = split_list(spec, ':');
        if (parts.size() != 5) die("bad --poll spec '" + spec + "'");
        tg::PollSpec p;
        p.base = parse_u32_or_die(parts[0], "--poll base");
        p.size = parse_u32_or_die(parts[1], "--poll size");
        p.retry_cmp = enum_from<tg::TgCmp>("--poll cmp", parts[2],
                                           {{"eq", tg::TgCmp::Eq},
                                            {"ne", tg::TgCmp::Ne},
                                            {"ltu", tg::TgCmp::Ltu},
                                            {"geu", tg::TgCmp::Geu}});
        p.retry_value = parse_u32_or_die(parts[3], "--poll value");
        p.inter_poll_idle = parse_u32_or_die(parts[4], "--poll idle");
        polls.push_back(p);
    }
    return polls;
}

} // namespace tgsim::cli
