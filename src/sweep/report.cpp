// The sweep report format (docs/sweep.md): one table of row fields drives
// the report writer, the row reader, bit_identical() and canonicalize(), so
// a new metric is one table line plus the code that produces it. The reader
// pulls values straight into SweepResult; no document tree is ever built.
#include <algorithm>
#include <array>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>
#include <vector>

#include "sweep/shard.hpp"
#include "sweep/sweep.hpp"

namespace tgsim::sweep {

namespace {

// ---- the row schema ----------------------------------------------------

/// How a field is written and read. Fix4/Fix6 are doubles printed with 4
/// or 6 decimals; Ok is the derived `ok` (written from error, read as a
/// bool and discarded).
enum Kind : u8 { Str, U32, U64, Bool, Fix4, Fix6, Failure, Ok };

/// Every block but Base is written only when its presence flag is set. The
/// reader takes a block as present when its first key is, and then
/// requires every key of the block.
enum Block : u8 { Base, Cpu, Latency, Open, Analytic, Faults, kBlocks };

constexpr bool SweepResult::*kPresence[kBlocks] = {
    nullptr, &SweepResult::has_cpu_truth, &SweepResult::has_latency,
    &SweepResult::has_open, &SweepResult::analytic, &SweepResult::has_faults};

using R = SweepResult;
using Member =
    std::variant<std::monostate, std::string R::*, u32 R::*, u64 R::*,
                 bool R::*, double R::*, FailureKind R::*>;

struct Field {
    std::string_view key;
    Kind kind;
    Block block;
    Member member;
    bool wall = false; ///< wall clock: not compared, zeroed by canonicalize
};

/// The row schema, in emission order. per_core is never serialised.
constexpr Field kFields[] = {
    {"name", Str, Base, &R::name},
    {"fabric", Str, Base, &R::fabric},
    {"index", U32, Base, &R::index},
    {"ok", Ok, Base, {}},
    {"error", Str, Base, &R::error},
    {"failure", Failure, Base, &R::failure},
    {"completed", Bool, Base, &R::completed},
    {"checks_ok", Bool, Base, &R::checks_ok},
    {"cycles", U64, Base, &R::cycles},
    {"busy_cycles", U64, Base, &R::busy_cycles},
    {"contention_cycles", U64, Base, &R::contention_cycles},
    {"busy_pct", Fix4, Base, &R::busy_pct},
    {"total_instructions", U64, Base, &R::total_instructions},
    {"wall_seconds", Fix6, Base, &R::wall_seconds, true},
    {"cpu_completed", Bool, Cpu, &R::cpu_completed},
    {"cpu_cycles", U64, Cpu, &R::cpu_cycles},
    {"cpu_wall_seconds", Fix6, Cpu, &R::cpu_wall_seconds, true},
    {"err_pct", Fix4, Cpu, &R::err_pct},
    {"offered_rate", Fix6, Latency, &R::offered_rate},
    {"accepted_rate", Fix6, Latency, &R::accepted_rate},
    {"packets", U64, Latency, &R::packets},
    {"error_packets", U64, Latency, &R::error_packets},
    {"lat_count", U64, Latency, &R::lat_count},
    {"lat_mean", Fix4, Latency, &R::lat_mean},
    {"lat_p50", U64, Latency, &R::lat_p50},
    {"lat_p99", U64, Latency, &R::lat_p99},
    {"lat_max", U64, Latency, &R::lat_max},
    {"pending_limit", U64, Open, &R::pending_limit},
    {"pending_peak", U64, Open, &R::pending_peak},
    {"net_lat_count", U64, Open, &R::net_lat_count},
    {"net_lat_mean", Fix4, Open, &R::net_lat_mean},
    {"net_lat_p50", U64, Open, &R::net_lat_p50},
    {"net_lat_p99", U64, Open, &R::net_lat_p99},
    {"net_lat_max", U64, Open, &R::net_lat_max},
    {"sq_lat_count", U64, Open, &R::sq_lat_count},
    {"sq_lat_mean", Fix4, Open, &R::sq_lat_mean},
    {"sq_lat_p50", U64, Open, &R::sq_lat_p50},
    {"sq_lat_p99", U64, Open, &R::sq_lat_p99},
    {"sq_lat_max", U64, Open, &R::sq_lat_max},
    {"analytic", Bool, Analytic, &R::analytic},
    {"predicted_saturation", Fix6, Analytic, &R::predicted_saturation},
    {"fault_injected", U64, Faults, &R::fault_injected},
    {"fault_delivered", U64, Faults, &R::fault_delivered},
    {"fault_err_delivered", U64, Faults, &R::fault_err_delivered},
    {"fault_recovered", U64, Faults, &R::fault_recovered},
    {"fault_lost", U64, Faults, &R::fault_lost},
    {"fault_retries", U64, Faults, &R::fault_retries},
    {"fault_corrupted", U64, Faults, &R::fault_corrupted},
    {"fault_dropped", U64, Faults, &R::fault_dropped},
    {"fault_stalls", U64, Faults, &R::fault_stalls},
    {"fault_csum_fails", U64, Faults, &R::fault_csum_fails},
    {"delivered_ratio", Fix6, Faults, &R::delivered_ratio},
    {"retry_lat_count", U64, Faults, &R::retry_lat_count},
    {"retry_lat_mean", Fix4, Faults, &R::retry_lat_mean},
    {"retry_lat_p99", U64, Faults, &R::retry_lat_p99},
};
constexpr std::size_t kNumFields = std::size(kFields);

/// Table index of each block's first field.
constexpr auto kBlockStart = [] {
    std::array<std::size_t, kBlocks> start{};
    for (std::size_t i = kNumFields; i-- > 0;) start[kFields[i].block] = i;
    return start;
}();

constexpr auto kRowKeys = [] {
    std::array<std::string_view, kNumFields> keys{};
    for (std::size_t i = 0; i < kNumFields; ++i) keys[i] = kFields[i].key;
    return keys;
}();

static_assert(kNumFields <= 64, "widen the reader's seen-key mask");
static_assert(std::is_sorted(std::begin(kFields), std::end(kFields),
                             [](const Field& a, const Field& b) {
                                 return a.block < b.block;
                             }),
              "blocks must be contiguous, Base first");
static_assert(std::all_of(std::begin(kFields), std::end(kFields),
                          [](const Field& f) {
                              constexpr std::size_t kAlt[] = {1, 2, 3, 4,
                                                              5, 5, 6, 0};
                              return f.member.index() == kAlt[f.kind] &&
                                     (!f.wall || f.kind == Fix6);
                          }),
              "a field's member type must match its kind");

/// True for the member slot of the derived `ok`, which has no member.
template <typename M>
constexpr bool kNoMember = std::is_same_v<M, std::monostate>;

bool set_error(std::string* error, std::string msg) {
    if (error != nullptr) *error = std::move(msg);
    return false;
}

// ---- writer -------------------------------------------------------------

/// Appends `s` as a quoted JSON string, escaping quotes, backslashes and
/// control characters (exception messages can carry newlines). Unbounded
/// length — candidate names and error strings must never truncate the
/// report into invalid JSON.
void append_string(std::string& out, const std::string& s) {
    out.push_back('"');
    for (const char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x",
                                  static_cast<unsigned char>(c));
                    out += buf;
                } else {
                    out.push_back(c);
                }
        }
    }
    out.push_back('"');
}

void append_uint(std::string& out, u64 v) {
    char buf[20];
    out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

/// printf("%.*f") output, which std::to_chars reproduces exactly. DBL_MAX
/// at 6 decimals is 316 characters, so the buffer cannot truncate.
void append_fixed(std::string& out, double v, int decimals) {
    char buf[330];
    out.append(buf, std::to_chars(buf, buf + sizeof buf, v,
                                  std::chars_format::fixed, decimals)
                        .ptr);
}

void append_key(std::string& out, std::string_view sep, std::string_view key) {
    out += sep;
    out += '"';
    out += key;
    out += "\": ";
}

void append_value(std::string& out, const SweepResult& r, const Field& f) {
    std::visit([&](auto m) {
        using M = decltype(m);
        if constexpr (kNoMember<M>) {
            out += r.ok() ? "true" : "false";
        } else if constexpr (std::is_same_v<M, std::string R::*>) {
            append_string(out, r.*m);
        } else if constexpr (std::is_same_v<M, bool R::*>) {
            out += r.*m ? "true" : "false";
        } else if constexpr (std::is_same_v<M, double R::*>) {
            append_fixed(out, r.*m, f.kind == Fix4 ? 4 : 6);
        } else if constexpr (std::is_same_v<M, FailureKind R::*>) {
            out += '"';
            out += to_string(r.*m);
            out += '"';
        } else {
            append_uint(out, r.*m);
        }
    }, f.member);
}

/// Emits the report piecewise through `flush(buffer)` — once for the
/// header, once per row, once for the footer — so FILE-backed sinks never
/// hold more than one row in memory. Stops (returning false) on the first
/// flush failure.
template <typename Flush>
bool emit_report(const std::vector<SweepResult>& results,
                 const SweepMeta& meta, Flush&& flush) {
    std::string buf;
    buf += "{\n  \"sweep\": ";
    append_sweep_meta(buf, meta);
    buf += ",\n  \"candidates\": [";
    if (!flush(buf)) return false;
    for (std::size_t i = 0; i < results.size(); ++i) {
        buf.clear();
        buf += i ? ",\n    " : "\n    ";
        append_result_row(buf, results[i]);
        if (!flush(buf)) return false;
    }
    buf = "\n  ]\n}\n";
    return flush(buf);
}

// ---- reader -------------------------------------------------------------

/// Pull reader over the grammar the writer produces (objects, arrays,
/// strings with escapes, numbers, bools, null). Values are read in
/// document order straight into their destinations. The first failure is
/// kept, with the byte offset where it happened.
class Reader {
public:
    explicit Reader(std::string_view s) : s_(s) {}

    [[nodiscard]] const std::string& error() const { return err_; }

    bool fail(std::string_view what) {
        if (err_.empty())
            err_ = std::string{what} + " at byte " + std::to_string(pos_);
        return false;
    }

    /// Prefixes the kept failure with where it happened, e.g. a row number.
    bool within(const std::string& context) {
        err_.insert(0, context + ": ");
        return false;
    }

    /// The document must end here, up to whitespace.
    bool finish() {
        ws();
        return pos_ == s_.size() || fail("trailing characters");
    }

    /// Reads one object whose known keys are `keys`, calling on_key(i) at
    /// the value of keys[i]. The next key in `keys` is tried first, so a
    /// document in the writer's order costs one comparison per key.
    /// Unknown keys are skipped; a repeated known key is an error; `seen`
    /// collects bit i for every keys[i] read.
    template <typename OnKey>
    bool fields(int depth, std::span<const std::string_view> keys, u64& seen,
                OnKey&& on_key) {
        std::size_t next = 0;
        return members(depth, [&](std::string_view key) {
            std::size_t i = next;
            if (i >= keys.size() || keys[i] != key)
                i = static_cast<std::size_t>(
                    std::find(keys.begin(), keys.end(), key) - keys.begin());
            if (i == keys.size()) return skip(depth + 1);
            if ((seen >> i & 1) != 0)
                return fail("repeated key '" + std::string{key} + "'");
            seen |= u64{1} << i;
            next = i + 1;
            return on_key(i);
        });
    }

    /// Fails naming the first of keys[0 .. n) that `seen` lacks.
    bool require(u64 seen, std::span<const std::string_view> keys,
                 std::size_t n) {
        for (std::size_t i = 0; i < n; ++i)
            if ((seen >> i & 1) == 0)
                return fail("field '" + std::string{keys[i]} + "' missing");
        return true;
    }

    /// Reads one array, calling on_item() at each element.
    template <typename OnItem>
    bool array(int depth, OnItem&& on_item) {
        if (depth > kMaxDepth) return fail("nesting too deep");
        ws();
        if (!eat('[')) return fail("expected an array");
        ws();
        if (eat(']')) return true;
        for (;;) {
            ws();
            if (!on_item()) return false;
            ws();
            if (eat(',')) continue;
            if (eat(']')) return true;
            return fail(pos_ >= s_.size() ? "unterminated array"
                                          : "expected ',' or ']'");
        }
    }

    bool read(std::string& out, std::string_view key) {
        return peek('"') ? string(out) : mistyped(key, "a string");
    }

    bool read(bool& out, std::string_view key) {
        out = peek('t');
        return literal(out ? "true" : "false") || mistyped(key, "a bool");
    }

    bool read(u64& out, std::string_view key) {
        std::string_view raw;
        if (!number(raw)) return mistyped(key, "a u64");
        const char* const end = raw.data() + raw.size();
        const auto [at, ec] = std::from_chars(raw.data(), end, out);
        return (ec == std::errc{} && at == end) || mistyped(key, "a u64");
    }

    bool read(u32& out, std::string_view key) {
        u64 x = 0;
        if (!read(x, key)) return false;
        if (x > 0xFFFFFFFFull)
            return fail("field '" + std::string{key} + "' overflows u32");
        out = static_cast<u32>(x);
        return true;
    }

    bool read(double& out, std::string_view key) {
        std::string_view raw;
        if (!number(raw)) return mistyped(key, "a number");
        num_.assign(raw); // strtod needs a terminator
        errno = 0;
        char* end = nullptr;
        out = std::strtod(num_.c_str(), &end);
        return (errno == 0 && end == num_.c_str() + num_.size()) ||
               mistyped(key, "a number");
    }

    bool read(FailureKind& out, std::string_view key) {
        if (!read(num_, key)) return false;
        const std::optional<FailureKind> k = parse_failure(num_);
        if (!k) return fail("unknown failure kind '" + num_ + "'");
        out = *k;
        return true;
    }

private:
    static constexpr int kMaxDepth = 64;

    bool mistyped(std::string_view key, const char* what) {
        return fail("field '" + std::string{key} + "' is not " + what);
    }

    void ws() {
        while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                                    s_[pos_] == '\n' || s_[pos_] == '\r'))
            ++pos_;
    }

    [[nodiscard]] bool peek(char c) const {
        return pos_ < s_.size() && s_[pos_] == c;
    }

    bool eat(char c) {
        if (!peek(c)) return false;
        ++pos_;
        return true;
    }

    bool literal(std::string_view w) {
        if (s_.substr(pos_, w.size()) != w) return false;
        pos_ += w.size();
        return true;
    }

    /// Calls on_key(key) at each member's value; on_key consumes it.
    template <typename OnKey>
    bool members(int depth, OnKey&& on_key) {
        if (depth > kMaxDepth) return fail("nesting too deep");
        ws();
        if (!eat('{')) return fail("expected an object");
        ws();
        if (eat('}')) return true;
        for (;;) {
            ws();
            if (!peek('"')) return fail("expected object key");
            if (!string(key_)) return false;
            ws();
            if (!eat(':')) return fail("expected ':'");
            ws();
            if (!on_key(std::string_view{key_})) return false;
            ws();
            if (eat(',')) continue;
            if (eat('}')) return true;
            return fail(pos_ >= s_.size() ? "unterminated object"
                                          : "expected ',' or '}'");
        }
    }

    /// Consumes one value of any shape.
    bool skip(int depth) {
        if (depth > kMaxDepth) return fail("nesting too deep");
        ws();
        std::string_view raw;
        switch (pos_ < s_.size() ? s_[pos_] : '\0') {
            case '{':
                return members(depth, [&](std::string_view) {
                    return skip(depth + 1);
                });
            case '[': return array(depth, [&] { return skip(depth + 1); });
            case '"': return string(num_);
            case 't': return literal("true") || fail("bad literal");
            case 'f': return literal("false") || fail("bad literal");
            case 'n': return literal("null") || fail("bad literal");
            default:
                return number(raw) ||
                       fail(pos_ < s_.size() ? "expected a value"
                                             : "unexpected end of input");
        }
    }

    /// The raw spelling of a number: -?digits(.digits*)?([eE][+-]?digits*)?
    bool number(std::string_view& raw) {
        const std::size_t start = pos_;
        const auto digits = [&] {
            while (pos_ < s_.size() && s_[pos_] >= '0' && s_[pos_] <= '9')
                ++pos_;
        };
        eat('-');
        const std::size_t first_digit = pos_;
        digits();
        if (pos_ == first_digit) {
            pos_ = start;
            return false;
        }
        if (eat('.')) digits();
        if (eat('e') || eat('E')) {
            if (!eat('+')) eat('-');
            digits();
        }
        raw = s_.substr(start, pos_ - start);
        return true;
    }

    /// Decodes the string at pos_ (opening quote included) into `out`.
    bool string(std::string& out) {
        ++pos_; // '"'
        out.clear();
        while (pos_ < s_.size()) {
            const std::size_t run = s_.find_first_of("\"\\", pos_);
            if (run == std::string_view::npos) break;
            out.append(s_.data() + pos_, run - pos_);
            pos_ = run + 1;
            if (s_[run] == '"') return true;
            if (pos_ >= s_.size()) break;
            switch (s_[pos_++]) {
                case '"': out.push_back('"'); break;
                case '\\': out.push_back('\\'); break;
                case '/': out.push_back('/'); break;
                case 'n': out.push_back('\n'); break;
                case 'r': out.push_back('\r'); break;
                case 't': out.push_back('\t'); break;
                case 'b': out.push_back('\b'); break;
                case 'f': out.push_back('\f'); break;
                case 'u':
                    if (!unicode(out)) return false;
                    break;
                default: return fail("bad escape");
            }
        }
        pos_ = s_.size();
        return fail("unterminated string");
    }

    bool unicode(std::string& out) {
        if (pos_ + 4 > s_.size()) return fail("bad \\u escape");
        u32 cp = 0;
        const auto [at, ec] =
            std::from_chars(s_.data() + pos_, s_.data() + pos_ + 4, cp, 16);
        if (ec != std::errc{} || at != s_.data() + pos_ + 4)
            return fail("bad \\u escape");
        pos_ += 4;
        // The writer only escapes control bytes; decode the BMP and reject
        // surrogates rather than carry UTF-16 pairing logic nothing
        // produces.
        if (cp >= 0xD800 && cp <= 0xDFFF)
            return fail("unsupported surrogate escape");
        if (cp < 0x80) {
            out.push_back(static_cast<char>(cp));
        } else if (cp < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        } else {
            out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        }
        return true;
    }

    std::string_view s_;
    std::size_t pos_ = 0;
    std::string err_;
    std::string key_; ///< the current object key, reused
    std::string num_; ///< scratch for numbers, failure kinds, skipped text
};

/// Reads one candidate row. A key of an absent block is checked and then
/// dropped, so such a row reads as if the key were not there.
bool read_row(Reader& in, int depth, SweepResult& r) {
    r = SweepResult{}; // optional blocks must not inherit a reused row's state
    u64 seen = 0;
    const bool ok = in.fields(depth, kRowKeys, seen, [&](std::size_t i) {
        const Field& f = kFields[i];
        if (kBlockStart[f.block] == i && f.block != Base)
            r.*kPresence[f.block] = true; // the analytic flag reads over it
        return std::visit([&](auto m) {
            if constexpr (kNoMember<decltype(m)>) {
                bool derived = false; // ok follows from error
                return in.read(derived, f.key);
            } else {
                return in.read(r.*m, f.key);
            }
        }, f.member);
    });
    if (!ok) return false;
    static const SweepResult kDefault{};
    for (std::size_t i = 0; i < kNumFields; ++i) {
        const Block b = kFields[i].block;
        if (b == Base || (seen >> kBlockStart[b] & 1) != 0) {
            if ((seen >> i & 1) == 0)
                return in.fail("field '" + std::string{kFields[i].key} +
                               "' missing");
        } else if ((seen >> i & 1) != 0) {
            std::visit([&](auto m) {
                if constexpr (!kNoMember<decltype(m)>) r.*m = kDefault.*m;
            }, kFields[i].member);
        }
    }
    return true;
}

constexpr std::string_view kMetaKeys[] = {
    "app",  "cores",        "jobs",       "max_cycles", "tier",
    "seed", "n_candidates", "funnel_top", "shard"};
constexpr std::size_t kRequiredMetaKeys = 7; // funnel_top, shard optional
constexpr std::string_view kShardKeys[] = {"index", "count"};

bool read_meta(Reader& in, int depth, SweepMeta& m) {
    m = SweepMeta{};
    std::string tier;
    u64 seen = 0;
    const bool ok = in.fields(depth, kMetaKeys, seen, [&](std::size_t i) {
        const std::string_view key = kMetaKeys[i];
        switch (i) {
            case 0: return in.read(m.app, key);
            case 1: return in.read(m.n_cores, key);
            case 2: return in.read(m.jobs, key);
            case 3: return in.read(m.max_cycles, key);
            case 4: return in.read(tier, key);
            case 5: return in.read(m.seed, key);
            case 6: return in.read(m.n_candidates, key);
            case 7: return in.read(m.funnel_top, key);
            default: {
                u64 shard_seen = 0;
                return in.fields(depth + 1, kShardKeys, shard_seen,
                                 [&](std::size_t j) {
                                     return in.read(j == 0 ? m.shard.index
                                                           : m.shard.count,
                                                    kShardKeys[j]);
                                 }) &&
                       in.require(shard_seen, kShardKeys, 2);
            }
        }
    });
    if (!ok || !in.require(seen, kMetaKeys, kRequiredMetaKeys)) return false;
    const std::optional<Tier> t = parse_tier(tier);
    if (!t) return in.fail("unknown tier '" + tier + "'");
    m.tier = *t;
    if (m.shard.count == 0 || m.shard.index >= m.shard.count)
        return in.fail("invalid shard index/count");
    return true;
}

bool read_file(const std::string& path, std::string* out,
               std::string* error) {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        return set_error(error, "cannot open " + path + ": " +
                                    std::strerror(errno));
    out->clear();
    char buf[1 << 16];
    for (std::size_t n; (n = std::fread(buf, 1, sizeof buf, f)) > 0;)
        out->append(buf, n);
    const bool ok = std::ferror(f) == 0;
    std::fclose(f);
    if (!ok) return set_error(error, "read error on " + path);
    return true;
}

} // namespace

bool bit_identical(const SweepResult& a, const SweepResult& b) {
    for (bool SweepResult::*const flag : kPresence)
        if (flag != nullptr && a.*flag != b.*flag) return false;
    return a.per_core == b.per_core &&
           std::all_of(std::begin(kFields), std::end(kFields),
                       [&](const Field& f) {
                           return f.wall || std::visit([&](auto m) {
                                      if constexpr (kNoMember<decltype(m)>)
                                          return true;
                                      else
                                          return a.*m == b.*m;
                                  }, f.member);
                       });
}

void canonicalize(SweepMeta& meta, std::vector<SweepResult>& rows) {
    meta.jobs = 0;
    for (const Field& f : kFields)
        if (f.wall)
            for (SweepResult& r : rows)
                r.*std::get<double R::*>(f.member) = 0.0;
}

void append_sweep_meta(std::string& out, const SweepMeta& meta) {
    append_key(out, "{", "app");
    append_string(out, meta.app);
    append_key(out, ", ", "cores");
    append_uint(out, meta.n_cores);
    append_key(out, ", ", "jobs");
    append_uint(out, meta.jobs);
    append_key(out, ", ", "max_cycles");
    append_uint(out, meta.max_cycles);
    append_key(out, ", ", "tier");
    out += '"';
    out += to_string(meta.tier);
    out += '"';
    append_key(out, ", ", "seed");
    append_uint(out, meta.seed);
    append_key(out, ", ", "n_candidates");
    append_uint(out, meta.n_candidates);
    if (meta.tier == Tier::Funnel) {
        append_key(out, ", ", "funnel_top");
        append_uint(out, meta.funnel_top);
    }
    if (meta.shard.count > 1) {
        append_key(out, ", ", "shard");
        append_key(out, "{", "index");
        append_uint(out, meta.shard.index);
        append_key(out, ", ", "count");
        append_uint(out, meta.shard.count);
        out += '}';
    }
    out += '}';
}

void append_result_row(std::string& out, const SweepResult& r) {
    std::string_view sep = "{";
    for (const Field& f : kFields) {
        if (f.block != Base && !(r.*kPresence[f.block])) continue;
        append_key(out, sep, f.key);
        append_value(out, r, f);
        sep = ", ";
    }
    out += '}';
}

std::string json_report(const std::vector<SweepResult>& results,
                        const SweepMeta& meta) {
    std::string out;
    (void)emit_report(results, meta, [&out](const std::string& piece) {
        out += piece;
        return true;
    });
    return out;
}

bool json_report_to(std::FILE* f, const std::vector<SweepResult>& results,
                    const SweepMeta& meta) {
    return emit_report(results, meta, [f](const std::string& piece) {
        return std::fwrite(piece.data(), 1, piece.size(), f) == piece.size();
    });
}

bool write_json_report(const std::vector<SweepResult>& results,
                       const SweepMeta& meta, const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "WARN: cannot write %s\n", path.c_str());
        return false;
    }
    const bool ok = json_report_to(f, results, meta);
    if (std::fclose(f) != 0 || !ok) {
        std::fprintf(stderr, "WARN: short write to %s\n", path.c_str());
        return false;
    }
    return true;
}

std::optional<ParsedReport> load_journal(const std::string& path,
                                         std::string* error) {
    std::string text;
    if (!read_file(path, &text, error)) return std::nullopt;

    // Split into lines first so "last line" is well defined: a torn final
    // line (killed mid-write) is recoverable, a corrupt interior line is
    // not a journal.
    std::vector<std::string_view> lines;
    const std::string_view sv{text};
    for (std::size_t pos = 0; pos < sv.size();) {
        std::size_t nl = sv.find('\n', pos);
        if (nl == std::string_view::npos) nl = sv.size();
        if (nl > pos) lines.push_back(sv.substr(pos, nl - pos));
        pos = nl + 1;
    }
    if (lines.empty()) {
        set_error(error, path + ": empty journal");
        return std::nullopt;
    }

    ParsedReport out;
    static constexpr std::string_view kHeaderKeys[] = {"sweep_journal"};
    Reader header{lines[0]};
    u64 seen = 0;
    if (!header.fields(0, kHeaderKeys, seen,
                       [&](std::size_t) {
                           return read_meta(header, 1, out.meta);
                       }) ||
        !header.finish()) {
        set_error(error, path + ": bad journal header: " + header.error());
        return std::nullopt;
    }
    if (seen == 0) {
        set_error(error, path + ": not a sweep journal (no header)");
        return std::nullopt;
    }

    out.rows.reserve(lines.size() - 1);
    for (std::size_t i = 1; i < lines.size(); ++i) {
        Reader in{lines[i]};
        SweepResult& r = out.rows.emplace_back();
        if (!read_row(in, 0, r) || !in.finish()) {
            out.rows.pop_back();
            if (i + 1 == lines.size()) break; // torn final line: re-evaluate
            set_error(error, path + ": corrupt journal line " +
                                 std::to_string(i + 1) + ": " + in.error());
            return std::nullopt;
        }
    }
    return out;
}

std::optional<ParsedReport> parse_report_text(const std::string& text,
                                              std::string* error) {
    static constexpr std::string_view kRootKeys[] = {"sweep", "candidates"};
    Reader in{text};
    ParsedReport out;
    u64 seen = 0;
    const bool ok =
        in.fields(0, kRootKeys, seen,
                  [&](std::size_t i) {
                      if (i == 0) return read_meta(in, 1, out.meta) ||
                                         in.within("header");
                      return in.array(1, [&] {
                          SweepResult& r = out.rows.emplace_back();
                          return read_row(in, 2, r) ||
                                 in.within("candidate row " +
                                           std::to_string(out.rows.size() - 1));
                      });
                  }) &&
        in.require(seen, kRootKeys, 2) && in.finish();
    if (!ok) {
        set_error(error, "bad report: " + in.error());
        return std::nullopt;
    }
    return out;
}

std::optional<ParsedReport> parse_report_file(const std::string& path,
                                              std::string* error) {
    std::string text;
    if (!read_file(path, &text, error)) return std::nullopt;
    std::optional<ParsedReport> out = parse_report_text(text, error);
    if (!out && error != nullptr) *error = path + ": " + *error;
    return out;
}

bool parse_result_row(const std::string& line, SweepResult* out,
                      std::string* error) {
    Reader in{line};
    if (!read_row(in, 0, *out) || !in.finish())
        return set_error(error, "bad row: " + in.error());
    return true;
}

} // namespace tgsim::sweep
