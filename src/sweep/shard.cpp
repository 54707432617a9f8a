#include "sweep/shard.hpp"

#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string_view>
#include <utility>

namespace tgsim::sweep {

namespace {

bool set_error(std::string* error, std::string msg) {
    if (error != nullptr) *error = std::move(msg);
    return false;
}

} // namespace

std::optional<ShardSpec> parse_shard(const std::string& s) {
    const auto digits = [](std::string_view v, u32* out) {
        if (v.empty() || v.size() > 9) return false;
        u32 x = 0;
        for (const char c : v) {
            if (c < '0' || c > '9') return false;
            x = x * 10 + static_cast<u32>(c - '0');
        }
        *out = x;
        return true;
    };
    const std::size_t slash = s.find('/');
    if (slash == std::string::npos) return std::nullopt;
    ShardSpec spec;
    if (!digits(std::string_view{s}.substr(0, slash), &spec.index) ||
        !digits(std::string_view{s}.substr(slash + 1), &spec.count))
        return std::nullopt;
    if (spec.count == 0 || spec.index >= spec.count) return std::nullopt;
    return spec;
}

bool meta_compatible(const SweepMeta& a, const SweepMeta& b) {
    return meta_diff(a, b).empty();
}

std::string meta_diff(const SweepMeta& a, const SweepMeta& b) {
    if (a.app != b.app) return "app";
    if (a.n_cores != b.n_cores) return "cores";
    if (a.max_cycles != b.max_cycles) return "max_cycles";
    if (a.tier != b.tier) return "tier";
    if (a.seed != b.seed) return "seed";
    if (a.n_candidates != b.n_candidates) return "n_candidates";
    if (a.funnel_top != b.funnel_top) return "funnel_top";
    if (a.shard.count != b.shard.count) return "shard_count";
    return "";
}

JournalWriter::~JournalWriter() {
    if (f_ != nullptr) (void)close();
}

namespace {

/// Byte length of `path` up to and including its final newline — i.e. with
/// any torn final line (mid-write kill) excluded. -1 on IO error.
long complete_prefix_length(const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) return errno == ENOENT ? 0 : -1;
    if (std::fseek(f, 0, SEEK_END) != 0) {
        std::fclose(f);
        return -1;
    }
    long end = std::ftell(f);
    char buf[4096];
    while (end > 0) {
        const long chunk =
            end < static_cast<long>(sizeof buf) ? end : static_cast<long>(sizeof buf);
        if (std::fseek(f, end - chunk, SEEK_SET) != 0 ||
            std::fread(buf, 1, static_cast<std::size_t>(chunk), f) !=
                static_cast<std::size_t>(chunk)) {
            std::fclose(f);
            return -1;
        }
        for (long i = chunk - 1; i >= 0; --i)
            if (buf[i] == '\n') {
                std::fclose(f);
                return end - chunk + i + 1;
            }
        end -= chunk;
    }
    std::fclose(f);
    return 0;
}

} // namespace

bool JournalWriter::open(const std::string& path, const SweepMeta& meta,
                         u32 batch, std::string* error) {
    std::lock_guard<std::mutex> lock{mu_};
    if (f_ != nullptr) return set_error(error, "journal already open");

    // Seal a torn final line before appending: load_journal() already
    // re-evaluates that row, and writing new rows after the partial bytes
    // would fuse them into one corrupt line, breaking any SECOND resume.
    const long size = complete_prefix_length(path);
    if (size < 0)
        return set_error(error, "cannot read journal " + path + ": " +
                                    std::strerror(errno));
    if (::truncate(path.c_str(), size) != 0 && errno != ENOENT)
        return set_error(error, "cannot truncate journal " + path + ": " +
                                    std::strerror(errno));

    std::FILE* f = std::fopen(path.c_str(), "ab");
    if (f == nullptr)
        return set_error(error, "cannot open journal " + path + ": " +
                                    std::strerror(errno));
    if (size == 0) {
        // Fresh journal: the header line makes the file self-describing,
        // so --resume can verify it belongs to this campaign. Synced
        // immediately — a kill right after open must still leave a valid
        // journal.
        buf_.clear();
        buf_ += "{\"sweep_journal\": ";
        append_sweep_meta(buf_, meta);
        buf_ += "}\n";
        if (std::fwrite(buf_.data(), 1, buf_.size(), f) != buf_.size() ||
            std::fflush(f) != 0 || ::fsync(fileno(f)) != 0) {
            std::fclose(f);
            return set_error(error, "cannot write journal header to " + path);
        }
    }
    f_ = f;
    batch_ = batch == 0 ? 1 : batch;
    pending_ = 0;
    failed_ = false;
    return true;
}

void JournalWriter::append(const SweepResult& r) {
    std::lock_guard<std::mutex> lock{mu_};
    if (f_ == nullptr || failed_) return;
    buf_.clear();
    append_result_row(buf_, r);
    buf_.push_back('\n');
    if (std::fwrite(buf_.data(), 1, buf_.size(), f_) != buf_.size()) {
        failed_ = true;
        return;
    }
    if (++pending_ >= batch_) {
        pending_ = 0;
        if (std::fflush(f_) != 0 || ::fsync(fileno(f_)) != 0) failed_ = true;
    }
}

bool JournalWriter::close() {
    std::lock_guard<std::mutex> lock{mu_};
    if (f_ == nullptr) return !failed_;
    if (std::fflush(f_) != 0 || ::fsync(fileno(f_)) != 0) failed_ = true;
    if (std::fclose(f_) != 0) failed_ = true;
    f_ = nullptr;
    return !failed_;
}

std::optional<ParsedReport> merge_reports(std::vector<ParsedReport> shards,
                                          std::string* error) {
    if (shards.empty()) {
        set_error(error, "no shard reports to merge");
        return std::nullopt;
    }
    const SweepMeta& m0 = shards[0].meta;
    for (std::size_t i = 1; i < shards.size(); ++i) {
        const std::string field = meta_diff(m0, shards[i].meta);
        if (!field.empty()) {
            char msg[112];
            std::snprintf(msg, sizeof msg,
                          "metadata mismatch between shard reports 0 and %zu:"
                          " field '%s' differs",
                          i, field.c_str());
            set_error(error, msg);
            return std::nullopt;
        }
    }

    const u32 count = m0.shard.count;
    if (shards.size() != count) {
        char msg[96];
        std::snprintf(msg, sizeof msg,
                      "shard count is %u but %zu reports given "
                      "(missing or extra shards)",
                      count, shards.size());
        set_error(error, msg);
        return std::nullopt;
    }
    std::vector<bool> seen_shard(count, false);
    for (const ParsedReport& s : shards) {
        const u32 k = s.meta.shard.index;
        if (seen_shard[k]) {
            char msg[48];
            std::snprintf(msg, sizeof msg, "duplicate shard %u/%u", k, count);
            set_error(error, msg);
            return std::nullopt;
        }
        seen_shard[k] = true;
    }

    ParsedReport out;
    out.meta = m0;
    out.meta.shard = ShardSpec{}; // the merge IS the unsharded report
    out.rows.resize(m0.n_candidates);
    std::vector<bool> present(m0.n_candidates, false);
    for (ParsedReport& s : shards) {
        const u32 k = s.meta.shard.index;
        for (SweepResult& r : s.rows) {
            char msg[96];
            if (r.index >= m0.n_candidates) {
                std::snprintf(msg, sizeof msg,
                              "candidate index %u out of range (grid is %u)",
                              r.index, m0.n_candidates);
                set_error(error, msg);
                return std::nullopt;
            }
            if (shard_of(r.index, count) != k) {
                std::snprintf(msg, sizeof msg,
                              "candidate %u does not belong to shard %u/%u",
                              r.index, k, count);
                set_error(error, msg);
                return std::nullopt;
            }
            if (present[r.index]) {
                std::snprintf(msg, sizeof msg,
                              "duplicate candidate %u (appears again in"
                              " shard %u/%u)",
                              r.index, k, count);
                set_error(error, msg);
                return std::nullopt;
            }
            present[r.index] = true;
            out.rows[r.index] = std::move(r);
        }
    }
    for (u32 i = 0; i < m0.n_candidates; ++i)
        if (!present[i]) {
            char msg[64];
            std::snprintf(msg, sizeof msg,
                          "missing candidate %u (shard %u/%u incomplete)", i,
                          shard_of(i, count), count);
            set_error(error, msg);
            return std::nullopt;
        }
    canonicalize(out.meta, out.rows);
    return out;
}

} // namespace tgsim::sweep
