// Checked number parsing shared by the TG input readers (.trc, .tgp,
// .bin), and the burst-count rule they all apply.
#pragma once

#include <charconv>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

#include "ocp/types.hpp"

namespace tgsim::tg {

/// Parses all of `tok` as an unsigned T: nullopt if `tok` is empty, holds
/// anything but digits of the base (no sign, no whitespace, no trailing
/// characters) or names a value T cannot hold. Base 0 follows the C
/// prefix rule: 0x/0X hexadecimal, a leading 0 octal, otherwise decimal.
template <typename T>
[[nodiscard]] std::optional<T> to_number(std::string_view tok, int base) {
    if (base == 0) {
        base = 10;
        if (tok.size() > 2 && tok[0] == '0' && (tok[1] == 'x' || tok[1] == 'X')) {
            base = 16;
            tok.remove_prefix(2);
        } else if (tok.size() > 1 && tok[0] == '0') {
            base = 8;
            tok.remove_prefix(1);
        }
    }
    unsigned long long v = 0;
    const char* end = tok.data() + tok.size();
    const auto res = std::from_chars(tok.data(), end, v, base);
    if (tok.empty() || res.ec != std::errc{} || res.ptr != end ||
        v > std::numeric_limits<T>::max())
        return std::nullopt;
    return static_cast<T>(v);
}

/// to_number(), or std::invalid_argument "<where>: bad number '<tok>'
/// (expected 0..<max of T>)".
template <typename T>
[[nodiscard]] T parse_number(std::string_view tok, const char* where,
                             int base = 10) {
    if (const auto v = to_number<T>(tok, base)) return *v;
    std::string msg{where};
    msg += ": bad number '";
    msg += tok;
    msg += "' (expected 0..";
    msg += std::to_string(std::numeric_limits<T>::max());
    msg += ')';
    throw std::invalid_argument{msg};
}

/// `n` as a burst beat count, or std::invalid_argument "<where>: burst
/// count '<n>' out of range 1..<ocp::kMaxBurstLen>". Every TG input reader
/// applies this one rule, so no reader passes on a burst the cores would
/// run differently from what the file says.
[[nodiscard]] inline u16 check_burst(u64 n, const char* where) {
    if (n >= 1 && n <= ocp::kMaxBurstLen) return static_cast<u16>(n);
    std::string msg{where};
    msg += ": burst count '";
    msg += std::to_string(n);
    msg += "' out of range 1..";
    msg += std::to_string(ocp::kMaxBurstLen);
    throw std::invalid_argument{msg};
}

} // namespace tgsim::tg
