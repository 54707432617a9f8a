#include "common.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace tgbench {

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
    if (v.empty()) return 0.0;
    double sum = 0.0;
    for (const double x : v) sum += x;
    return sum / static_cast<double>(v.size());
}

void Ledger::check(bool ok, const std::string& what) {
    ++attempted_;
    if (ok) return;
    ++failed_;
    if (failed_ <= 5) std::fprintf(stderr, "FAILED: %s\n", what.c_str());
}

std::size_t Spans::begin(std::string name) {
    spans_.push_back({std::move(name), now_s(), 0.0});
    return spans_.size() - 1;
}

void Spans::end(std::size_t id) { spans_[id].stop = now_s(); }

double Spans::total(const std::string& name) const {
    double t = 0.0;
    for (const Span& s : spans_)
        if (s.name == name) t += s.stop - s.start;
    return t;
}

} // namespace tgbench
