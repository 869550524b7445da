#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include <time.h>

#include "bench.hpp"

namespace perfbench {

double
processCpuMs()
{
    timespec now{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
    return static_cast<double>(now.tv_sec) * 1e3 +
           static_cast<double>(now.tv_nsec) / 1e6;
}

double
probeMs()
{
    const Stopwatch watch;
    std::map<uint64_t, std::string> map;
    hecate::Rng rng(7);
    for (uint32_t i = 0; i < 5'000; ++i)
        map[rng.below(1u << 14)] = std::to_string(i);
    uint64_t sink = 0;
    for (uint32_t i = 0; i < 20'000; ++i) {
        auto it = map.find(rng.below(1u << 14));
        sink += it == map.end() ? 1 : it->second.size();
    }
    static volatile uint64_t keep;
    keep = sink;
    return watch.cpuMs();
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(pos));
    const size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
Ledger::attributedMs() const
{
    double sum = 0.0;
    for (const LedgerRow& row : rows)
        sum += row.ms;
    return sum;
}

double
Ledger::overheadPct() const
{
    return untracedMs > 0.0 ? (tracedMs / untracedMs - 1.0) * 100.0 : 0.0;
}

void
Report::check(bool ok, const std::string& what)
{
    ++attempted_;
    if (ok)
        return;
    // Report the first few failures; the count says how many there were.
    if (++failed_ <= 20)
        std::cerr << "perfbench: FAILED: " << what << "\n";
}

std::string
Report::resultJson() const
{
    std::ostringstream out;
    out << "{\"correct\": " << (failed_ == 0 ? "true" : "false")
        << ", \"attempted\": " << std::max<uint64_t>(attempted_, 1)
        << ", \"failed\": " << failed_ << ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, metric] : metrics_) {
        char number[64];
        std::snprintf(number, sizeof number, "%.17g",
                      std::isfinite(metric.value) ? metric.value : 0.0);
        out << (first ? "" : ", ") << hecate::net::Json(name).dump()
            << ": {\"value\": " << number
            << ", \"unit\": " << hecate::net::Json(metric.unit).dump() << "}";
        first = false;
    }
    out << "}}";
    return out.str();
}

std::string
Report::wallJson() const
{
    std::ostringstream out;
    out << "{\"wall_clock\": {";
    bool first = true;
    for (const auto& [name, value] : wall_) {
        char number[64];
        std::snprintf(number, sizeof number, "%.6g", value);
        out << (first ? "" : ", ") << hecate::net::Json(name).dump() << ": "
            << number;
        first = false;
    }
    out << "}}";
    return out.str();
}

void
mixShape(Digest& digest, const hecate::runtime::TreeArena& arena)
{
    digest.mix(uint64_t{arena.size()});
    for (hecate::runtime::NodeIdx node = 0; node < arena.size(); ++node)
        digest.mix(uint64_t{arena.classOf(node)});
}

namespace {

/** A "Vm...:  N kB" field of /proc/self/status, in MB. */
double
statusMb(const std::string& field)
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind(field + ":", 0) == 0)
            return std::stod(line.substr(field.size() + 1)) / 1024.0;
    }
    return 0.0;
}

} // namespace

double
peakRssMb()
{
    return statusMb("VmHWM");
}

double
currentRssMb()
{
    return statusMb("VmRSS");
}

} // namespace perfbench
