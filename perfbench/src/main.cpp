/**
 * @file
 * hecate_perfbench: the layered benchmark's binary.
 *
 *   hecate_perfbench --workload synth_fresh|oneshot_1m|serve_mix
 *                    --seed N --seconds S --trace 0|1
 *                    [--revision REV] [--source-digest HEX]
 *
 * Prints a stamp line (build, compiler, host), a determinism line, the
 * stage ledgers (traced runs) or the wall-clock counterparts of the
 * CPU-timed metrics (untraced runs), and as its last line the result object
 * {"correct", "attempted", "failed", "metrics"}. Exits 1 when any
 * operation failed or mismatched its reference, 2 on a usage error.
 * perfbench/run.py builds this binary from source and runs it.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include <sched.h>
#include <unistd.h>

#include "bench.hpp"
#include "support/diagnostics.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif

namespace perfbench {
namespace {

struct Args {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string revision = "unknown";
    std::string sourceDigest = "unknown";
};

[[noreturn]] void
usage(const std::string& why)
{
    std::cerr << "hecate_perfbench: " << why << "\n"
              << "usage: hecate_perfbench --workload "
                 "synth_fresh|oneshot_1m|serve_mix --seed N --seconds S "
                 "--trace 0|1 [--revision REV] [--source-digest HEX]\n";
    std::exit(2);
}

Args
parseArgs(int argc, char** argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        std::string value = argv[++i];
        try {
            if (flag == "--workload")
                args.workload = value;
            else if (flag == "--seed")
                args.seed = std::stoull(value);
            else if (flag == "--seconds")
                args.seconds = std::stod(value);
            else if (flag == "--trace")
                args.trace = std::stoi(value) != 0;
            else if (flag == "--revision")
                args.revision = value;
            else if (flag == "--source-digest")
                args.sourceDigest = value;
            else
                usage("unknown flag " + flag);
        } catch (const std::logic_error&) {
            usage("bad value for " + flag + ": " + value);
        }
    }
    if (args.workload != "synth_fresh" && args.workload != "oneshot_1m" &&
        args.workload != "serve_mix")
        usage("unknown workload '" + args.workload + "'");
    if (!(args.seconds > 0.0))
        usage("--seconds must be positive");
    return args;
}

std::string
readFirstLine(const std::string& path)
{
    std::ifstream in(path);
    std::string line;
    if (in)
        std::getline(in, line);
    return line;
}

/** The cgroup CPU quota as "quota/period" (v2 or v1), or "none". */
std::string
cgroupQuota()
{
    std::string v2 = readFirstLine("/sys/fs/cgroup/cpu.max");
    if (!v2.empty())
        return v2;
    std::string quota = readFirstLine("/sys/fs/cgroup/cpu/cpu.cfs_quota_us");
    std::string period =
        readFirstLine("/sys/fs/cgroup/cpu/cpu.cfs_period_us");
    if (!quota.empty())
        return quota + " " + period;
    return "none";
}

/** Wall seconds for @p threads threads to each spin a fixed work unit. */
double
spinSeconds(unsigned threads)
{
    std::atomic<uint64_t> sink{0};
    auto work = [&sink] {
        uint64_t x = 1;
        for (uint64_t i = 0; i < 60'000'000ull; ++i)
            x = x * 6364136223846793005ull + 1442695040888963407ull;
        sink += x;
    };
    Clock::time_point start = Clock::now();
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t)
        pool.emplace_back(work);
    for (std::thread& t : pool)
        t.join();
    return msSince(start) / 1e3;
}

std::string
jsonString(const std::string& text)
{
    return hecate::net::Json(text).dump();
}

/** Build type, flags, compiler, revision and host, as one JSON line. */
std::string
stampJson(const Args& args)
{
    const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
    const double one = spinSeconds(1);
    const double all = spinSeconds(nproc);
    const double effective = all > 0.0 ? nproc * one / all : 0.0;
    const std::string buildType = PERFBENCH_BUILD_TYPE;
    std::ostringstream out;
    out << "{\"stamp\": {\"build_type\": " << jsonString(buildType)
        << ", \"release\": " << (buildType == "Release" ? "true" : "false")
        << ", \"cxx_flags\": " << jsonString(PERFBENCH_CXX_FLAGS)
        << ", \"compiler\": " << jsonString(__VERSION__)
        << ", \"revision\": " << jsonString(args.revision)
        << ", \"source_digest\": " << jsonString(args.sourceDigest)
        << ", \"nproc\": " << nproc
        << ", \"cgroup_cpu_quota\": " << jsonString(cgroupQuota())
        << ", \"effective_cpus\": " << effective
        << ", \"workload\": " << jsonString(args.workload)
        << ", \"seed\": " << args.seed << ", \"seconds\": " << args.seconds
        << ", \"trace\": " << (args.trace ? 1 : 0) << "}}";
    if (buildType != "Release")
        std::cerr << "perfbench: WARNING: not a Release build ("
                  << buildType << "); numbers are not comparable\n";
    return out.str();
}

void
printLedger(const Ledger& ledger)
{
    std::printf("# ledger %s: total %.4f ms (%s)\n", ledger.workload.c_str(),
                ledger.totalMs, ledger.total.c_str());
    for (const LedgerRow& row : ledger.rows)
        std::printf("#   %-22s %10.4f ms\n", row.stage.c_str(), row.ms);
    std::printf("#   %-22s %10.4f ms\n", "unattributed",
                ledger.unattributedMs());
    if (ledger.untracedMs > 0.0)
        std::printf("#   trace overhead %.2f%% (traced %.4f ms vs untraced "
                    "%.4f ms)\n",
                    ledger.overheadPct(), ledger.tracedMs,
                    ledger.untracedMs);
}

/**
 * Pin this process, and every thread it starts later, to the CPU it is
 * running on. The benchmark keeps one core busy at a time, and the host
 * delivers about one. Spread over several virtual CPUs, each hand-off
 * between the client and the in-process server's threads is a
 * cross-CPU wakeup whose cost swings with the host's load.
 */
void
pinToOneCpu()
{
    const int cpu = sched_getcpu();
    if (cpu < 0)
        return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    if (sched_setaffinity(0, sizeof set, &set) != 0)
        std::cerr << "perfbench: could not pin to CPU " << cpu << "\n";
}

int
run(const Args& args)
{
    // The stamp's effective-CPU measurement needs every CPU: take it
    // before pinning.
    const std::string stamp = stampJson(args);
    pinToOneCpu();

    Report report;
    Determinism det;
    ServeInputs inputs = makeServeInputs(args.seed, det);

    // Program setup, three times over; setup_s is the median. Each
    // earlier setup's server is stopped before the next one starts.
    std::vector<double> setupSeconds, setupWallSeconds;
    OneshotSetup oneshot;
    ServeSetup serve;
    SpeedScale speed;
    for (int i = 0; i < 3; ++i) {
        teardownServe(serve);
        oneshot = OneshotSetup{};
        const Stopwatch watch;
        oneshot = setupOneshot();
        serve = setupServe(inputs);
        const double cpuMs = watch.cpuMs();
        setupWallSeconds.push_back(watch.wallMs() / 1e3);
        setupSeconds.push_back(cpuMs * speed.next() / 1e3);
    }

    // The three phases, interleaved over the run: the workload's own
    // phase gets 40% of the time and the other two 30% each. Each step
    // goes to the phase furthest below its share.
    const char* names[] = {"synth_fresh", "oneshot_1m", "serve_mix"};
    std::unique_ptr<Phase> phases[] = {
        makeSynthPhase(args.seed, det),
        makeOneshotPhase(oneshot, args.seed, det),
        makeServePhase(serve, inputs, det)};
    double share[3], spentMs[3] = {0, 0, 0};
    size_t steps[3] = {0, 0, 0};
    for (int i = 0; i < 3; ++i)
        share[i] = args.workload == names[i] ? 0.4 : 0.3;
    const Clock::time_point start = Clock::now();
    for (;;) {
        const bool overtime = msSince(start) >= args.seconds * 1e3;
        int next = -1;
        for (int i = 0; i < 3; ++i) {
            if (overtime && steps[i] >= phases[i]->minSteps())
                continue;
            if (next < 0 || spentMs[i] / share[i] < spentMs[next] / share[next])
                next = i;
        }
        if (next < 0)
            break;
        // A traced run alternates the workload's own phase between
        // telemetry on and off, to measure the cost of tracing.
        const bool own = args.workload == names[next];
        const bool traced = args.trace && (!own || steps[next] % 2 == 0);
        const Clock::time_point t0 = Clock::now();
        phases[next]->step(traced, report);
        spentMs[next] += msSince(t0);
        ++steps[next];
    }
    for (auto& phase : phases)
        phase->finish(args.trace, report);
    const double peakMb = peakRssMb();
    teardownServe(serve);

    for (auto& check : report.deferred)
        check(report);
    oneshot = OneshotSetup{};

    if (!args.trace) {
        report.set("setup_s", median(setupSeconds), "s");
        report.setWall("setup_s", median(setupWallSeconds));
        report.set("peak_rss_mb", peakMb, "MB");
    } else {
        for (const Ledger& ledger : report.ledgers) {
            report.set("unattributed_ms." + ledger.workload,
                       ledger.unattributedMs(), "ms");
            if (ledger.workload == args.workload)
                report.set("obs.trace_overhead_pct", ledger.overheadPct(),
                           "%");
        }
    }

    std::printf("%s\n", stamp.c_str());
    std::ostringstream detLine;
    detLine << "{\"determinism\": {\"ops\": \"" << std::hex << det.ops.value
            << "\", \"shapes\": \"" << det.shapes.value << std::dec
            << "\", \"counts\": {";
    bool first = true;
    for (const auto& [name, value] : det.counts) {
        detLine << (first ? "" : ", ") << jsonString(name) << ": "
                << hecate::net::Json(value).dump();
        first = false;
    }
    detLine << "}}}";
    std::printf("%s\n", detLine.str().c_str());
    for (const Ledger& ledger : report.ledgers)
        printLedger(ledger);
    if (!args.trace)
        std::printf("%s\n", report.wallJson().c_str());
    std::printf("%s\n", report.resultJson().c_str());
    std::fflush(stdout);
    return report.failed() == 0 ? 0 : 1;
}

} // namespace
} // namespace perfbench

int
main(int argc, char** argv)
{
    perfbench::Args args = perfbench::parseArgs(argc, argv);
    try {
        return perfbench::run(args);
    } catch (const std::exception& error) {
        std::cerr << "hecate_perfbench: " << error.what() << "\n";
        return 3;
    }
}
