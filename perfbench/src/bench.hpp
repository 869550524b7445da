#pragma once

/**
 * @file
 * Shared pieces of the layered benchmark: run arguments, sample
 * statistics, the result report, and the three phases.
 *
 * Every run executes all three phases so that it can report every
 * end-to-end metric; the workload decides which phase gets most of the
 * run's time (see main.cpp).
 */

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/json.hpp"
#include "net/server.hpp"
#include "runtime/arena.hpp"
#include "service/schedule_cache.hpp"
#include "support/rng.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

/** CPU time of every thread of this process so far, in ms. */
double processCpuMs();

/**
 * A timed region, on two clocks: wall time and the process's CPU time.
 * CPU time leaves out the time the host gives to other tenants, which
 * wall time does not; on an idle host the two agree for the benchmark's
 * single-threaded work.
 */
struct Stopwatch {
    Clock::time_point wallStart = Clock::now();
    double cpuStart = processCpuMs();

    double wallMs() const { return msSince(wallStart); }
    double cpuMs() const { return processCpuMs() - cpuStart; }
};

/**
 * CPU ms of the speed probe: a fixed run of ordered-map inserts and
 * lookups, the node-allocating, pointer-chasing kind of work the
 * program does. It is benchmark code, so it is the same on every
 * commit.
 */
double probeMs();

/** What the probe takes on this host type when no tenant competes. */
constexpr double kProbeRefMs = 2.7;

/**
 * Scales CPU times to one reference host speed. A shared host's speed
 * swings by up to 2x over seconds, with the load of other tenants on
 * shared cores and caches; CPU time slows with it. The probe slows in
 * step, so a unit of work's CPU time times kProbeRefMs over the probe's
 * time around it is steady. Every end-to-end time is scaled this way;
 * the raw wall-clock figures are printed beside the result.
 *
 * Construct before the first unit; call next() after each unit.
 */
class SpeedScale {
  public:
    SpeedScale() : last_(probeMs()) {}

    /** Probe again; the factor for the unit since the last probe. */
    double next()
    {
        const double now = probeMs();
        const double factor = kProbeRefMs / ((last_ + now) / 2.0);
        last_ = now;
        return factor;
    }

  private:
    double last_;
};

/** Quantile @p q of @p values by linear interpolation; 0 when empty. */
double quantile(std::vector<double> values, double q);

inline double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

/** A deterministic 64-bit seed derived from (@p seed, @p salt). */
inline uint64_t
derive(uint64_t seed, uint64_t salt)
{
    return hecate::splitmix64(seed * 0x9e3779b97f4a7c15ull + salt);
}

class Report;

/**
 * One phase of a run: a unit of work repeated by the scheduler in
 * main.cpp, then turned into metrics. The scheduler interleaves the
 * three phases' steps over the whole run, giving the workload's own
 * phase the largest share of time, so that every metric samples the
 * same stretch of host noise.
 */
class Phase {
  public:
    virtual ~Phase() = default;

    /** Steps the scheduler runs at least, even past the deadline. */
    virtual size_t minSteps() const = 0;

    /** Run one unit of work (a pass, a repetition, a burst). */
    virtual void step(bool traced, Report& report) = 0;

    /** Record this phase's metrics (per-layer ones when tracing). */
    virtual void finish(bool trace, Report& report) = 0;
};

/** One stage of a workload's ledger: median self time per operation. */
struct LedgerRow {
    std::string stage;
    double ms = 0.0;
};

/** Where one workload's time went, as the traced run measures it. */
struct Ledger {
    std::string workload;
    std::string total;       ///< what the total measures
    double totalMs = 0.0;
    std::vector<LedgerRow> rows;
    double tracedMs = 0.0;   ///< one operation with telemetry on...
    double untracedMs = 0.0; ///< ...and with telemetry off (0 = unmeasured)

    double attributedMs() const;
    double unattributedMs() const { return totalMs - attributedMs(); }
    double overheadPct() const;
};

/** Metrics, correctness tallies and ledgers of one run. */
class Report {
  public:
    void set(const std::string& name, double value, const std::string& unit)
    {
        metrics_[name] = {value, unit};
    }

    /** The wall-clock counterpart of CPU-timed metric @p name. */
    void setWall(const std::string& name, double value)
    {
        wall_[name] = value;
    }

    /** The wall-clock counterparts, as one JSON line. */
    std::string wallJson() const;

    /** Count one checked operation; @p ok false counts a failure. */
    void check(bool ok, const std::string& what);

    uint64_t attempted() const { return attempted_; }
    uint64_t failed() const { return failed_; }

    /** The final result line: correct, attempted, failed, metrics. */
    std::string resultJson() const;

    std::vector<Ledger> ledgers;
    /**
     * Reference checks a phase defers until every phase has run, so
     * that the benchmark's own reference computation stays out of the
     * timed regions and out of the program's peak memory.
     */
    std::vector<std::function<void(Report&)>> deferred;

  private:
    struct Value {
        double value;
        std::string unit;
    };
    std::map<std::string, Value> metrics_;
    std::map<std::string, double> wall_;
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
};

/** Order-sensitive FNV-1a digest, for the determinism self-test. */
struct Digest {
    uint64_t value = 0xcbf29ce484222325ull;

    void mix(uint64_t word)
    {
        for (int i = 0; i < 8; ++i) {
            value ^= (word >> (8 * i)) & 0xffu;
            value *= 0x100000001b3ull;
        }
    }
};

/** What the determinism self-test compares across runs. */
struct Determinism {
    Digest ops;    ///< the generated operation stream (fixed prefix)
    Digest shapes; ///< every generated tree's size and class sequence
    std::map<std::string, double> counts; ///< exact per-op counters
};

/** Mix @p arena's size and class sequence into @p digest. */
void mixShape(Digest& digest, const hecate::runtime::TreeArena& arena);

/** Peak resident set of this process in MB (VmHWM). */
double peakRssMb();

/** Current resident set of this process in MB (VmRSS). */
double currentRssMb();

// --- synth_fresh ---------------------------------------------------------

/** Fresh synthesis passes over the 8 bundled grammars, cache off. */
std::unique_ptr<Phase> makeSynthPhase(uint64_t seed, Determinism& det);

// --- oneshot_1m ----------------------------------------------------------

/** Program state the oneshot phase sets up: a filled schedule cache. */
struct OneshotSetup {
    std::unique_ptr<hecate::service::ScheduleCache> cache;
};
OneshotSetup setupOneshot();

/** Fresh Pipeline -> 1M-node arena -> execute -> checksum, per grammar. */
std::unique_ptr<Phase> makeOneshotPhase(OneshotSetup& setup, uint64_t seed,
                                        Determinism& det);

// --- serve_mix -----------------------------------------------------------

/** One grammar of the serve zoo: a salted, possibly renamed RenderTree. */
struct ZooEntry {
    std::string source;
    std::string root;
};

/** Inputs of the serve phase, generated outside setup time. */
struct ServeInputs {
    uint64_t seed = 1;
    std::vector<ZooEntry> zoo;
    std::vector<hecate::net::Json> trees; ///< client-supplied ~500-node trees
    std::vector<uint64_t> runSeeds;       ///< generated-tree seed pool
    uint64_t sessionSeed = 1;
};
ServeInputs makeServeInputs(uint64_t seed, Determinism& det);

/** Program state the serve phase sets up: a warm server, a pinned session. */
struct ServeSetup {
    std::unique_ptr<hecate::net::Server> server;
    std::vector<std::string> zooKeys; ///< expected key digest per zoo entry
};
ServeSetup setupServe(const ServeInputs& inputs);

/** Stop a server set up by setupServe and wait for its threads. */
void teardownServe(ServeSetup& setup);

/** Bursts of the closed-loop mix over one loopback TCP connection. */
std::unique_ptr<Phase> makeServePhase(ServeSetup& setup,
                                      const ServeInputs& inputs,
                                      Determinism& det);

} // namespace perfbench
