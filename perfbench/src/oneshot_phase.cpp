/**
 * @file
 * oneshot_1m: the first execution, as a one-shot `hecate_cli run` sees
 * it. Each repetition builds a fresh Pipeline from source text (backed
 * by a schedule cache filled during setup), generates a fresh 1M-node
 * arena, executes it with SweepStrategy::Auto on the bytecode tier and
 * takes the checksum. Tree build, layout and execute dominate; the
 * front end is well under a millisecond.
 */

#include "bench.hpp"
#include "exec/interp.hpp"
#include "pipeline/pipeline.hpp"
#include "runtime/executor.hpp"
#include "support/diagnostics.hpp"

namespace perfbench {

using namespace hecate;

namespace {

constexpr const char* kGrammars[] = {"rendertree", "ast"};
constexpr uint32_t kTreeNodes = 1'000'000;

pipeline::PipelineOptions
options(service::ScheduleCache* cache, obs::Telemetry* telemetry)
{
    pipeline::PipelineOptions options;
    options.config.verifyThreads = 1;
    options.cache = cache;
    options.telemetry = telemetry;
    return options;
}

/** Stage times of one repetition (one grammar), in ms. */
struct RepTimes {
    double parse = 0, analyze = 0, lookup = 0, plan = 0, compile = 0,
           generate = 0, execute = 0, checksum = 0, total = 0;
    double warm = 0;
    runtime::RuntimeStats stats;
    uint64_t nodes = 0;
};

/**
 * The reference checksum of @p grammar's seeded tree: the schedule
 * interpreter (exec::execute) over the same generated instance.
 */
uint64_t
referenceChecksum(service::ScheduleCache& cache, const char* grammar,
                  uint64_t treeSeed)
{
    pipeline::Pipeline pipe(*pipeline::findBuiltin(grammar), "",
                            options(&cache, nullptr));
    const pipeline::SynthArtifact& synth = pipe.synthesize();
    if (!synth.ok)
        userError("oneshot reference: " + synth.failure);
    runtime::GenConfig gen;
    gen.targetNodes = kTreeNodes;
    gen.seed = treeSeed;
    tree::Tree tree =
        runtime::TreeArena::generate(pipe.grammar(), pipe.rootInterface(),
                                     gen)
            .toTree();
    tree.clearOutputs();
    exec::execute(pipe.skeleton(), *synth.schedule, tree);
    return runtime::TreeArena::fromTree(tree).checksum();
}

} // namespace

OneshotSetup
setupOneshot()
{
    OneshotSetup setup;
    setup.cache = std::make_unique<service::ScheduleCache>(16, 1);
    for (const char* grammar : kGrammars) {
        pipeline::Pipeline pipe(*pipeline::findBuiltin(grammar), "",
                                options(setup.cache.get(), nullptr));
        const pipeline::SynthArtifact& synth = pipe.synthesize();
        if (!synth.ok)
            userError(std::string("oneshot setup: ") + grammar + ": " +
                      synth.failure);
    }
    return setup;
}

namespace {

constexpr size_t kGrammarCount = sizeof kGrammars / sizeof kGrammars[0];

class OneshotPhase final : public Phase {
  public:
    OneshotPhase(OneshotSetup& setup, uint64_t seed, Determinism& det)
        : setup_(setup), det_(det)
    {
        for (size_t g = 0; g < kGrammarCount; ++g)
            treeSeeds_.push_back(derive(seed, 1000 + g));
    }

    size_t minSteps() const override { return 3; }

    void step(bool traced, Report& report) override
    {
        double repTotal = 0.0;
        SpeedScale speed;
        for (size_t g = 0; g < kGrammarCount; ++g) {
            obs::Telemetry sink;
            obs::Telemetry* telemetry = traced ? &sink : nullptr;
            RepTimes t;

            const Stopwatch watch;
            Clock::time_point mark = watch.wallStart;
            auto lap = [&mark] {
                const double ms = msSince(mark);
                mark = Clock::now();
                return ms;
            };
            pipeline::Pipeline pipe(*pipeline::findBuiltin(kGrammars[g]), "",
                                    options(setup_.cache.get(), telemetry));
            pipe.parse();
            t.parse = lap();
            pipe.analyze();
            t.analyze = lap();
            const bool hit = pipe.synthesizeFromCache() != nullptr;
            t.lookup = lap();
            if (!hit) {
                report.check(false, std::string("oneshot ") + kGrammars[g] +
                                        ": schedule cache miss");
                continue;
            }
            pipe.plan();
            t.plan = lap();
            const runtime::Program& program = pipe.compileProgram();
            t.compile = lap();
            runtime::GenConfig gen;
            gen.targetNodes = kTreeNodes;
            gen.seed = treeSeeds_[g];
            runtime::TreeArena arena = runtime::TreeArena::generate(
                pipe.grammar(), pipe.rootInterface(), gen);
            t.generate = lap();
            runtime::ExecOptions exec;
            exec.strategy = runtime::SweepStrategy::Auto;
            exec.telemetry = telemetry;
            t.stats = runtime::execute(program, arena, exec);
            t.execute = lap();
            checksums_[g].push_back(arena.checksum());
            t.checksum = lap();
            const double cpuMs = watch.cpuMs();
            t.total = watch.wallMs();
            t.nodes = arena.size();
            runMs_[g].push_back(cpuMs * speed.next());
            wallRunMs_[g].push_back(t.total);
            repTotal += t.total;

            if (checksums_[g].size() == 1) {
                mixShape(det_.shapes, arena);
                det_.counts[std::string("runtime.segment_kernels.") +
                            kGrammars[g]] =
                    static_cast<double>(t.stats.segmentKernels);
            }
            if (traced) {
                // A second execute on the same arena: its segments and
                // tiles are cached, so cold - warm is the layout cost.
                const Clock::time_point w0 = Clock::now();
                runtime::execute(program, arena, exec);
                t.warm = msSince(w0);
                traced_[g].push_back(t);
            }
        }
        (traced ? tracedTotals_ : untracedTotals_).push_back(repTotal);
    }

    void finish(bool trace, Report& report) override
    {
        for (size_t g = 0; g < kGrammarCount; ++g) {
            report.deferred.push_back([this, g](Report& r) {
                const uint64_t expected = referenceChecksum(
                    *setup_.cache, kGrammars[g], treeSeeds_[g]);
                for (uint64_t sum : checksums_[g])
                    r.check(sum == expected,
                            std::string("oneshot ") + kGrammars[g] +
                                ": checksum differs from exec::execute");
            });
        }

        if (!trace) {
            for (size_t g = 0; g < kGrammarCount; ++g) {
                const std::string name = std::string("run_ms.") + kGrammars[g];
                report.set(name, median(runMs_[g]), "ms");
                report.setWall(name, median(wallRunMs_[g]));
            }
            return;
        }

        // Per-layer figures sum both grammars per repetition.
        const size_t reps = traced_[0].size();
        auto perRep = [&](double RepTimes::*field) {
            std::vector<double> values;
            for (size_t i = 0; i < reps; ++i) {
                double sum = 0.0;
                for (size_t g = 0; g < kGrammarCount; ++g)
                    sum += traced_[g][i].*field;
                values.push_back(sum);
            }
            return median(values);
        };
        auto firstCount = [&](uint64_t runtime::RuntimeStats::*field) {
            double sum = 0.0;
            for (size_t g = 0; g < kGrammarCount; ++g)
                sum += static_cast<double>(traced_[g][0].stats.*field);
            return sum;
        };
        double nodes = 0.0;
        for (size_t g = 0; g < kGrammarCount; ++g)
            nodes += static_cast<double>(traced_[g][0].nodes);
        const double coldMs = perRep(&RepTimes::execute);
        const double warmMs = perRep(&RepTimes::warm);
        report.set("runtime.compile_ms", perRep(&RepTimes::compile), "ms");
        report.set("runtime.generate_ms", perRep(&RepTimes::generate), "ms");
        report.set("runtime.execute_cold_ms", coldMs, "ms");
        report.set("runtime.execute_warm_ms", warmMs, "ms");
        report.set("runtime.layout_ms", coldMs - warmMs, "ms");
        report.set("runtime.nodes_per_s", nodes / (coldMs / 1e3), "1/s");
        report.set("runtime.tiles",
                   firstCount(&runtime::RuntimeStats::tilesExecuted), "count");
        report.set("runtime.segment_kernels",
                   firstCount(&runtime::RuntimeStats::segmentKernels),
                   "count");
        report.set("runtime.strips",
                   firstCount(&runtime::RuntimeStats::stripsRun), "count");
        report.set("runtime.fallback_nodes",
                   firstCount(&runtime::RuntimeStats::fallbackNodes),
                   "count");

        Ledger ledger;
        ledger.workload = "oneshot_1m";
        ledger.total = "median traced repetition, RenderTree + AST, "
                       "Pipeline construction to checksum";
        ledger.totalMs = perRep(&RepTimes::total);
        ledger.rows = {{"lang.parse", perRep(&RepTimes::parse)},
                       {"sem.analyze", perRep(&RepTimes::analyze)},
                       {"service.cache_lookup", perRep(&RepTimes::lookup)},
                       {"sched.plan", perRep(&RepTimes::plan)},
                       {"runtime.compile", perRep(&RepTimes::compile)},
                       {"runtime.generate", perRep(&RepTimes::generate)},
                       {"runtime.execute", coldMs},
                       {"runtime.checksum", perRep(&RepTimes::checksum)}};
        ledger.tracedMs = median(tracedTotals_);
        ledger.untracedMs = median(untracedTotals_);
        report.ledgers.push_back(ledger);
    }

  private:
    OneshotSetup& setup_;
    Determinism& det_;
    std::vector<uint64_t> treeSeeds_;
    std::vector<std::vector<double>> runMs_{kGrammarCount};
    std::vector<std::vector<double>> wallRunMs_{kGrammarCount};
    std::vector<std::vector<uint64_t>> checksums_{kGrammarCount};
    std::vector<std::vector<RepTimes>> traced_{kGrammarCount};
    std::vector<double> tracedTotals_, untracedTotals_;
};

} // namespace

std::unique_ptr<Phase>
makeOneshotPhase(OneshotSetup& setup, uint64_t seed, Determinism& det)
{
    return std::make_unique<OneshotPhase>(setup, seed, det);
}

} // namespace perfbench
