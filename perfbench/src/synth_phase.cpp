/**
 * @file
 * synth_fresh: what `hecate_cli synth builtin:X` does, for all 8 bundled
 * grammars per pass — parse, analyze and auto-tuned CEGIS from source
 * text, schedule cache off, one verify thread. The only workload where
 * the symbolic encoders, the ILP solver and the synthesizer do the work.
 */

#include <cmath>

#include "bench.hpp"
#include "exec/interp.hpp"
#include "pipeline/pipeline.hpp"
#include "runtime/executor.hpp"

namespace perfbench {

using namespace hecate;

namespace {

constexpr const char* kGrammars[] = {"binarytree", "fmm",      "piecewise",
                                     "ast",        "rendertree", "cssfloat",
                                     "cssmargin",  "cssfull"};
constexpr size_t kGrammarCount = sizeof kGrammars / sizeof kGrammars[0];
constexpr uint32_t kSampleNodes = 300;

/** Per-pass sums of one traced pass's telemetry. */
struct PassTrace {
    double parseMs = 0, analyzeMs = 0, encodeMs = 0, solveMs = 0,
           verifyMs = 0;
    double branchNodes = 0, constraints = 0, constraintTerms = 0,
           sigmaVars = 0, planHits = 0, planMisses = 0;
    double cegisRounds = 0, verifiedTrees = 0, skeletonsTried = 0;
};

/**
 * Run @p pipe's schedule over a seeded sample tree with the bytecode
 * runtime and compare its checksum with the demand-driven reference
 * interpreter's on the same tree.
 */
bool
matchesReference(pipeline::Pipeline& pipe, uint64_t treeSeed,
                 Determinism& det)
{
    const runtime::Program& program = pipe.compileProgram();
    runtime::GenConfig gen;
    gen.targetNodes = kSampleNodes;
    gen.seed = treeSeed;
    runtime::TreeArena arena = runtime::TreeArena::generate(
        pipe.grammar(), pipe.rootInterface(), gen);
    mixShape(det.shapes, arena);
    runtime::execute(program, arena);
    tree::Tree reference = arena.toTree();
    reference.clearOutputs();
    exec::computeReference(reference);
    return runtime::TreeArena::fromTree(reference).checksum() ==
           arena.checksum();
}

class SynthPhase final : public Phase {
  public:
    SynthPhase(uint64_t seed, Determinism& det) : seed_(seed), det_(det) {}

    size_t minSteps() const override { return 2; }

    void step(bool traced, Report& report) override
    {
        PassTrace trace;
        double wallTotal = 0.0;
        SpeedScale speed;
        for (size_t g = 0; g < kGrammarCount; ++g) {
            obs::Telemetry sink;
            pipeline::PipelineOptions options;
            options.config.verifyThreads = 1;
            options.telemetry = traced ? &sink : nullptr;
            const grammars::Benchmark& bench =
                *pipeline::findBuiltin(kGrammars[g]);

            const Stopwatch watch;
            pipeline::Pipeline pipe(bench, "", options);
            const pipeline::SynthArtifact& synth = pipe.synthesize();
            const double cpuMs = watch.cpuMs();
            wallGrammarMs_[g].push_back(watch.wallMs());
            grammarMs_[g].push_back(cpuMs * speed.next());
            wallTotal += wallGrammarMs_[g].back();

            bool ok = synth.ok &&
                      matchesReference(pipe, derive(seed_, 17 + g), det_);
            report.check(ok, std::string("synth_fresh ") + kGrammars[g] +
                                 ": " + (synth.ok ? "checksum mismatch"
                                                  : synth.failure));
            if (!traced)
                continue;
            trace.parseMs += sink.spanSeconds("parse") * 1e3;
            trace.analyzeMs += sink.spanSeconds("analyze") * 1e3;
            trace.encodeMs += sink.spanSeconds("encode") * 1e3;
            trace.solveMs += sink.spanSeconds("solve") * 1e3;
            trace.verifyMs += sink.spanSeconds("verify") * 1e3;
            trace.branchNodes += sink.counter("ilp.branch_nodes");
            trace.constraints += sink.counter("ilp.constraints");
            trace.constraintTerms += sink.counter("ilp.constraint_terms");
            trace.sigmaVars += sink.counter("ilp.sigma_vars");
            trace.planHits += sink.counter("plan_cache.hits");
            trace.planMisses += sink.counter("plan_cache.misses");
            trace.cegisRounds += synth.cegisIterations;
            trace.verifiedTrees += static_cast<double>(synth.verifiedTrees);
            trace.skeletonsTried += synth.skeletonsTried;
        }
        // The ledger sets wall-clock spans against wall-clock passes.
        (traced ? tracedPassMs_ : untracedPassMs_).push_back(wallTotal);
        if (traced)
            traces_.push_back(trace);
    }

    void finish(bool trace, Report& report) override
    {
        if (!trace) {
            double suiteMs = 0.0, wallSuiteMs = 0.0, logSum = 0.0;
            for (size_t g = 0; g < kGrammarCount; ++g) {
                const double ms = median(grammarMs_[g]);
                suiteMs += ms;
                wallSuiteMs += median(wallGrammarMs_[g]);
                logSum += std::log(ms);
            }
            report.set("synth_suite_s", suiteMs / 1e3, "s");
            report.setWall("synth_suite_s", wallSuiteMs / 1e3);
            report.set("synth_geomean_ms",
                       std::exp(logSum / static_cast<double>(kGrammarCount)),
                       "ms");
            return;
        }

        auto med = [&](double PassTrace::*field) {
            std::vector<double> values;
            for (const PassTrace& t : traces_)
                values.push_back(t.*field);
            return median(values);
        };
        // Counts repeat exactly from pass to pass; report the first's.
        const PassTrace& first = traces_.front();
        report.set("symbolic.encode_ms", med(&PassTrace::encodeMs), "ms");
        report.set("solver.solve_ms", med(&PassTrace::solveMs), "ms");
        report.set("synth.verify_ms", med(&PassTrace::verifyMs), "ms");
        report.set("ilp.branch_nodes", first.branchNodes, "count");
        report.set("ilp.constraints", first.constraints, "count");
        report.set("ilp.constraint_terms", first.constraintTerms, "count");
        report.set("ilp.sigma_vars", first.sigmaVars, "count");
        report.set("synth.cegis_rounds", first.cegisRounds, "count");
        report.set("synth.verified_trees", first.verifiedTrees, "count");
        report.set("synth.skeletons_tried", first.skeletonsTried, "count");
        const double lookups = first.planHits + first.planMisses;
        report.set("sched.plan_cache_hit_ratio",
                   lookups > 0 ? first.planHits / lookups : 0.0, "ratio");
        det_.counts["ilp.branch_nodes"] = first.branchNodes;
        det_.counts["synth.cegis_rounds"] = first.cegisRounds;

        Ledger ledger;
        ledger.workload = "synth_fresh";
        ledger.total = "median traced 8-grammar pass";
        ledger.totalMs = median(tracedPassMs_);
        ledger.rows = {{"lang.parse", med(&PassTrace::parseMs)},
                       {"sem.analyze", med(&PassTrace::analyzeMs)},
                       {"symbolic.encode", med(&PassTrace::encodeMs)},
                       {"solver.solve", med(&PassTrace::solveMs)},
                       {"synth.verify", med(&PassTrace::verifyMs)}};
        ledger.tracedMs = ledger.totalMs;
        ledger.untracedMs = median(untracedPassMs_);
        report.ledgers.push_back(ledger);
    }

  private:
    uint64_t seed_;
    Determinism& det_;
    std::vector<std::vector<double>> grammarMs_{kGrammarCount};
    std::vector<std::vector<double>> wallGrammarMs_{kGrammarCount};
    std::vector<double> tracedPassMs_, untracedPassMs_;
    std::vector<PassTrace> traces_;
};

} // namespace

std::unique_ptr<Phase>
makeSynthPhase(uint64_t seed, Determinism& det)
{
    return std::make_unique<SynthPhase>(seed, det);
}

} // namespace perfbench
