/**
 * @file
 * serve_mix: an in-process net::Server (2 request workers, 1 exec
 * thread each, sessions on) driven over loopback TCP by one closed-loop
 * connection with one request outstanding. The mix:
 *
 *   35%  cache-hit `synth` over a zoo of 8 salted RenderTree grammars
 *        x 3 isomorphic renames, warmed during setup;
 *   25%  `run` on a seeded generated 2,000-node tree;
 *   10%  `run` on a client-supplied ~500-node `tree`;
 *   20%  heals: an `edit` (a few input mutations, now and then a small
 *        subtree replacement) then a `reexec`, on a pinned 100k-node
 *        session;
 *   10%  `ping`.
 *
 * Front end, cache, wire and incremental costs dominate; the runtime
 * does little work. Heals write the arena layer that the runs read.
 *
 * A request's time is the process's CPU time from send to answer: the
 * client's encode and decode plus every server thread's work on it.
 * With one request in flight nothing else in the process is busy, and
 * the time the host gives to other tenants does not count.
 *
 * The traced run adds a ledger: the run requests of a fixed stream go
 * to a fresh server one at a time (so its run histogram holds only
 * them), then the same requests are replayed in process through the
 * public calls Server::executeRun makes, each one timed.
 */

#include <algorithm>
#include <cctype>
#include <map>
#include <optional>
#include <tuple>

#include "bench.hpp"
#include "exec/interp.hpp"
#include "grammars/grammars.hpp"
#include "incr/edit.hpp"
#include "lang/parser.hpp"
#include "net/client.hpp"
#include "pipeline/pipeline.hpp"
#include "runtime/executor.hpp"
#include "service/synth_service.hpp"
#include "support/diagnostics.hpp"

namespace perfbench {

using namespace hecate;
using net::Json;
using net::JsonArray;
using net::JsonObject;

namespace {

constexpr uint32_t kSalts = 8;
constexpr uint32_t kRenames = 3;
constexpr uint32_t kTrees = 8;          ///< client-supplied tree pool
constexpr uint32_t kTreeNodes = 500;
constexpr uint32_t kTreeDepth = 12;     ///< keeps tree JSON under the nesting cap
constexpr uint32_t kRunSeeds = 16;      ///< generated-tree seed pool
constexpr uint32_t kRunNodes = 2000;
constexpr uint32_t kSessionNodes = 100'000;
constexpr double kRepinGrowth = 1.25;
constexpr uint32_t kRunCheckEvery = 128; ///< 1-in-N runs carry "check"
constexpr size_t kBurstOps = 200;        ///< per step
constexpr size_t kChunkOps = 40;         ///< per speed-probe interval
constexpr const char* kClientId = "c0";  ///< owner of the pinned session
constexpr uint64_t kStreamSalt = 300;    ///< the op stream's seed salt
constexpr size_t kPrefixOps = 512;       ///< stream prefix the digest covers
constexpr size_t kRssWarmupOps = 400;    ///< traced runs
constexpr size_t kRssWindowOps = 4000;   ///< traced runs
constexpr size_t kLedgerRuns = 150;
constexpr size_t kLedgerHeals = 200;
constexpr size_t kFullExecuteReps = 5;

enum class OpKind : uint8_t { Synth, RunGen, RunTree, Heal, Ping };

/** One generated operation of a connection's stream. */
struct Op {
    OpKind kind = OpKind::Ping;
    uint32_t zoo = 0;   ///< Synth / Run*: zoo entry
    uint32_t index = 0; ///< RunGen: seed pool slot; RunTree: tree slot
    bool check = false; ///< RunGen: sampled differential check
    uint64_t editSeed = 0;
};

/** A connection's deterministic operation stream. */
class OpStream {
  public:
    explicit OpStream(uint64_t seed) : rng_(seed) {}

    Op next()
    {
        Op op;
        const uint64_t roll = rng_.below(100);
        if (roll < 35) {
            op.kind = OpKind::Synth;
            op.zoo = static_cast<uint32_t>(rng_.below(kSalts * kRenames));
        } else if (roll < 60) {
            op.kind = OpKind::RunGen;
            op.zoo = static_cast<uint32_t>(rng_.below(kSalts * kRenames));
            op.index = static_cast<uint32_t>(rng_.below(kRunSeeds));
            op.check = ++runs_ % kRunCheckEvery == 0;
        } else if (roll < 70) {
            op.kind = OpKind::RunTree;
            // Client-supplied trees use the base names (rename 0).
            op.zoo = static_cast<uint32_t>(rng_.below(kSalts)) * kRenames;
            op.index = static_cast<uint32_t>(rng_.below(kTrees));
        } else if (roll < 90) {
            op.kind = OpKind::Heal;
            op.editSeed = rng_.next();
        }
        return op;
    }

  private:
    Rng rng_;
    uint64_t runs_ = 0;
};

void
mixOp(Digest& digest, const Op& op)
{
    digest.mix(uint64_t{static_cast<uint8_t>(op.kind)});
    digest.mix(uint64_t{op.zoo} << 32 | op.index);
    digest.mix(op.editSeed + (op.check ? 1 : 0));
}

/** Rename the RenderTree class and interface names (an isomorphism). */
std::string
renamed(const std::string& source, uint32_t rename)
{
    static const char* names[] = {"Box",   "Doc",  "Horiz", "Vert",
                                  "Text",  "Image", "List", "Document"};
    if (rename == 0)
        return source;
    std::string out;
    size_t i = 0;
    while (i < source.size()) {
        if (std::isalpha(static_cast<unsigned char>(source[i])) ||
            source[i] == '_') {
            size_t j = i;
            while (j < source.size() &&
                   (std::isalnum(static_cast<unsigned char>(source[j])) ||
                    source[j] == '_'))
                ++j;
            std::string word = source.substr(i, j - i);
            out += word;
            for (const char* name : names)
                if (word == name)
                    out += "R" + std::to_string(rename);
            i = j;
        } else {
            out += source[i++];
        }
    }
    return out;
}

/** RenderTree with one rule constant changed: a distinct problem. */
std::string
salted(uint32_t salt)
{
    std::string source = grammars::renderTree().source;
    const std::string rule = "fc.ax := self.ax + 1;";
    size_t at = source.find(rule);
    checkInvariant(at != std::string::npos, "RenderTree salt rule");
    source.replace(at, rule.size(),
                   "fc.ax := self.ax + " + std::to_string(1 + salt) + ";");
    return source;
}

sem::Grammar
analyzeSource(const std::string& source)
{
    return sem::Grammar::analyze(lang::parseGrammar(source));
}

/** Encode tree node @p id in the serve protocol's tree schema. */
Json
encodeNode(const tree::Tree& tree, tree::NodeId id)
{
    const sem::Grammar& grammar = tree.grammar();
    const tree::Node& node = tree.node(id);
    const sem::ClassInfo& cls = grammar.cls(node.cls);
    const sem::InterfaceInfo& iface = grammar.iface(cls.iface);
    JsonObject inputs;
    for (sem::AttrId attr = 0; attr < iface.attrs.size(); ++attr)
        if (iface.isInput(attr))
            inputs.emplace(iface.attrs[attr].name, Json(node.values[attr]));
    JsonObject children;
    for (const sem::ChildInfo& child : cls.children) {
        const tree::ChildSlot& slot = node.children[child.id];
        if (child.collection) {
            JsonArray elems;
            for (tree::NodeId elem : slot.elems)
                elems.push_back(encodeNode(tree, elem));
            children.emplace(child.name, Json(std::move(elems)));
        } else {
            children.emplace(child.name, slot.node == tree::kNoNode
                                             ? Json(nullptr)
                                             : encodeNode(tree, slot.node));
        }
    }
    JsonObject out;
    out.emplace("class", Json(cls.name));
    out.emplace("inputs", Json(std::move(inputs)));
    out.emplace("children", Json(std::move(children)));
    return Json(std::move(out));
}

/** Decode the serve protocol's tree schema (the replay's tree build). */
tree::NodeId
decodeNode(const sem::Grammar& grammar, tree::Tree& tree, const Json& spec)
{
    const sem::ClassId clsId = grammar.findClass(spec.at("class").asString());
    const sem::ClassInfo& cls = grammar.cls(clsId);
    const sem::InterfaceInfo& iface = grammar.iface(cls.iface);
    const tree::NodeId node = tree.addNode(clsId);
    for (const auto& [name, value] : spec.at("inputs").asObject())
        tree.setInput(node, iface.attrByName.at(name), value.asInt());
    for (const auto& [name, child] : spec.at("children").asObject()) {
        const sem::ChildInfo& info = cls.children[cls.childByName.at(name)];
        if (info.collection) {
            for (const Json& elem : child.asArray())
                tree.addElement(node, info.id,
                                decodeNode(grammar, tree, elem));
        } else if (!child.isNull()) {
            tree.setScalar(node, info.id, decodeNode(grammar, tree, child));
        }
    }
    return node;
}

runtime::GenConfig
treeConfig(uint32_t nodes, uint64_t seed, uint32_t maxDepth = 0)
{
    runtime::GenConfig gen;
    gen.targetNodes = nodes;
    gen.maxDepth = maxDepth;
    gen.seed = seed;
    return gen;
}

uint64_t
treeSeed(const ServeInputs& inputs, uint32_t index)
{
    return derive(inputs.seed, 5000 + index);
}

/** Demand-driven reference checksum of @p arena's instance. */
uint64_t
referenceChecksum(const runtime::TreeArena& arena)
{
    tree::Tree reference = arena.toTree();
    reference.clearOutputs();
    exec::computeReference(reference);
    return runtime::TreeArena::fromTree(reference).checksum();
}

/** The synth fields every work request for zoo entry @p z carries. */
JsonObject
grammarFields(const ServeInputs& inputs, uint32_t z)
{
    JsonObject request;
    request.emplace("grammar", Json(inputs.zoo[z].source));
    request.emplace("root", Json(inputs.zoo[z].root));
    return request;
}

Json
synthRequest(const ServeInputs& inputs, uint32_t z)
{
    JsonObject request = grammarFields(inputs, z);
    request.emplace("op", Json("synth"));
    return Json(std::move(request));
}

Json
runRequest(const ServeInputs& inputs, const Op& op)
{
    JsonObject request = grammarFields(inputs, op.zoo);
    request.emplace("op", Json("run"));
    if (op.kind == OpKind::RunTree) {
        request.emplace("tree", inputs.trees[op.index]);
    } else {
        request.emplace("tree_size", Json(kRunNodes));
        request.emplace("seed", Json(inputs.runSeeds[op.index]));
    }
    if (op.check)
        request.emplace("check", Json(true));
    return Json(std::move(request));
}

Json
sessionRequest(const ServeInputs& inputs, const std::string& client)
{
    JsonObject request = grammarFields(inputs, 0);
    request.emplace("op", Json("run"));
    request.emplace("tree_size", Json(kSessionNodes));
    request.emplace("seed", Json(inputs.sessionSeed));
    request.emplace("client", Json(client));
    request.emplace("session", Json("heal"));
    return Json(std::move(request));
}

/** Pick a live node of @p mirror, never the root; kNone when none. */
runtime::NodeIdx
pickNode(Rng& rng, const runtime::TreeArena& mirror)
{
    for (int attempt = 0; attempt < 64; ++attempt) {
        auto node =
            static_cast<runtime::NodeIdx>(1 + rng.below(mirror.size() - 1));
        if (mirror.isLive(node))
            return node;
    }
    return runtime::kNone;
}

/**
 * Draw one heal's edits from @p seed against @p mirror, applying each
 * to the mirror as it is drawn so that the next one sees its shape.
 */
std::vector<incr::Edit>
drawHeal(uint64_t seed, runtime::TreeArena& mirror)
{
    Rng rng(seed);
    std::vector<incr::Edit> edits;
    const uint64_t mutations = 2 + rng.below(3);
    const bool replace = rng.below(8) == 0;
    if (replace) {
        incr::Edit edit;
        edit.kind = incr::Edit::Kind::ReplaceSubtree;
        edit.node = pickNode(rng, mirror);
        edit.subtreeNodes = static_cast<uint32_t>(8 + rng.below(25));
        edit.seed = rng.next() >> 1;
        if (edit.node != runtime::kNone) {
            incr::applyEdit(mirror, edit);
            edits.push_back(edit);
        }
    }
    const sem::Grammar& grammar = mirror.grammar();
    for (uint64_t i = 0; i < mutations; ++i) {
        incr::Edit edit;
        edit.node = pickNode(rng, mirror);
        if (edit.node == runtime::kNone)
            continue;
        const sem::InterfaceInfo& iface =
            grammar.iface(grammar.cls(mirror.classOf(edit.node)).iface);
        std::vector<sem::AttrId> inputs;
        for (sem::AttrId attr = 0; attr < iface.attrs.size(); ++attr)
            if (iface.isInput(attr))
                inputs.push_back(attr);
        edit.attr = inputs[rng.below(inputs.size())];
        edit.value = rng.range(0, 100);
        incr::applyEdit(mirror, edit);
        edits.push_back(edit);
    }
    return edits;
}

Json
editsJson(const std::vector<incr::Edit>& edits)
{
    JsonArray out;
    for (const incr::Edit& edit : edits) {
        JsonObject item;
        item.emplace("node", Json(uint64_t{edit.node}));
        if (edit.kind == incr::Edit::Kind::MutateInput) {
            item.emplace("kind", Json("mutate"));
            item.emplace("attr", Json(uint64_t{edit.attr}));
            item.emplace("value", Json(edit.value));
        } else {
            item.emplace("kind", Json("replace"));
            item.emplace("subtree_nodes", Json(uint64_t{edit.subtreeNodes}));
            item.emplace("seed", Json(edit.seed));
        }
        out.push_back(Json(std::move(item)));
    }
    return Json(std::move(out));
}

bool
okResponse(const Json& response)
{
    const Json* ok = response.find("ok");
    return ok != nullptr && ok->isBool() && ok->asBool();
}

/** Per-operation times of one kind, in ms: scaled CPU time and wall. */
struct Samples {
    std::vector<double> cpu, wall;
    size_t scaled = 0; ///< cpu[0, scaled) carry their speed scale

    void add(const Stopwatch& watch)
    {
        cpu.push_back(watch.cpuMs());
        wall.push_back(watch.wallMs());
    }

    /** Scale the CPU times added since the last call by @p factor. */
    void scale(double factor)
    {
        for (; scaled < cpu.size(); ++scaled)
            cpu[scaled] *= factor;
    }
};

/** What the connection measured and observed. */
struct ConnResult {
    Samples synth, run, heal, ping;
    uint64_t checked = 0;
    std::vector<std::string> failures;
    /** (zoo, tree slot) -> every checksum the server returned. */
    std::map<std::pair<uint32_t, uint32_t>, std::vector<uint64_t>> treeRuns;
    /** (salt, seed slot) -> every checksum the server returned. */
    std::map<std::pair<uint32_t, uint32_t>, std::vector<uint64_t>> genRuns;

    void check(bool ok, const std::string& what)
    {
        ++checked;
        if (!ok)
            failures.push_back(what);
    }
};

/**
 * The closed-loop client connection and the state its stream needs
 * across bursts: the op stream, and a mirror of its pinned session's
 * tree shape from which valid edits are drawn.
 */
class Connection {
  public:
    Connection(uint16_t port, const ServeInputs& inputs,
               const std::vector<std::string>& zooKeys,
               const sem::Grammar& sessionGrammar)
        : client_("127.0.0.1", port), inputs_(inputs), zooKeys_(zooKeys),
          grammar_(sessionGrammar), mirror_(pristine()),
          pinnedSize_(mirror_.size()),
          stream_(derive(inputs.seed, kStreamSalt))
    {
        sessionFields_.emplace("client", Json(kClientId));
        sessionFields_.emplace("session", Json("heal"));
    }

    /** Run the next @p ops operations of the stream, one at a time. */
    void burst(size_t ops, ConnResult& out)
    {
        for (size_t done = 0; done < ops; ++done)
            runOp(stream_.next(), out);
    }

    /**
     * The session's differential check, outside the samples: the
     * healed arena against the reference evaluator on its compacted
     * tree.
     */
    void finalCheck(ConnResult& out)
    {
        JsonObject request = sessionFields_;
        request.emplace("op", Json("reexec"));
        request.emplace("check", Json(true));
        Json response = client_.call(Json(std::move(request)));
        out.check(okResponse(response) &&
                      response.stringOr("check", "") == "ok",
                  "final reexec check: " + response.dump().substr(0, 200));
    }

  private:
    runtime::TreeArena pristine() const
    {
        return runtime::TreeArena::generate(
            grammar_, grammar_.findInterface("Doc"),
            treeConfig(kSessionNodes, inputs_.sessionSeed));
    }

    void runOp(const Op& op, ConnResult& out)
    {
        // Each sample covers building the request through decoding the
        // response; checking the answer is the benchmark's own work.
        const Stopwatch watch;
        switch (op.kind) {
          case OpKind::Synth: {
            Json response = client_.call(synthRequest(inputs_, op.zoo));
            out.synth.add(watch);
            const bool ok = okResponse(response) &&
                            response.stringOr("provenance", "") == "cache" &&
                            response.stringOr("key", "") == zooKeys_[op.zoo];
            out.check(ok, "synth: " + response.dump().substr(0, 200));
            break;
          }
          case OpKind::RunGen:
          case OpKind::RunTree: {
            Json response = client_.call(runRequest(inputs_, op));
            if (!op.check)
                out.run.add(watch);
            const bool ok = okResponse(response) &&
                            (!op.check ||
                             response.stringOr("check", "") == "ok");
            out.check(ok, "run: " + response.dump().substr(0, 200));
            if (!ok)
                break;
            const auto checksum =
                static_cast<uint64_t>(response.at("checksum").asInt());
            if (op.kind == OpKind::RunTree)
                out.treeRuns[{op.zoo, op.index}].push_back(checksum);
            else
                out.genRuns[{op.zoo / kRenames, op.index}].push_back(
                    checksum);
            break;
          }
          case OpKind::Heal: {
            // Drawing the edits against the mirror is the client's own
            // bookkeeping, outside the sample.
            std::vector<incr::Edit> edits = drawHeal(op.editSeed, mirror_);
            const Stopwatch heal;
            JsonObject edit = sessionFields_;
            edit.emplace("op", Json("edit"));
            edit.emplace("edits", editsJson(edits));
            Json edited = client_.call(Json(std::move(edit)));
            JsonObject reexec = sessionFields_;
            reexec.emplace("op", Json("reexec"));
            Json healed = client_.call(Json(std::move(reexec)));
            out.heal.add(heal);
            const bool ok =
                okResponse(edited) && okResponse(healed) &&
                edited.intOr("nodes", -1) == int64_t{mirror_.size()};
            out.check(ok, "heal: " + edited.dump().substr(0, 200) + " " +
                              healed.dump().substr(0, 200));
            if (mirror_.size() > kRepinGrowth * pinnedSize_) {
                // Re-pin outside the samples: a fresh session arena.
                Json pinned =
                    client_.call(sessionRequest(inputs_, kClientId));
                out.check(okResponse(pinned), "re-pin");
                mirror_ = pristine();
            }
            break;
          }
          case OpKind::Ping: {
            JsonObject ping;
            ping.emplace("op", Json("ping"));
            Json response = client_.call(Json(std::move(ping)));
            out.ping.add(watch);
            out.check(okResponse(response), "ping");
            break;
          }
        }
    }

    net::Client client_;
    const ServeInputs& inputs_;
    const std::vector<std::string>& zooKeys_;
    const sem::Grammar& grammar_;
    runtime::TreeArena mirror_;
    uint32_t pinnedSize_;
    OpStream stream_;
    JsonObject sessionFields_;
};

Json
metricsOf(uint16_t port, const char* op)
{
    net::Client client("127.0.0.1", port);
    JsonObject request;
    request.emplace("op", Json(op));
    return client.call(Json(std::move(request)));
}

/** Per-request stage times of the in-process replay, in ms. */
struct ReplayTimes {
    double decode = 0, runnow = 0, parse = 0, analyze = 0, lookup = 0,
           plan = 0, compile = 0, treeBuild = 0, execute = 0, checksum = 0,
           respond = 0, encode = 0;
    double total() const
    {
        return decode + runnow + parse + analyze + lookup + plan + compile +
               treeBuild + execute + checksum + respond + encode;
    }
};

/** The run ops of the ledger's fixed stream. */
std::vector<Op>
ledgerRuns(const ServeInputs& inputs)
{
    OpStream stream(derive(inputs.seed, 400));
    std::vector<Op> runs;
    while (runs.size() < kLedgerRuns) {
        Op op = stream.next();
        if (op.kind == OpKind::RunGen || op.kind == OpKind::RunTree) {
            op.check = false;
            runs.push_back(op);
        }
    }
    return runs;
}

/**
 * Replay one run request in process through the calls
 * Server::executeRun makes, timing each; returns the checksum.
 */
uint64_t
replayRun(service::SynthService& service, const std::string& text,
          obs::Telemetry* telemetry, ReplayTimes& t)
{
    Clock::time_point mark = Clock::now();
    auto lap = [&mark] {
        const double ms = msSince(mark);
        mark = Clock::now();
        return ms;
    };
    const Json request = net::parseJson(text);
    t.decode = lap();
    service::SynthRequest synth;
    synth.grammarSrc = request.at("grammar").asString();
    synth.rootInterface = request.at("root").asString();
    synth.config.verify.maxDepth = 3;
    synth.telemetry = telemetry;
    const service::SynthOutcome outcome = service.runNow(synth);
    t.runnow = lap();
    if (!outcome.ok)
        userError("replay: runNow failed: " + outcome.failure);

    pipeline::PipelineOptions options;
    options.config = synth.config;
    options.rootInterface = synth.rootInterface;
    options.cache = &service.cache();
    options.telemetry = telemetry;
    pipeline::Pipeline pipe(synth.grammarSrc, "", std::move(options));
    pipe.parse();
    t.parse = lap();
    pipe.analyze();
    t.analyze = lap();
    if (pipe.synthesizeFromCache() == nullptr)
        userError("replay: schedule cache miss");
    t.lookup = lap();
    pipe.plan();
    t.plan = lap();
    const runtime::Program& program = pipe.compileProgram();
    t.compile = lap();
    std::optional<runtime::TreeArena> arena;
    if (const Json* spec = request.find("tree")) {
        tree::Tree tree(pipe.grammar());
        tree.setRoot(decodeNode(pipe.grammar(), tree, *spec));
        tree.validate();
        arena.emplace(runtime::TreeArena::fromTree(tree));
    } else {
        arena.emplace(runtime::TreeArena::generate(
            pipe.grammar(), pipe.rootInterface(),
            treeConfig(static_cast<uint32_t>(request.at("tree_size").asInt()),
                       static_cast<uint64_t>(request.at("seed").asInt()))));
    }
    t.treeBuild = lap();
    runtime::ExecOptions exec;
    exec.strategy = runtime::SweepStrategy::Auto;
    exec.telemetry = telemetry;
    const runtime::RuntimeStats stats =
        runtime::execute(program, *arena, exec);
    t.execute = lap();
    const uint64_t checksum = arena->checksum();
    t.checksum = lap();
    JsonObject out;
    out.emplace("ok", Json(true));
    out.emplace("provenance",
                Json(service::provenanceName(outcome.provenance)));
    out.emplace("nodes", Json(uint64_t{arena->size()}));
    out.emplace("checksum", Json(checksum));
    out.emplace("node_visits", Json(stats.nodeVisits));
    out.emplace("rules_evaluated", Json(stats.rulesEvaluated));
    const Json response(std::move(out));
    t.respond = lap();
    const std::string encoded = response.dump();
    t.encode = lap();
    return checksum;
}

/**
 * The traced run's serve ledger and per-layer figures: the ledger
 * stream's run requests over the socket to a fresh server, then the
 * same requests replayed in process; plus the incremental replay.
 */
void
traceServe(const ServeInputs& inputs, Report& report, Determinism& det)
{
    const std::vector<Op> runs = ledgerRuns(inputs);
    std::vector<std::string> texts;
    for (const Op& op : runs)
        texts.push_back(runRequest(inputs, op).dump());

    // 1. Over the socket, one request at a time.
    std::vector<double> clientMs;
    std::vector<uint64_t> served;
    double serverRunMs = 0.0;
    {
        ServeSetup fresh = setupServe(inputs);
        net::Client client("127.0.0.1", fresh.server->port());
        for (const Op& op : runs) {
            const Clock::time_point t0 = Clock::now();
            Json response = client.call(runRequest(inputs, op));
            clientMs.push_back(msSince(t0));
            report.check(okResponse(response), "ledger run");
            served.push_back(static_cast<uint64_t>(
                response.find("checksum") ? response.at("checksum").asInt()
                                          : 0));
        }
        Json metrics = metricsOf(fresh.server->port(), "metrics");
        serverRunMs = metrics.at("latency").at("run").doubleOr("p50_ms", 0);
        teardownServe(fresh);
    }

    // 2. In process, alternating telemetry on and off.
    service::ServiceConfig config;
    config.workers = 1;
    service::SynthService service(config);
    for (uint32_t z = 0; z < inputs.zoo.size(); ++z) {
        service::SynthRequest warm;
        warm.grammarSrc = inputs.zoo[z].source;
        warm.rootInterface = inputs.zoo[z].root;
        warm.config.verify.maxDepth = 3;
        if (!service.runNow(warm).ok)
            userError("replay: zoo warm-up failed");
    }
    std::vector<ReplayTimes> traced;
    std::vector<double> tracedMs, untracedMs;
    for (size_t pass = 0; pass < 2; ++pass) {
        for (size_t i = 0; i < runs.size(); ++i) {
            const bool tracing = (i + pass) % 2 == 0;
            obs::Telemetry sink;
            ReplayTimes t;
            const uint64_t checksum = replayRun(
                service, texts[i], tracing ? &sink : nullptr, t);
            report.check(checksum == served[i],
                         "replayed run checksum differs from the server's");
            (tracing ? tracedMs : untracedMs).push_back(t.total());
            if (tracing)
                traced.push_back(t);
        }
    }
    auto med = [&](double ReplayTimes::*field) {
        std::vector<double> values;
        for (const ReplayTimes& t : traced)
            values.push_back(t.*field);
        return median(values);
    };

    Ledger ledger;
    ledger.workload = "serve_mix";
    ledger.total = "net.server_ms.run: server-side run p50, admission to "
                   "response built";
    ledger.totalMs = serverRunMs;
    ledger.rows = {{"service.runnow", med(&ReplayTimes::runnow)},
                   {"lang.parse", med(&ReplayTimes::parse)},
                   {"sem.analyze", med(&ReplayTimes::analyze)},
                   {"service.cache_lookup", med(&ReplayTimes::lookup)},
                   {"sched.plan", med(&ReplayTimes::plan)},
                   {"runtime.compile", med(&ReplayTimes::compile)},
                   {"runtime.tree_build", med(&ReplayTimes::treeBuild)},
                   {"runtime.execute", med(&ReplayTimes::execute)},
                   {"runtime.checksum", med(&ReplayTimes::checksum)},
                   {"net.respond", med(&ReplayTimes::respond)}};
    ledger.tracedMs = median(tracedMs);
    ledger.untracedMs = median(untracedMs);
    report.ledgers.push_back(ledger);

    report.set("lang.parse_ms", med(&ReplayTimes::parse), "ms");
    report.set("sem.analyze_ms", med(&ReplayTimes::analyze), "ms");
    report.set("service.runnow_ms", med(&ReplayTimes::runnow), "ms");
    report.set("service.cache_lookup_ms", med(&ReplayTimes::lookup), "ms");
    report.set("sched.plan_ms", med(&ReplayTimes::plan), "ms");
    report.set("net.decode_ms", med(&ReplayTimes::decode), "ms");
    report.set("net.encode_ms", med(&ReplayTimes::encode), "ms");
    report.set("net.server_ms.run", serverRunMs, "ms");
    report.set("net.wire_ms", median(clientMs) - serverRunMs, "ms");

    // 3. Incremental: the first heals of connection 0's stream, in
    // process, against a warm full execute of the same arena size.
    pipeline::PipelineOptions options;
    options.config.verify.maxDepth = 3;
    options.rootInterface = inputs.zoo[0].root;
    options.cache = &service.cache();
    pipeline::Pipeline pipe(inputs.zoo[0].source, "", std::move(options));
    const runtime::TreeArena pristine = runtime::TreeArena::generate(
        pipe.grammar(), pipe.rootInterface(),
        treeConfig(kSessionNodes, inputs.sessionSeed));
    runtime::TreeArena arena = pristine;
    runtime::TreeArena mirror = pristine;
    runtime::execute(pipe.compileProgram(), arena);
    pipe.incrPlan();
    OpStream stream(derive(inputs.seed, kStreamSalt));
    std::vector<double> editMs, reexecMs;
    double checked = 0.0, evaluated = 0.0;
    while (editMs.size() < kLedgerHeals) {
        const Op op = stream.next();
        if (op.kind != OpKind::Heal)
            continue;
        const std::vector<incr::Edit> edits = drawHeal(op.editSeed, mirror);
        Clock::time_point t0 = Clock::now();
        pipe.edit(arena, edits);
        editMs.push_back(msSince(t0));
        t0 = Clock::now();
        const incr::IncrStats stats = pipe.reexecute(arena);
        reexecMs.push_back(msSince(t0));
        checked += static_cast<double>(stats.rulesChecked);
        evaluated += static_cast<double>(stats.rulesEvaluated);
    }
    report.check(arena.compact().checksum() ==
                     referenceChecksum(arena.compact()),
                 "incremental replay differs from the reference");

    // The honest baseline: a warm execute on a session-sized arena,
    // with no copy inside the timed region.
    runtime::TreeArena full = pristine;
    runtime::execute(pipe.compileProgram(), full);
    std::vector<double> fullMs;
    for (size_t i = 0; i < kFullExecuteReps; ++i) {
        const Clock::time_point t0 = Clock::now();
        runtime::execute(pipe.compileProgram(), full);
        fullMs.push_back(msSince(t0));
    }
    report.set("incr.edit_ms", median(editMs), "ms");
    report.set("incr.reexec_ms", median(reexecMs), "ms");
    report.set("incr.rules_checked", checked, "count");
    report.set("incr.rules_evaluated", evaluated, "count");
    report.set("incr.eval_ratio", checked > 0 ? evaluated / checked : 0.0,
               "ratio");
    report.set("incr.full_execute_ms", median(fullMs), "ms");
    det.counts["incr.rules_checked"] = checked;
    std::printf("# incr: heal (edit + reexec) median %.4f ms vs warm full "
                "execute %.4f ms on the %u-node session arena (base: warm "
                "runtime::execute, no copy)\n",
                median(editMs) + median(reexecMs), median(fullMs),
                pristine.size());
}

} // namespace

ServeInputs
makeServeInputs(uint64_t seed, Determinism& det)
{
    ServeInputs inputs;
    inputs.seed = seed;
    for (uint32_t salt = 0; salt < kSalts; ++salt) {
        const std::string source = salted(salt);
        for (uint32_t rename = 0; rename < kRenames; ++rename) {
            ZooEntry entry;
            entry.source = renamed(source, rename);
            entry.root = renamed("Doc", rename);
            inputs.zoo.push_back(std::move(entry));
        }
    }
    const sem::Grammar grammar = analyzeSource(inputs.zoo[0].source);
    const sem::InterfaceId root = grammar.findInterface("Doc");
    for (uint32_t i = 0; i < kTrees; ++i) {
        runtime::TreeArena arena = runtime::TreeArena::generate(
            grammar, root,
            treeConfig(kTreeNodes, treeSeed(inputs, i), kTreeDepth));
        mixShape(det.shapes, arena);
        const tree::Tree tree = arena.toTree();
        inputs.trees.push_back(encodeNode(tree, tree.root()));
    }
    for (uint32_t i = 0; i < kRunSeeds; ++i)
        inputs.runSeeds.push_back(derive(seed, 6000 + i) >> 33);
    inputs.sessionSeed = derive(seed, 7000) >> 33;
    OpStream stream(derive(seed, kStreamSalt));
    for (size_t i = 0; i < kPrefixOps; ++i)
        mixOp(det.ops, stream.next());
    for (uint64_t s : inputs.runSeeds)
        det.ops.mix(s);
    det.ops.mix(inputs.sessionSeed);
    return inputs;
}

ServeSetup
setupServe(const ServeInputs& inputs)
{
    net::ServeOptions options;
    options.port = 0;
    options.workers = 2;
    options.execThreads = 1;
    options.maxSessions = 16;
    options.service.workers = 1;
    ServeSetup setup;
    setup.server = std::make_unique<net::Server>(options);
    setup.server->start();

    net::Client client("127.0.0.1", setup.server->port());
    for (uint32_t z = 0; z < inputs.zoo.size(); ++z) {
        Json response = client.call(synthRequest(inputs, z));
        if (!okResponse(response))
            userError("serve setup: zoo synth failed: " + response.dump());
        setup.zooKeys.push_back(response.at("key").asString());
    }
    Json response = client.call(sessionRequest(inputs, kClientId));
    if (!okResponse(response))
        userError("serve setup: session pin failed: " + response.dump());
    return setup;
}

void
teardownServe(ServeSetup& setup)
{
    if (setup.server == nullptr)
        return;
    setup.server->requestDrain();
    setup.server->waitUntilStopped();
    setup.server.reset();
}

namespace {

class ServePhase final : public Phase {
  public:
    ServePhase(ServeSetup& setup, const ServeInputs& inputs, Determinism& det)
        : setup_(setup), inputs_(inputs), det_(det),
          grammar_(analyzeSource(inputs.zoo[0].source)),
          cacheBefore_(metricsOf(setup.server->port(), "cache_stats")),
          conn_(setup.server->port(), inputs, setup.zooKeys, grammar_)
    {
    }

    size_t minSteps() const override { return 4; }

    void step(bool, Report&) override
    {
        SpeedScale speed;
        for (size_t done = 0; done < kBurstOps; done += kChunkOps) {
            conn_.burst(kChunkOps, results_);
            const double factor = speed.next();
            for (Samples* samples : {&results_.synth, &results_.run,
                                     &results_.heal, &results_.ping})
                samples->scale(factor);
        }
    }

    void finish(bool trace, Report& report) override
    {
        const Json cacheAfter = metricsOf(setup_.server->port(), "cache_stats");
        conn_.finalCheck(results_);
        ConnResult& all = results_;
        for (const std::string& failure : all.failures)
            report.check(false, failure);
        for (uint64_t i = all.failures.size(); i < all.checked; ++i)
            report.check(true, "");
        // A generated tree's checksum is a function of (salt, seed):
        // renamed grammars and repeated requests must all agree.
        for (const auto& [key, sums] : all.genRuns)
            for (uint64_t sum : sums)
                report.check(sum == sums.front(),
                             "run: one (grammar, seed) gave two checksums");
        report.deferred.push_back([this](Report& r) {
            for (const auto& [key, sums] : results_.treeRuns) {
                const ZooEntry& entry = inputs_.zoo[key.first];
                const sem::Grammar grammar = analyzeSource(entry.source);
                const runtime::TreeArena arena = runtime::TreeArena::generate(
                    grammar, grammar.findInterface(entry.root),
                    treeConfig(kTreeNodes, treeSeed(inputs_, key.second),
                               kTreeDepth));
                const uint64_t expected = referenceChecksum(arena);
                for (uint64_t sum : sums)
                    r.check(sum == expected,
                            "run: client-supplied tree checksum differs "
                            "from the reference");
            }
        });

        if (!trace) {
            // A heal is two requests.
            double requests = 0.0, cpuMs = 0.0;
            for (const auto& [samples, weight] :
                 {std::pair{&all.synth, 1.0}, {&all.run, 1.0},
                  {&all.heal, 2.0}, {&all.ping, 1.0}}) {
                requests += weight * static_cast<double>(samples->cpu.size());
                for (double ms : samples->cpu)
                    cpuMs += ms;
            }
            report.set("serve_cpu_rps", requests / (cpuMs / 1e3), "1/s");
            // Heals have no p50: their latencies fall in two modes, and
            // the median flips between them from run to run.
            for (const auto& [metric, samples, q] :
                 {std::tuple{"synth_hit_p50_ms", &all.synth, 0.5},
                  {"synth_hit_p90_ms", &all.synth, 0.9},
                  {"run_p50_ms", &all.run, 0.5},
                  {"run_p90_ms", &all.run, 0.9},
                  {"heal_p90_ms", &all.heal, 0.9}}) {
                report.set(metric, quantile(samples->cpu, q), "ms");
                report.setWall(metric, quantile(samples->wall, q));
            }
            return;
        }

        const uint16_t port = setup_.server->port();
        const Json metrics = metricsOf(port, "metrics");
        const double hits =
            static_cast<double>(cacheAfter.at("hits").asInt() -
                                cacheBefore_.at("hits").asInt());
        const double misses =
            static_cast<double>(cacheAfter.at("misses").asInt() -
                                cacheBefore_.at("misses").asInt());
        report.set("service.cache_hit_ratio",
                   hits + misses > 0 ? hits / (hits + misses) : 0.0,
                   "ratio");
        report.set("net.ping_ms", median(all.ping.wall), "ms");
        report.set("net.server_ms.synth",
                   metrics.at("latency").at("synth").doubleOr("p50_ms", 0.0),
                   "ms");

        // Resident growth over a fixed number of operations after a
        // warm-up, scaled to 10,000 operations.
        ConnResult scratch;
        conn_.burst(kRssWarmupOps, scratch);
        const double rssBefore = currentRssMb();
        conn_.burst(kRssWindowOps, scratch);
        const double rssAfter = currentRssMb();
        report.set("obs.rss_growth_mb",
                   (rssAfter - rssBefore) * 1e4 /
                       static_cast<double>(kRssWindowOps),
                   "MB");
        for (const std::string& failure : scratch.failures)
            report.check(false, failure);
        traceServe(inputs_, report, det_);
    }

  private:
    ServeSetup& setup_;
    const ServeInputs& inputs_;
    Determinism& det_;
    const sem::Grammar grammar_;
    const Json cacheBefore_;
    Connection conn_;
    ConnResult results_;
};

} // namespace

std::unique_ptr<Phase>
makeServePhase(ServeSetup& setup, const ServeInputs& inputs, Determinism& det)
{
    return std::make_unique<ServePhase>(setup, inputs, det);
}

} // namespace perfbench
