#include "core/artifact_engine.hh"

#include <cstdio>

#include "support/cli.hh"
#include "support/logging.hh"
#include "support/metrics.hh"
#include "support/sched.hh"
#include "support/scope.hh"

namespace tepic::core {

// ---------------------------------------------------------------------------
// ArtifactKind / ArtifactRequest names.

const char *
artifactKindName(ArtifactKind kind)
{
    switch (kind) {
      case ArtifactKind::kBase: return "base";
      case ArtifactKind::kByte: return "byte";
      case ArtifactKind::kStream: return "stream";
      case ArtifactKind::kFull: return "full";
      case ArtifactKind::kTailored: return "tailored";
      case ArtifactKind::kAtt: return "att";
      case ArtifactKind::kTrace: return "trace";
      case ArtifactKind::kDecoder: return "decoder";
    }
    TEPIC_PANIC("bad artifact kind");
}

std::string
ArtifactRequest::toString() const
{
    std::string out;
    for (unsigned i = 0; i < kNumArtifactKinds; ++i) {
        if (!has(ArtifactKind(i)))
            continue;
        if (!out.empty())
            out += ',';
        out += artifactKindName(ArtifactKind(i));
    }
    return out.empty() ? "none" : out;
}

ArtifactRequest
ArtifactRequest::parse(const std::string &csv)
{
    ArtifactRequest request;
    for (const std::string &name : support::cli::splitCsv(csv)) {
        if (name == "all") {
            request = request | all();
            continue;
        }
        if (name == "none")
            continue;
        bool known = false;
        for (unsigned i = 0; i < kNumArtifactKinds; ++i) {
            if (name == artifactKindName(ArtifactKind(i))) {
                request = request.with(ArtifactKind(i));
                known = true;
                break;
            }
        }
        if (!known) {
            TEPIC_FATAL("unknown artifact kind '", name,
                        "' (expected base, byte, stream, full, "
                        "tailored, att, trace, decoder, all or "
                        "none)");
        }
    }
    return request;
}

// ---------------------------------------------------------------------------
// Content-keyed cache key: FNV-1a over source text + every config
// field that can change the output.

namespace {

class Fnv1a
{
  public:
    void
    bytes(const void *data, std::size_t size)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < size; ++i) {
            hash_ ^= p[i];
            hash_ *= 0x100000001b3ull;
        }
    }

    void
    u64(std::uint64_t value)
    {
        bytes(&value, sizeof(value));
    }

    void
    str(const std::string &value)
    {
        u64(value.size());
        bytes(value.data(), value.size());
    }

    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

} // namespace

std::uint64_t
pipelineCacheKey(const std::string &source, const PipelineConfig &config)
{
    Fnv1a h;
    h.str(source);

    h.u64(config.compile.optimise);

    const auto &machine = config.compile.machine;
    h.u64(machine.issueWidth);
    h.u64(machine.memoryUnits);
    h.u64(machine.branchUnits);

    h.u64(config.compile.hoist.enabled);
    h.u64(config.compile.hoist.maxOpsPerEdge);

    h.u64(config.profileGuided);
    h.u64(config.maxMops);
    return h.value();
}

// ---------------------------------------------------------------------------
// Engine.

ArtifactEngine::ArtifactEngine(unsigned jobs)
{
    jobs_ = jobs == 0 ? support::ThreadPool::hardwareThreads() : jobs;
    if (jobs_ > 1)
        pool_ = std::make_unique<support::ThreadPool>(jobs_);
}

ArtifactEngine::~ArtifactEngine() = default;

ArtifactEngine &
ArtifactEngine::global()
{
    static ArtifactEngine engine(0);
    return engine;
}

void
ArtifactEngine::compileStage(Artifacts &a, const BuildRequest &req)
{
    a.request_ = req.request;
    a.compiled = compiler::compileSource(req.source,
                                         req.config.compile);
    compiles_.fetch_add(1, std::memory_order_relaxed);

    sim::EmulatorConfig emulator;
    emulator.maxMops = req.config.maxMops;
    if (!req.config.profileGuided) {
        const support::Scope scope(support::Layer::kEmulate);
        emulator.recordTrace = req.request.has(ArtifactKind::kTrace);
        a.execution = sim::emulate(a.compiled.program, a.compiled.data,
                                   emulator);
        emulations_.fetch_add(1, std::memory_order_relaxed);
        return;
    }

    // The one emulation: the profile run keeps its trace, and the
    // relaid-out program's execution is derived from it.
    sim::EmulationResult profile_run;
    std::vector<isa::BlockId> new_ids;
    {
        const support::Scope scope(support::Layer::kEmulateProfile);
        profile_run = sim::emulate(a.compiled.program, a.compiled.data,
                                   emulator);
        emulations_.fetch_add(1, std::memory_order_relaxed);
        new_ids = compiler::applyProfileAndRelayout(
            a.compiled, profile_run.blockCounts,
            req.config.compile.machine);
    }
    const support::Scope scope(support::Layer::kEmulate);
    emulator.recordTrace = req.request.has(ArtifactKind::kTrace);
    a.execution = sim::deriveExecution(profile_run, new_ids,
                                       a.compiled.program, emulator);
    profile_run = {};  // freed under this scope, not the caller's
}

namespace {

/**
 * Deterministic work counter behind the PROF report's
 * ops_encoded_per_sec throughput: one unit per operation encoded.
 * Charged per *performed* build (cache hits charge nothing), which is
 * identical for any --jobs value.
 */
void
chargeEncodedOps(const Artifacts &a)
{
    support::MetricsRegistry::global().addCounter(
        "prof.work.ops_encoded", a.compiled.program.opCount());
}

/**
 * Workload label for sched task records: the caller-supplied
 * BuildRequest::label, or (deterministically) the cache key when the
 * caller did not name the request.
 */
std::string
schedWorkload(const std::string &label, std::uint64_t key)
{
    if (!label.empty())
        return label;
    char buf[20];
    std::snprintf(buf, sizeof(buf), "w%016llx",
                  (unsigned long long)key);
    return buf;
}

std::uint64_t
declareSchedTask(const std::string &workload, const char *kind,
                 std::string scheme,
                 std::vector<std::uint64_t> deps,
                 bool cache_hit = false)
{
    if (!support::sched::enabled())
        return support::sched::kNoTask;
    support::sched::TaskDecl decl;
    decl.label = workload + "/" + kind +
                 (scheme.empty() ? "" : "." + scheme);
    decl.kind = kind;
    decl.workload = workload;
    decl.scheme = std::move(scheme);
    decl.deps = std::move(deps);
    decl.cacheHit = cache_hit;
    return support::sched::declareTask(std::move(decl));
}

} // namespace

void
ArtifactEngine::schemeTasks(Artifacts &a, const BuildRequest &req,
                            const std::string &workload,
                            std::uint64_t compile_task,
                            std::vector<std::function<void()>> &tasks,
                            std::vector<std::function<void()>> &att_tasks)
{
    const ArtifactRequest request = req.request;

    // Ids of the image tasks the phase-3 builders depend on.
    std::uint64_t base_task = support::sched::kNoTask;
    std::uint64_t full_task = support::sched::kNoTask;
    std::uint64_t tailored_task = support::sched::kNoTask;

    if (request.has(ArtifactKind::kBase)) {
        base_task = declareSchedTask(workload, "base", "",
                                     {compile_task});
        tasks.push_back([this, &a, base_task] {
            const support::Scope scope(support::Layer::kBuildBase, base_task);
            a.base_ = isa::buildBaselineImage(a.compiled.program);
            chargeEncodedOps(a);
            baseImages_.fetch_add(1, std::memory_order_relaxed);
        });
    }
    if (request.has(ArtifactKind::kByte)) {
        const std::uint64_t task_id =
            declareSchedTask(workload, "byte", "", {compile_task});
        tasks.push_back([this, &a, task_id] {
            const support::Scope scope(support::Layer::kBuildByte, task_id);
            a.byte_ = schemes::compressByte(a.compiled.program);
            chargeEncodedOps(a);
            byteImages_.fetch_add(1, std::memory_order_relaxed);
        });
    }
    if (request.has(ArtifactKind::kStream)) {
        const auto &configs = schemes::allStreamConfigs();
        a.streams_.resize(configs.size());
        for (std::size_t i = 0; i < configs.size(); ++i) {
            const std::uint64_t task_id =
                declareSchedTask(workload, "stream",
                                 "s" + std::to_string(i),
                                 {compile_task});
            tasks.push_back([this, &a, i, &configs, task_id] {
                const support::Scope scope(support::Layer::kBuildStream,
                                            task_id);
                a.streams_[i] = schemes::compressStream(
                    a.compiled.program, configs[i]);
                chargeEncodedOps(a);
                streamImages_.fetch_add(1, std::memory_order_relaxed);
            });
        }
    }
    if (request.has(ArtifactKind::kFull)) {
        full_task = declareSchedTask(workload, "full", "",
                                     {compile_task});
        tasks.push_back([this, &a, full_task] {
            const support::Scope scope(support::Layer::kBuildFull, full_task);
            a.full_ = schemes::compressFull(a.compiled.program);
            chargeEncodedOps(a);
            fullImages_.fetch_add(1, std::memory_order_relaxed);
        });
    }
    if (request.has(ArtifactKind::kTailored)) {
        tailored_task = declareSchedTask(workload, "tailored", "",
                                         {compile_task});
        tasks.push_back([this, &a, tailored_task] {
            const support::Scope scope(support::Layer::kBuildTailored,
                                        tailored_task);
            a.tailoredIsa_ =
                schemes::TailoredIsa::build(a.compiled.program);
            a.tailoredImage_ =
                a.tailoredIsa_->encode(a.compiled.program);
            chargeEncodedOps(a);
            tailoredImages_.fetch_add(1, std::memory_order_relaxed);
        });
    }
    if (request.has(ArtifactKind::kAtt)) {
        // The ATT reads the Full image, so it depends on that task
        // (normalized() guarantees kFull is in the request).
        const std::uint64_t task_id =
            declareSchedTask(workload, "att", "", {full_task});
        att_tasks.push_back([this, &a, task_id] {
            const support::Scope scope(support::Layer::kBuildAtt, task_id);
            a.att_ = fetch::Att::build(a.full_->image,
                                       a.compiled.program);
            attBuilds_.fetch_add(1, std::memory_order_relaxed);
        });
    }
    if (request.has(ArtifactKind::kDecoder)) {
        // Third phase alongside the ATT: the decoders reference the
        // base/full/tailored images written in phase 2. Pre-warming
        // here fills the memoized slots at the published object's
        // final heap address, so consumers never pay construction
        // inside a timed fetch window (and concurrent readers of a
        // shared Artifacts see fully-built decoders).
        const std::uint64_t task_id = declareSchedTask(
            workload, "decoder", "",
            {base_task, full_task, tailored_task});
        att_tasks.push_back([this, &a, task_id] {
            const support::Scope scope(support::Layer::kBuildDecoder, task_id);
            a.decoder(fetch::SchemeClass::kBase);
            a.decoder(fetch::SchemeClass::kCompressed);
            a.decoder(fetch::SchemeClass::kTailored);
            decoderBuilds_.fetch_add(3, std::memory_order_relaxed);
        });
    }
}

void
ArtifactEngine::runScheduled(
    const std::vector<std::function<void()>> &tasks)
{
    if (pool_ && tasks.size() > 1) {
        pool_->parallelFor(tasks.size(),
                           [&tasks](std::size_t i) { tasks[i](); });
    } else {
        for (const auto &task : tasks)
            task();
    }
}

std::shared_ptr<const Artifacts>
ArtifactEngine::lookup(std::uint64_t key, ArtifactRequest request)
{
    std::lock_guard<std::mutex> lock(cacheMutex_);
    auto it = cache_.find(key);
    if (it == cache_.end())
        return nullptr;
    for (const auto &entry : it->second)
        if (entry.request.contains(request))
            return entry.artifacts;
    return nullptr;
}

void
ArtifactEngine::insert(std::uint64_t key, ArtifactRequest request,
                       std::shared_ptr<const Artifacts> artifacts)
{
    std::lock_guard<std::mutex> lock(cacheMutex_);
    auto &entries = cache_[key];
    // A new superset subsumes older subset entries.
    std::erase_if(entries, [&](const CacheEntry &entry) {
        return request.contains(entry.request);
    });
    entries.push_back({request, std::move(artifacts)});
}

void
ArtifactEngine::clearCache()
{
    std::lock_guard<std::mutex> lock(cacheMutex_);
    cache_.clear();
}

std::shared_ptr<const Artifacts>
ArtifactEngine::build(const std::string &source,
                      ArtifactRequest request,
                      const PipelineConfig &config,
                      const std::string &label)
{
    return buildMany({BuildRequest{source, request, config, label}})
        .front();
}

std::vector<std::shared_ptr<const Artifacts>>
ArtifactEngine::buildMany(const std::vector<BuildRequest> &requests)
{
    const support::Scope scope(support::Layer::kBuildMany);
    const std::size_t n = requests.size();
    std::vector<std::shared_ptr<const Artifacts>> results(n);

    // Coalesce batch entries with identical (source, config): one
    // build with the union of their requests serves all of them.
    struct Pending
    {
        std::uint64_t key = 0;
        ArtifactRequest request;
        const BuildRequest *proto = nullptr;
        std::shared_ptr<Artifacts> building;  ///< null on cache hit
        std::vector<std::size_t> indices;
    };
    std::vector<Pending> pending;
    std::unordered_map<std::uint64_t, std::size_t> group_of;
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t key =
            pipelineCacheKey(requests[i].source, requests[i].config);
        const ArtifactRequest normalized =
            requests[i].request.normalized();
        auto it = group_of.find(key);
        if (it != group_of.end()) {
            pending[it->second].request =
                pending[it->second].request | normalized;
            pending[it->second].indices.push_back(i);
            cacheHits_.fetch_add(1, std::memory_order_relaxed);
            continue;
        }
        group_of.emplace(key, pending.size());
        Pending p;
        p.key = key;
        p.request = normalized;
        p.proto = &requests[i];
        p.indices.push_back(i);
        pending.push_back(std::move(p));
    }

    // Cache pass: a stored superset satisfies any subset request.
    // Hits become zero-duration sched tasks, so the scheduling report
    // carries an exact-gated cache-hit count alongside the DAG.
    std::vector<std::size_t> misses;
    for (std::size_t g = 0; g < pending.size(); ++g) {
        auto &p = pending[g];
        if (auto hit = lookup(p.key, p.request)) {
            for (std::size_t idx : p.indices)
                results[idx] = hit;
            cacheHits_.fetch_add(1, std::memory_order_relaxed);
            declareSchedTask(
                schedWorkload(p.proto->label, p.key), "hit", "", {},
                /*cache_hit=*/true);
            continue;
        }
        cacheMisses_.fetch_add(1, std::memory_order_relaxed);
        p.building = std::make_shared<Artifacts>();
        misses.push_back(g);
    }

    // Declare the whole task DAG up front, in batch order on the
    // calling thread — task ids are therefore identical for any
    // --jobs value, and tasks blocked behind the compile stage are
    // visible to the sched idle-cause attribution while phase 1 runs.
    std::vector<BuildRequest> effective(misses.size());
    std::vector<std::uint64_t> compile_tasks(misses.size(),
                                             support::sched::kNoTask);
    std::vector<std::function<void()>> tasks;
    std::vector<std::function<void()>> att_tasks;
    for (std::size_t m = 0; m < misses.size(); ++m) {
        const Pending &p = pending[misses[m]];
        effective[m] = BuildRequest{p.proto->source, p.request,
                                    p.proto->config, p.proto->label};
        const std::string workload =
            schedWorkload(p.proto->label, p.key);
        compile_tasks[m] =
            declareSchedTask(workload, "compile", "", {});
        schemeTasks(*pending[misses[m]].building, effective[m],
                    workload, compile_tasks[m], tasks, att_tasks);
    }

    // Phase 1: the shared compile + emulate stage, one task per
    // workload, concurrently across workloads.
    const auto compile_one = [&](std::size_t m) {
        const support::Scope scope(support::Layer::kCompile,
                                   compile_tasks[m]);
        compileStage(*pending[misses[m]].building, effective[m]);
    };
    {
        const support::Scope scope(support::Layer::kPhaseCompile);
        if (pool_ && misses.size() > 1) {
            pool_->parallelFor(misses.size(), compile_one);
        } else {
            for (std::size_t m = 0; m < misses.size(); ++m)
                compile_one(m);
        }
    }

    // Phase 2: fan every independent scheme build out as a task;
    // each writes a pre-assigned slot, so scheduling order cannot
    // change the result. ATTs run third — they read the Full image.
    {
        const support::Scope scope(support::Layer::kPhaseSchemes);
        runScheduled(tasks);
    }
    {
        const support::Scope scope(support::Layer::kPhaseAtt);
        runScheduled(att_tasks);
    }

    // Publish in batch order (deterministic cache contents).
    for (auto &p : pending) {
        if (!p.building)
            continue;
        std::shared_ptr<const Artifacts> done = std::move(p.building);
        insert(p.key, p.request, done);
        for (std::size_t idx : p.indices)
            results[idx] = done;
    }

    return results;
}

Artifacts
ArtifactEngine::buildUncached(const std::string &source,
                              ArtifactRequest request,
                              const PipelineConfig &config)
{
    ArtifactEngine serial(1);
    Artifacts artifacts;
    const BuildRequest req{source, request.normalized(), config, {}};
    const std::string workload =
        schedWorkload({}, pipelineCacheKey(source, config));
    const std::uint64_t compile_task =
        declareSchedTask(workload, "compile", "", {});
    std::vector<std::function<void()>> tasks;
    std::vector<std::function<void()>> att_tasks;
    serial.schemeTasks(artifacts, req, workload, compile_task, tasks,
                       att_tasks);
    {
        const support::Scope scope(support::Layer::kCompile, compile_task);
        serial.compileStage(artifacts, req);
    }
    serial.runScheduled(tasks);
    serial.runScheduled(att_tasks);
    return artifacts;
}

EngineStats
ArtifactEngine::stats() const
{
    EngineStats s;
    s.cacheHits = cacheHits_.load(std::memory_order_relaxed);
    s.cacheMisses = cacheMisses_.load(std::memory_order_relaxed);
    s.compiles = compiles_.load(std::memory_order_relaxed);
    s.emulations = emulations_.load(std::memory_order_relaxed);
    s.baseImages = baseImages_.load(std::memory_order_relaxed);
    s.byteImages = byteImages_.load(std::memory_order_relaxed);
    s.streamImages = streamImages_.load(std::memory_order_relaxed);
    s.fullImages = fullImages_.load(std::memory_order_relaxed);
    s.tailoredImages =
        tailoredImages_.load(std::memory_order_relaxed);
    s.attBuilds = attBuilds_.load(std::memory_order_relaxed);
    s.decoderBuilds = decoderBuilds_.load(std::memory_order_relaxed);
    return s;
}

void
ArtifactEngine::exportMetrics(support::MetricsRegistry &out) const
{
    const EngineStats s = stats();
    out.addCounter("engine.cache_hits", s.cacheHits);
    out.addCounter("engine.cache_misses", s.cacheMisses);
    out.addCounter("engine.compiles", s.compiles);
    out.addCounter("engine.emulations", s.emulations);
    out.addCounter("engine.images.base", s.baseImages);
    out.addCounter("engine.images.byte", s.byteImages);
    out.addCounter("engine.images.stream", s.streamImages);
    out.addCounter("engine.images.full", s.fullImages);
    out.addCounter("engine.images.tailored", s.tailoredImages);
    out.addCounter("engine.att_builds", s.attBuilds);
    out.addCounter("engine.decoder_builds", s.decoderBuilds);
}

} // namespace tepic::core
