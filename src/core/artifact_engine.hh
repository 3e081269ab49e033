/**
 * @file
 * The parallel artifact engine: request-based, cached, deterministic.
 *
 * One engine owns a fixed-size thread pool and a content-keyed result
 * cache. A build request is (source text, ArtifactRequest, pipeline
 * config); the engine
 *
 *  - builds N workloads concurrently (one compile+emulate task per
 *    workload),
 *  - inside one workload, fans the independent scheme builds (byte,
 *    6 x stream, full, tailored, ATT) out as tasks after the shared
 *    compile+emulate stage,
 *  - memoizes results under a hash of source + config, so repeated
 *    requests — common across bench binaries and tests — are free. A
 *    cached entry satisfies any request it is a superset of.
 *
 * Determinism guarantee: engine output is bit-identical to the serial
 * (jobs = 1) path regardless of thread count. Every task writes into
 * a pre-assigned slot of its workload's Artifacts, every builder is a
 * pure function of the compiled program, and reductions happen on the
 * calling thread in request order. Nothing in the build path reads
 * global mutable state; per-scheme counters are atomics that never
 * feed back into results.
 */

#ifndef TEPIC_CORE_ARTIFACT_ENGINE_HH
#define TEPIC_CORE_ARTIFACT_ENGINE_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/pipeline.hh"
#include "support/thread_pool.hh"

namespace tepic::support {
class MetricsRegistry;
} // namespace tepic::support

namespace tepic::core {

/** One unit of work for ArtifactEngine::buildMany(). */
struct BuildRequest
{
    std::string source;                              ///< tinkerc text
    ArtifactRequest request = ArtifactRequest::all();
    PipelineConfig config;
    /**
     * Display name for scheduling observability (support::sched task
     * labels); empty falls back to a hash of (source, config). Never
     * part of the cache key — two requests differing only in label
     * still coalesce.
     */
    std::string label;
};

/**
 * Monotonic counters describing what the engine actually did — the
 * proof that selective requests skip work (an ablation asking for
 * {Base} must show zero Huffman/tailored builds) and that the cache
 * hits. Snapshot type returned by ArtifactEngine::stats().
 */
struct EngineStats
{
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;
    std::uint64_t compiles = 0;
    std::uint64_t emulations = 0;     ///< real runs: one per program
    std::uint64_t baseImages = 0;
    std::uint64_t byteImages = 0;
    std::uint64_t streamImages = 0;   ///< counts individual configs
    std::uint64_t fullImages = 0;
    std::uint64_t tailoredImages = 0;
    std::uint64_t attBuilds = 0;
    std::uint64_t decoderBuilds = 0;  ///< pre-warmed codec::Decoders

    /** Total Huffman-family images built (byte + stream + full). */
    std::uint64_t
    huffmanImages() const
    {
        return byteImages + streamImages + fullImages;
    }
};

class ArtifactEngine
{
  public:
    /**
     * @p jobs worker threads; 0 picks the hardware concurrency,
     * 1 runs strictly serially on the calling thread.
     */
    explicit ArtifactEngine(unsigned jobs = 0);
    ~ArtifactEngine();

    ArtifactEngine(const ArtifactEngine &) = delete;
    ArtifactEngine &operator=(const ArtifactEngine &) = delete;

    unsigned jobs() const { return jobs_; }

    /**
     * Build (or fetch from cache) the artefacts for one program.
     * Identical (source, config) requests return the *same* shared
     * object — pointer equality is the cache-hit witness — and a
     * cached superset satisfies any subset request.
     */
    std::shared_ptr<const Artifacts>
    build(const std::string &source,
          ArtifactRequest request = ArtifactRequest::all(),
          const PipelineConfig &config = {},
          const std::string &label = {});

    /**
     * Build many programs concurrently; results come back in request
     * order. Duplicate requests inside the batch are coalesced.
     */
    std::vector<std::shared_ptr<const Artifacts>>
    buildMany(const std::vector<BuildRequest> &requests);

    /** Snapshot of the work counters. */
    EngineStats stats() const;

    /**
     * Export the engine's `engine.*` counters (cache hits/misses,
     * per-scheme build counts — deterministic for any --jobs) into
     * @p out. Task timing is SCHED's and PROF's, not the registry's.
     */
    void exportMetrics(support::MetricsRegistry &out) const;

    /** Drop every cached entry (the counters are kept). */
    void clearCache();

    /**
     * The process-wide engine (hardware-concurrency jobs), shared by
     * tepicc and the examples so repeated builds of the same workload
     * are free across helpers.
     */
    static ArtifactEngine &global();

    /**
     * Serial, uncached build of @p request: a fresh value object with
     * no shared ownership, for callers that want one.
     */
    static Artifacts buildUncached(const std::string &source,
                                   ArtifactRequest request,
                                   const PipelineConfig &config);

  private:
    struct CacheEntry
    {
        ArtifactRequest request;  ///< normalized set the entry holds
        std::shared_ptr<const Artifacts> artifacts;
    };

    /**
     * Shared compile stage for one workload: compile, then emulate
     * (single-pass) or profile-emulate, relay out and derive the new
     * layout's execution from the profile run (profile-guided).
     */
    void compileStage(Artifacts &artifacts, const BuildRequest &req);

    /**
     * Append one task per requested scheme to @p tasks; ATT and
     * decoder tasks go to @p att_tasks because they read the images
     * written in the scheme phase and must run after it. Also
     * declares every task (with its dependency edges on
     * @p compile_task) to the support::sched recorder — called
     * *before* phase 1 runs, so declared-but-blocked tasks are
     * visible to the idle-cause attribution while earlier phases
     * execute. @p workload labels the tasks.
     */
    void schemeTasks(Artifacts &artifacts, const BuildRequest &req,
                     const std::string &workload,
                     std::uint64_t compile_task,
                     std::vector<std::function<void()>> &tasks,
                     std::vector<std::function<void()>> &att_tasks);

    std::shared_ptr<const Artifacts>
    lookup(std::uint64_t key, ArtifactRequest request);

    void insert(std::uint64_t key, ArtifactRequest request,
                std::shared_ptr<const Artifacts> artifacts);

    void runScheduled(const std::vector<std::function<void()>> &tasks);

    unsigned jobs_ = 1;
    std::unique_ptr<support::ThreadPool> pool_;  ///< null when jobs_==1

    mutable std::mutex cacheMutex_;
    std::unordered_map<std::uint64_t, std::vector<CacheEntry>> cache_;

    // Work counters (relaxed atomics; never feed back into results).
    std::atomic<std::uint64_t> cacheHits_{0};
    std::atomic<std::uint64_t> cacheMisses_{0};
    std::atomic<std::uint64_t> compiles_{0};
    std::atomic<std::uint64_t> emulations_{0};
    std::atomic<std::uint64_t> baseImages_{0};
    std::atomic<std::uint64_t> byteImages_{0};
    std::atomic<std::uint64_t> streamImages_{0};
    std::atomic<std::uint64_t> fullImages_{0};
    std::atomic<std::uint64_t> tailoredImages_{0};
    std::atomic<std::uint64_t> attBuilds_{0};
    std::atomic<std::uint64_t> decoderBuilds_{0};
};

/** Content hash of (source, config): the engine's cache key. */
std::uint64_t pipelineCacheKey(const std::string &source,
                               const PipelineConfig &config);

} // namespace tepic::core

#endif // TEPIC_CORE_ARTIFACT_ENGINE_HH
