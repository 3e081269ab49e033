/**
 * @file
 * One instrument per pipeline scope. TEPIC_LAYERS names every stage
 * once: its Layer, its trace span (or none; the category is the
 * name's first dotted component) and its PROF phase (or none).
 * tepic-perf's per-layer table keys off the span names, so a row's
 * span string never changes.
 *
 * `Scope scope(Layer::kBuildFull, task)` is the only way library code
 * marks a stage: it starts and finishes SCHED task @p task, emits the
 * span while tracing and charges the phase's self-time while a PROF
 * session runs (one relaxed atomic load each when off).
 */

#ifndef TEPIC_SUPPORT_SCOPE_HH
#define TEPIC_SUPPORT_SCOPE_HH

#include <cstdint>
#include <iterator>
#include <optional>

#include "support/sched.hh"
#include "support/trace.hh"

/**
 * X(layer, span, phase). kCompile spans the engine's compile stage,
 * around the compiler and emulator scopes; kPoolTask keeps a pool
 * job's residue outside the job's own scopes.
 */
#define TEPIC_LAYERS(X)                                                     \
    X(kFrontend, nullptr, "frontend")                                       \
    X(kOptimise, nullptr, "optimise")                                       \
    X(kBackend, nullptr, "backend")                                         \
    X(kCompile, "engine.compile", nullptr)                                  \
    X(kEmulateProfile, "engine.emulate.profile", "emulate")                 \
    X(kEmulate, "engine.emulate", "emulate")                                \
    X(kBuildBase, "engine.build.base", "build_base")                        \
    X(kBuildByte, "engine.build.byte", "build_byte")                        \
    X(kBuildStream, "engine.build.stream", "build_stream")                  \
    X(kBuildFull, "engine.build.full", "build_full")                        \
    X(kBuildTailored, "engine.build.tailored", "build_tailored")            \
    X(kBuildAtt, "engine.build.att", "build_att")                           \
    X(kBuildDecoder, "engine.build.decoder", nullptr)                       \
    X(kFetchSim, "fetch.simulate", "fetch_sim")                             \
    X(kPoolTask, "pool.task", "worker")                                     \
    X(kBenchKernel, nullptr, "bench_kernel")                                \
    X(kBuildMany, "engine.buildMany", nullptr)                              \
    X(kPhaseCompile, "engine.phase.compile", nullptr)                       \
    X(kPhaseSchemes, "engine.phase.schemes", nullptr)                       \
    X(kPhaseAtt, "engine.phase.att", nullptr)

namespace tepic::support {

/** The closed layer taxonomy; indexes kLayers. */
enum class Layer : unsigned
{
#define TEPIC_LAYER_ENUM(layer, span, phase) layer,
    TEPIC_LAYERS(TEPIC_LAYER_ENUM)
#undef TEPIC_LAYER_ENUM
};

/** One row of the layer table. */
struct LayerRow
{
    const char *span;   ///< trace span name, or nullptr
    const char *phase;  ///< PROF phase name, or nullptr
};

/** The layer table, indexed by Layer. */
inline constexpr LayerRow kLayers[] = {
#define TEPIC_LAYER_ROW(layer, span, phase) {span, phase},
    TEPIC_LAYERS(TEPIC_LAYER_ROW)
#undef TEPIC_LAYER_ROW
};

inline constexpr unsigned kNumLayers = unsigned(std::size(kLayers));

/** RAII span + PROF self-time + SCHED task of one layer scope. */
class Scope
{
  public:
    explicit Scope(Layer layer, std::uint64_t task = sched::kNoTask);
    ~Scope();

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    std::uint64_t task_;
    bool profiled_ = false;
    std::optional<trace::Span> span_;
};

} // namespace tepic::support

#endif // TEPIC_SUPPORT_SCOPE_HH
