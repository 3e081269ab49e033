/**
 * @file
 * Low-overhead structured tracing emitting Chrome trace-event JSON
 * (open the output in Perfetto — https://ui.perfetto.dev — or
 * chrome://tracing).
 *
 * Design:
 *
 *  - Scoped spans (RAII): `TEPIC_TRACE_SPAN("bench.setup", "bench")`
 *    records one complete ("X") event with the span's wall-clock
 *    duration. Library code opens its spans through support::Scope
 *    (scope.hh), whose Layer table names every library span.
 *  - Per-thread buffers: each thread appends to its own vector under a
 *    thread-local, uncontended mutex; buffers are gathered and written
 *    only at stop(). A thread that exits first parks its events in a
 *    retired list, so pool workers joined before stop() still appear.
 *  - Runtime disable: when tracing is off (the default), every entry
 *    point is a single relaxed atomic load — no allocation, no lock,
 *    no clock read. Span names/categories must be string literals (or
 *    otherwise outlive stop()); they are not copied.
 *
 * Determinism caveat: trace *timestamps and durations* vary run to
 * run; the event structure (which spans exist, their nesting and
 * names) is deterministic for a deterministic program.
 */

#ifndef TEPIC_SUPPORT_TRACE_HH
#define TEPIC_SUPPORT_TRACE_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace tepic::support::trace {

/** Runtime switch; one relaxed atomic load. */
bool enabled();

/**
 * Reset all buffers and enable collection. @p path is where stop()
 * writes the JSON; empty means "collect only" (use stopToJson()).
 */
void start(const std::string &path);

/**
 * Disable collection, flush every thread buffer, and write the JSON
 * file given to start() (if any). No-op when never started. Returns
 * false only if the file could not be written.
 */
bool stop();

/** Like stop(), but return the JSON instead of writing a file. */
std::string stopToJson();

/** Record an instant ("i") event. */
void instant(const char *name, const char *cat = "tepic");

/** RAII scoped span; records one complete event at destruction. */
class Span
{
  public:
    explicit Span(const char *name, std::string_view cat = "tepic");

    /** @p args must be a preformatted JSON object ("{...}"). */
    Span(const char *name, std::string_view cat, std::string args);

    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    const char *name_ = nullptr;
    std::string_view cat_;
    std::string args_;
    std::uint64_t startNs_ = 0;
    bool active_ = false;
};

// Test hooks.

/** Whether the calling thread has materialized a trace buffer. */
bool threadHasBuffer();

/** Total buffered (unflushed) events across all threads. */
std::size_t pendingEvents();

} // namespace tepic::support::trace

#define TEPIC_TRACE_CONCAT2(a, b) a##b
#define TEPIC_TRACE_CONCAT(a, b) TEPIC_TRACE_CONCAT2(a, b)

/**
 * Scoped span with an unpollutable variable name, for harness code
 * (bench/); library stages use support::Scope instead.
 */
#define TEPIC_TRACE_SPAN(...)                                            \
    ::tepic::support::trace::Span TEPIC_TRACE_CONCAT(                    \
        tepic_trace_span_, __COUNTER__)(__VA_ARGS__)

#endif // TEPIC_SUPPORT_TRACE_HH
