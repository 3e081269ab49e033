#include "support/trace.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <vector>

#include "support/logging.hh"
#include "support/metrics.hh"
#include "support/text_file.hh"

namespace tepic::support::trace {

namespace {

struct Event
{
    const char *name = nullptr;
    std::string_view cat;
    char phase = 'X';          // 'X' complete, 'i' instant
    std::uint64_t tsNs = 0;    // since start()
    std::uint64_t durNs = 0;   // 'X' only
    std::uint32_t tid = 0;
    std::string args;          // preformatted JSON object, or empty
};

struct ThreadBuffer
{
    ThreadBuffer();
    ~ThreadBuffer();

    std::mutex mutex;
    std::vector<Event> events;
    std::uint32_t tid = 0;
};

struct Registry
{
    std::mutex mutex;
    std::vector<ThreadBuffer *> live;
    std::vector<Event> retired;   ///< events from exited threads
    std::uint32_t nextTid = 1;
    std::chrono::steady_clock::time_point epoch;
    std::string path;
    std::atomic<bool> enabled{false};
    bool started = false;
};

Registry &
registry()
{
    static Registry r;
    return r;
}

thread_local bool t_hasBuffer = false;

ThreadBuffer::ThreadBuffer()
{
    auto &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    tid = r.nextTid++;
    r.live.push_back(this);
    t_hasBuffer = true;
}

ThreadBuffer::~ThreadBuffer()
{
    auto &r = registry();
    std::lock_guard<std::mutex> registry_lock(r.mutex);
    std::lock_guard<std::mutex> buffer_lock(mutex);
    // Retire only into a live session. stop() keeps r.started true
    // until after its drain, so a worker exiting concurrently with
    // stop() either retires here first (and the drain picks the
    // events out of r.retired) or is drained directly — its spans are
    // never dropped. Once the session is over, anything still
    // buffered carries a dead epoch's timestamps and must not
    // resurface in the next session.
    if (r.started) {
        r.retired.insert(r.retired.end(),
                         std::make_move_iterator(events.begin()),
                         std::make_move_iterator(events.end()));
    }
    std::erase(r.live, this);
    t_hasBuffer = false;
}

ThreadBuffer &
threadBuffer()
{
    thread_local ThreadBuffer buffer;
    return buffer;
}

std::uint64_t
nowNs()
{
    return std::uint64_t(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - registry().epoch)
            .count());
}

void
append(Event event)
{
    auto &buffer = threadBuffer();
    event.tid = buffer.tid;
    std::lock_guard<std::mutex> lock(buffer.mutex);
    // Re-check under the buffer mutex: collectJson() holds this mutex
    // while draining, so an append racing with stop() either lands
    // before the drain (and is collected) or — because the mutex
    // hand-off makes stop()'s enabled=false store visible — is
    // dropped here. It can never land in an already-drained buffer
    // and leak into the next session with a stale-epoch timestamp.
    if (!registry().enabled.load(std::memory_order_relaxed))
        return;
    buffer.events.push_back(std::move(event));
}

void
formatEvent(std::string &out, const Event &event)
{
    char num[64];
    out += "{\"name\":";
    out += jsonQuote(event.name);
    out += ",\"cat\":";
    out += jsonQuote(event.cat);
    out += ",\"ph\":\"";
    out += event.phase;
    out += '"';
    std::snprintf(num, sizeof(num), ",\"ts\":%.3f",
                  double(event.tsNs) / 1000.0);
    out += num;
    if (event.phase == 'X') {
        std::snprintf(num, sizeof(num), ",\"dur\":%.3f",
                      double(event.durNs) / 1000.0);
        out += num;
    }
    std::snprintf(num, sizeof(num), ",\"pid\":1,\"tid\":%u", event.tid);
    out += num;
    if (event.phase == 'i')
        out += ",\"s\":\"t\"";
    if (!event.args.empty()) {
        out += ",\"args\":";
        out += event.args;
    }
    out += '}';
}

/** Gather every buffered event (clearing the buffers) and render. */
std::string
collectJson()
{
    auto &r = registry();
    std::vector<Event> all;
    {
        std::lock_guard<std::mutex> lock(r.mutex);
        all = std::move(r.retired);
        r.retired.clear();
        for (ThreadBuffer *buffer : r.live) {
            std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
            all.insert(all.end(),
                       std::make_move_iterator(buffer->events.begin()),
                       std::make_move_iterator(buffer->events.end()));
            buffer->events.clear();
        }
    }
    std::stable_sort(all.begin(), all.end(),
                     [](const Event &a, const Event &b) {
                         if (a.tsNs != b.tsNs)
                             return a.tsNs < b.tsNs;
                         return a.tid < b.tid;
                     });

    std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    for (const Event &event : all) {
        if (!first)
            out += ",\n";
        first = false;
        formatEvent(out, event);
    }
    out += "]}\n";
    return out;
}

} // namespace

bool
enabled()
{
    return registry().enabled.load(std::memory_order_relaxed);
}

void
start(const std::string &path)
{
    auto &r = registry();
    if (r.enabled.load(std::memory_order_relaxed))
        TEPIC_WARN("trace::start() while already tracing; restarting");
    r.enabled.store(false, std::memory_order_relaxed);
    {
        std::lock_guard<std::mutex> lock(r.mutex);
        r.retired.clear();
        for (ThreadBuffer *buffer : r.live) {
            std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
            buffer->events.clear();
        }
        r.path = path;
        r.epoch = std::chrono::steady_clock::now();
        r.started = true;
    }
    r.enabled.store(true, std::memory_order_release);
}

bool
stop()
{
    auto &r = registry();
    {
        std::lock_guard<std::mutex> lock(r.mutex);
        if (!r.started)
            return true;
    }
    r.enabled.store(false, std::memory_order_relaxed);
    // r.started stays true across the drain so threads exiting right
    // now (a ThreadPool draining on destruct) still retire their
    // buffers into r.retired where collectJson() finds them.
    const std::string json = collectJson();
    std::string path;
    {
        std::lock_guard<std::mutex> lock(r.mutex);
        r.started = false;
        path = r.path;
        r.path.clear();
    }
    return path.empty() || writeTextFile(path, json, "trace");
}

std::string
stopToJson()
{
    auto &r = registry();
    r.enabled.store(false, std::memory_order_relaxed);
    // Same retirement ordering as stop(): drain first, then end the
    // session.
    const std::string json = collectJson();
    {
        std::lock_guard<std::mutex> lock(r.mutex);
        r.started = false;
        r.path.clear();
    }
    return json;
}

void
instant(const char *name, const char *cat)
{
    if (!enabled())
        return;
    Event event;
    event.name = name;
    event.cat = cat;
    event.phase = 'i';
    event.tsNs = nowNs();
    append(std::move(event));
}

Span::Span(const char *name, std::string_view cat)
{
    if (!enabled())
        return;
    name_ = name;
    cat_ = cat;
    startNs_ = nowNs();
    active_ = true;
}

Span::Span(const char *name, std::string_view cat, std::string args)
{
    if (!enabled())
        return;
    name_ = name;
    cat_ = cat;
    args_ = std::move(args);
    startNs_ = nowNs();
    active_ = true;
}

Span::~Span()
{
    // A span that straddles stop() is dropped rather than recorded
    // into the next session: the enabled() check here pairs with the
    // one in the constructor.
    if (!active_ || !enabled())
        return;
    Event event;
    event.name = name_;
    event.cat = cat_;
    event.phase = 'X';
    event.tsNs = startNs_;
    event.durNs = nowNs() - startNs_;
    event.args = std::move(args_);
    append(std::move(event));
}

bool
threadHasBuffer()
{
    return t_hasBuffer;
}

std::size_t
pendingEvents()
{
    auto &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    std::size_t n = r.retired.size();
    for (ThreadBuffer *buffer : r.live) {
        std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
        n += buffer->events.size();
    }
    return n;
}

} // namespace tepic::support::trace
