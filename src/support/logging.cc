#include "support/logging.hh"

#include <atomic>
#include <cstdio>
#include <cstring>
#include <stdexcept>

namespace tepic::support {

namespace {

/**
 * Render "prefix + msg + '\n'" into one buffer and hand it to stderr
 * in a single write, so concurrent messages stay line-atomic.
 */
void
writeLine(const char *prefix, const std::string &msg)
{
    std::string line;
    line.reserve(std::strlen(prefix) + msg.size() + 1);
    line += prefix;
    line += msg;
    line += '\n';
    std::fwrite(line.data(), 1, line.size(), stderr);
    std::fflush(stderr);
}

/** CLI override; -1 = unset (fall back to $TEPIC_LOG). */
std::atomic<int> log_override{-1};

} // namespace

LogLevel
parseLogLevel(const char *name)
{
    if (!name)
        return LogLevel::kInfo;
    if (std::strcmp(name, "debug") == 0)
        return LogLevel::kDebug;
    if (std::strcmp(name, "info") == 0)
        return LogLevel::kInfo;
    if (std::strcmp(name, "warn") == 0)
        return LogLevel::kWarn;
    if (std::strcmp(name, "error") == 0)
        return LogLevel::kError;
    if (std::strcmp(name, "none") == 0 ||
        std::strcmp(name, "quiet") == 0) {
        return LogLevel::kNone;
    }
    return LogLevel::kInfo;
}

bool
isLogLevelName(const char *name)
{
    if (!name)
        return false;
    for (const char *known :
         {"debug", "info", "warn", "error", "none", "quiet"}) {
        if (std::strcmp(name, known) == 0)
            return true;
    }
    return false;
}

LogLevel
logThreshold()
{
    const int override_level =
        log_override.load(std::memory_order_relaxed);
    if (override_level >= 0)
        return LogLevel(override_level);
    static const LogLevel threshold =
        parseLogLevel(std::getenv("TEPIC_LOG"));
    return threshold;
}

void
setLogThreshold(LogLevel level)
{
    log_override.store(int(level), std::memory_order_relaxed);
}

bool
logEnabled(LogLevel level)
{
    return int(level) >= int(logThreshold());
}

void
panicImpl(const char *file, int line, const std::string &msg)
{
    // Always printed, regardless of TEPIC_LOG.
    writeLine("panic: ",
              msg + " (" + file + ":" + std::to_string(line) + ")");
    // Throwing (rather than abort()) lets tests exercise failure paths;
    // uncaught it still terminates the process with a diagnostic.
    throw std::logic_error("panic: " + msg);
}

FatalError::FatalError(const std::string &msg, const char *file,
                       int line)
    : std::runtime_error(msg + " (" + file + ":" + std::to_string(line) +
                         ")"),
      message_(msg)
{
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    throw FatalError(msg, file, line);
}

void
warnImpl(const std::string &msg)
{
    if (logEnabled(LogLevel::kWarn))
        writeLine("warn: ", msg);
}

void
informImpl(const std::string &msg)
{
    if (logEnabled(LogLevel::kInfo))
        writeLine("info: ", msg);
}

void
debugImpl(const std::string &msg)
{
    if (logEnabled(LogLevel::kDebug))
        writeLine("debug: ", msg);
}

} // namespace tepic::support
