/**
 * @file
 * Error-reporting and logging helpers.
 *
 * Follows the gem5 convention: panic() for internal invariant violations
 * (a bug in this library), fatal() for conditions caused by user input
 * (bad source program, impossible configuration), warn()/inform()/
 * debug() for non-fatal status messages. fatal() prints nothing: it
 * throws a FatalError, and the program that catches it prints one
 * diagnostic naming its input.
 *
 * Severity filtering: the TEPIC_LOG environment variable (one of
 * debug, info, warn, error, none) sets the minimum level that prints;
 * the default is info (debug messages are dropped). panic diagnostics
 * always print.
 *
 * Concurrency: every message is rendered into one string (prefix,
 * body and newline) and written with a single stderr write, so
 * messages from engine worker threads never interleave mid-line.
 */

#ifndef TEPIC_SUPPORT_LOGGING_HH
#define TEPIC_SUPPORT_LOGGING_HH

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>

namespace tepic::support {

/** Message severities, in increasing order. */
enum class LogLevel : int {
    kDebug = 0,
    kInfo = 1,
    kWarn = 2,
    kError = 3,
    kNone = 4,  ///< threshold-only: suppress everything
};

/** Parse a level name ("debug".."none"); kInfo on unknown input. */
LogLevel parseLogLevel(const char *name);

/** Whether @p name is a recognised level name for parseLogLevel(). */
bool isLogLevelName(const char *name);

/**
 * The process threshold: an explicit setLogThreshold() override if one
 * was made, else $TEPIC_LOG (parsed once), else kInfo.
 */
LogLevel logThreshold();

/**
 * Override the threshold, taking precedence over $TEPIC_LOG — the
 * hook behind the --log-level= CLI flags of tepicc and the benches.
 */
void setLogThreshold(LogLevel level);

/** Whether a message at @p level would print. */
bool logEnabled(LogLevel level);

/** Terminate due to an internal bug. Never returns. */
[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);

/**
 * A user-caused error (TEPIC_FATAL). what() is "<message> (file:line)",
 * so an uncaught one still names the library source that noticed;
 * message() is the bare text a front end prints after its input name.
 */
class FatalError : public std::runtime_error
{
  public:
    FatalError(const std::string &msg, const char *file, int line);

    const std::string &message() const { return message_; }

  private:
    std::string message_;
};

/** Throw a FatalError. Never returns. */
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);

/** Print a warning to stderr (level kWarn). */
void warnImpl(const std::string &msg);

/** Print an informational message to stderr (level kInfo). */
void informImpl(const std::string &msg);

/** Print a debug message to stderr (level kDebug). */
void debugImpl(const std::string &msg);

namespace detail {

/** Stream-concatenate a variadic argument pack into one string. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << args);
    return os.str();
}

} // namespace detail

} // namespace tepic::support

#define TEPIC_PANIC(...)                                                     \
    ::tepic::support::panicImpl(__FILE__, __LINE__,                          \
        ::tepic::support::detail::concat(__VA_ARGS__))

#define TEPIC_FATAL(...)                                                     \
    ::tepic::support::fatalImpl(__FILE__, __LINE__,                          \
        ::tepic::support::detail::concat(__VA_ARGS__))

#define TEPIC_WARN(...)                                                      \
    ::tepic::support::warnImpl(::tepic::support::detail::concat(__VA_ARGS__))

#define TEPIC_INFORM(...)                                                    \
    ::tepic::support::informImpl(                                            \
        ::tepic::support::detail::concat(__VA_ARGS__))

/** Debug-level log; the argument pack is not rendered when filtered. */
#define TEPIC_DEBUG(...)                                                     \
    do {                                                                     \
        if (::tepic::support::logEnabled(                                    \
                ::tepic::support::LogLevel::kDebug)) {                       \
            ::tepic::support::debugImpl(                                     \
                ::tepic::support::detail::concat(__VA_ARGS__));              \
        }                                                                    \
    } while (0)

/** Assert an internal invariant; compiled in all build types. */
#define TEPIC_ASSERT(cond, ...)                                              \
    do {                                                                     \
        if (!(cond)) {                                                       \
            TEPIC_PANIC("assertion failed: " #cond " ", ##__VA_ARGS__);      \
        }                                                                    \
    } while (0)

#endif // TEPIC_SUPPORT_LOGGING_HH
