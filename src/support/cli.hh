/**
 * @file
 * The one command-line layer of tepicc, tepic-sweep and the bench
 * harness. A binary declares its flags as a table of cli::Flag and
 * parses inside checked(). Every rejected flag or value — an unknown
 * flag, a bad number, an unknown name or --log-level, or a
 * support::FatalError from a lookup such as workloads::workloadByName
 * — prints one "<prog>: <message>" line and the usage to stderr and
 * exits 2; none reaches std::terminate.
 */

#ifndef TEPIC_SUPPORT_CLI_HH
#define TEPIC_SUPPORT_CLI_HH

#include <functional>
#include <initializer_list>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tepic::support::cli {

/** Largest --jobs value; a larger one never reaches a thread pool. */
inline constexpr unsigned kMaxJobs = 1024;

/**
 * Largest value of a size flag (sets, ways, line bytes, L0 ops, ATB
 * entries, cache KB): each sizes one simulated table, so a larger one
 * never reaches an allocation.
 */
inline constexpr unsigned kMaxTableSize = 65536;

/** A rejected flag or value; checked() exits 2 on it. */
class UsageError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * One declared flag. A name ending in '=' takes the rest of the
 * argument as its value; any other name matches exactly.
 */
struct Flag
{
    std::string_view name;
    std::function<void(const std::string &value)> set;
};

/**
 * @p text as a decimal unsigned of at most @p max into @p out: digits
 * only, no sign, blank or overflow. False (and @p out untouched) on
 * anything else.
 */
bool readUnsigned(std::string_view text, unsigned max, unsigned &out);

/** "--name=": store the value. */
Flag text(std::string_view name, std::string &target);

/** "--jobs=": decimal digits, 0 (hardware) up to kMaxJobs. */
Flag jobs(unsigned &target);

/** "--name=": a non-empty comma-separated list of integers from 1 to
 *  kMaxTableSize. */
Flag positiveList(std::string_view name, std::vector<unsigned> &target);

/**
 * Match argv[1..] against @p flags and --log-level= (which overrides
 * TEPIC_LOG). An argument that starts with '-' and matches none is a
 * UsageError. Returns the unmatched arguments in order.
 */
std::vector<char *> parse(int argc, char **argv,
                          std::span<const Flag> flags);

/** The non-empty items of a comma-separated list. */
std::vector<std::string> splitCsv(std::string_view csv);

/** Run @p stage; a UsageError or FatalError from it exits 2. */
void checked(std::string_view prog, std::string_view usage,
             const std::function<void()> &stage);

template <typename T>
using Choices = std::initializer_list<std::pair<std::string_view, T>>;

/** @p text's value among @p choices. */
template <typename T>
T
choice(std::string_view flag, std::string_view text, Choices<T> choices)
{
    std::string expected;
    for (const auto &[name, value] : choices) {
        if (name == text)
            return value;
        (expected += expected.empty() ? "" : "|") += name;
    }
    throw UsageError("unknown " + std::string(flag) + " value '" +
                     std::string(text) + "' (expected " + expected + ")");
}

/** A non-empty comma-separated list of @p choices. */
template <typename T>
std::vector<T>
choiceList(std::string_view flag, std::string_view csv, Choices<T> choices)
{
    std::vector<T> out;
    for (const std::string &item : splitCsv(csv))
        out.push_back(choice(flag, item, choices));
    if (out.empty())
        throw UsageError(std::string(flag) + " is empty");
    return out;
}

} // namespace tepic::support::cli

#endif // TEPIC_SUPPORT_CLI_HH
