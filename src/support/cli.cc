#include "support/cli.hh"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>

#include "support/logging.hh"

namespace tepic::support::cli {

bool
readUnsigned(std::string_view text, unsigned max, unsigned &out)
{
    // from_chars takes no sign or blanks for an unsigned type and
    // reports overflow.
    const char *last = text.data() + text.size();
    unsigned value = 0;
    const auto [end, error] = std::from_chars(text.data(), last, value);
    if (error != std::errc() || end != last || value > max)
        return false;
    out = value;
    return true;
}

namespace {

void
setLogLevel(const std::string &level)
{
    if (!isLogLevelName(level.c_str())) {
        throw UsageError("unknown --log-level '" + level +
                         "' (expected debug|info|warn|error|none)");
    }
    setLogThreshold(parseLogLevel(level.c_str()));
}

} // namespace

Flag
text(std::string_view name, std::string &target)
{
    return {name, [&target](const std::string &v) { target = v; }};
}

Flag
jobs(unsigned &target)
{
    return {"--jobs=", [&target](const std::string &v) {
        if (!readUnsigned(v, kMaxJobs, target)) {
            throw UsageError("--jobs wants a non-negative integer up to " +
                             std::to_string(kMaxJobs) + ", got '" + v + "'");
        }
    }};
}

Flag
positiveList(std::string_view name, std::vector<unsigned> &target)
{
    return {name, [name, &target](const std::string &csv) {
        const std::string_view flag = name.substr(0, name.size() - 1);
        target.clear();
        for (const std::string &item : splitCsv(csv)) {
            unsigned value = 0;
            if (!readUnsigned(item, kMaxTableSize, value) || value == 0) {
                throw UsageError(std::string(flag) +
                                 " wants integers from 1 to " +
                                 std::to_string(kMaxTableSize) + ", got '" +
                                 item + "'");
            }
            target.push_back(value);
        }
        if (target.empty())
            throw UsageError(std::string(flag) + " is empty");
    }};
}

std::vector<char *>
parse(int argc, char **argv, std::span<const Flag> flags,
      bool (*pass_through)(std::string_view))
{
    static const Flag kLogLevel{"--log-level=", setLogLevel};
    std::vector<char *> rest;
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        const auto matches = [&](const Flag &flag) {
            return flag.name.ends_with('=') ? arg.starts_with(flag.name)
                                            : arg == flag.name;
        };
        const auto it = std::find_if(flags.begin(), flags.end(), matches);
        const Flag *match = it != flags.end()  ? &*it
                            : matches(kLogLevel) ? &kLogLevel
                                                 : nullptr;
        if (match != nullptr)
            match->set(match->name.ends_with('=')
                           ? std::string(arg.substr(match->name.size()))
                           : std::string());
        else if (arg.size() > 1 && arg[0] == '-' &&
                 !(pass_through && pass_through(arg)))
            throw UsageError("unknown flag '" + std::string(arg) + "'");
        else
            rest.push_back(argv[i]);
    }
    return rest;
}

bool
googleBenchmarkArg(std::string_view arg)
{
    return !arg.starts_with("--") || arg.starts_with("--benchmark_") ||
           arg.starts_with("--v=");
}

std::vector<std::string>
splitCsv(std::string_view csv)
{
    std::vector<std::string> out;
    for (std::size_t pos = 0; pos <= csv.size();) {
        const std::size_t comma = std::min(csv.find(',', pos), csv.size());
        if (comma > pos)
            out.emplace_back(csv.substr(pos, comma - pos));
        pos = comma + 1;
    }
    return out;
}

void
checked(std::string_view prog, std::string_view usage,
        const std::function<void()> &stage)
{
    std::string message;
    try {
        stage();
        return;
    } catch (const UsageError &error) {
        message = error.what();
    } catch (const FatalError &error) {
        message = error.message();
    }
    std::fprintf(stderr, "%.*s: %s\n", int(prog.size()), prog.data(),
                 message.c_str());
    std::fwrite(usage.data(), 1, usage.size(), stderr);
    std::exit(2);
}

} // namespace tepic::support::cli
