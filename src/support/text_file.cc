#include "support/text_file.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "support/logging.hh"

namespace tepic::support {

bool
writeTextFile(const std::string &path, const std::string &text,
              const char *what)
{
    std::FILE *file = std::fopen(path.c_str(), "w");
    if (!file) {
        TEPIC_WARN("cannot open ", what, " output '", path,
                   "': ", std::strerror(errno));
        return false;
    }
    // A buffered write to a full device succeeds and only the flush
    // inside fclose() fails, so both results count.
    const bool written =
        std::fwrite(text.data(), 1, text.size(), file) == text.size();
    const bool closed = std::fclose(file) == 0;
    if (!written || !closed) {
        TEPIC_WARN("cannot write ", what, " output '", path,
                   "': ", std::strerror(errno));
        return false;
    }
    return true;
}

int
stdoutStatus(const char *prog, int status)
{
    // As above, a buffered write fails only at the flush; an earlier
    // failed write leaves the stream's error flag set (and errno long
    // since overwritten, so no reason is given).
    if (std::fflush(stdout) == 0 && !std::ferror(stdout))
        return status;
    std::fprintf(stderr, "%s: cannot write standard output\n", prog);
    return 1;
}

} // namespace tepic::support
