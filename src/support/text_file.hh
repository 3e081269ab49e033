/**
 * @file
 * The one checked text-file writer behind every report, metrics
 * snapshot, trace and collapsed-stack output: open, write and close
 * are all checked, so a full disk or an unwritable path is a warning
 * plus a false return, never a silently truncated file. The tools
 * whose deliverable is standard output check it the same way.
 */

#ifndef TEPIC_SUPPORT_TEXT_FILE_HH
#define TEPIC_SUPPORT_TEXT_FILE_HH

#include <string>

namespace tepic::support {

/**
 * Write @p text to @p path (truncating). Warns, naming @p what (e.g.
 * "metrics") and the OS error, and returns false if the file cannot be
 * opened, written in full or closed.
 */
bool writeTextFile(const std::string &path, const std::string &text,
                   const char *what);

/**
 * The exit status of program @p prog, which writes to standard output:
 * @p status if every write to stdout succeeded, checked by flushing
 * it; otherwise one "<prog>: cannot write standard output" line on
 * stderr and 1. Call it as main() returns.
 */
int stdoutStatus(const char *prog, int status);

} // namespace tepic::support

#endif // TEPIC_SUPPORT_TEXT_FILE_HH
