/**
 * @file
 * The one checked text-file writer behind every report, metrics
 * snapshot, trace and collapsed-stack output: open, write and close
 * are all checked, so a full disk or an unwritable path is a warning
 * plus a false return, never a silently truncated file.
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

} // namespace tepic::support

#endif // TEPIC_SUPPORT_TEXT_FILE_HH
