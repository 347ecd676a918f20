/**
 * @file
 * Crash-safe file plumbing shared by the persist subsystem, the
 * trace writer, and the observability exporters: atomic temp-file +
 * rename installs (a reader never sees a half-written file), whole-
 * file reads, up-front output-path validation so CLI runs fail
 * before the experiment instead of 30 simulated seconds into it, and
 * the one number format and string escape of every text export.
 * The helpers live in common (not persist) because the obs layer
 * sits below persist in the architecture DAG yet installs its
 * exports with the same atomic rename.
 *
 * Every failure throws FatalError naming the path and the errno
 * string - no silent truncation, no mystery exit codes.
 */

#ifndef SATORI_COMMON_IO_HPP
#define SATORI_COMMON_IO_HPP

#include <string>
#include <string_view>

namespace satori {

/**
 * Write @p content to @p path atomically: the bytes land in
 * "<path>.tmp", are flushed (and, with @p sync, fsync'd), and the
 * temp file is renamed over @p path. A crash at any point leaves
 * either the old file or no file - never a truncated one that parses
 * as complete.
 *
 * @param sync fsync before the rename, so the bytes survive an OS
 *        crash, not just process death. Callers on a hot path whose
 *        data is recoverable elsewhere (snapshots, which the WAL can
 *        always rebuild) pass false; the rename is still atomic.
 *
 * @throws FatalError (path + errno) on any I/O failure.
 */
void atomicWriteFile(const std::string& path, std::string_view content,
                     bool sync = true);

/**
 * Read the whole of @p path into a string.
 * @throws FatalError (path + errno) if the file cannot be read.
 */
[[nodiscard]] std::string readFile(const std::string& path);

/** True if @p path exists (file or directory). */
[[nodiscard]] bool pathExists(const std::string& path);

/**
 * Validate that @p path names a file in an existing, writable
 * directory, without creating anything. @p flag names the CLI option
 * for the diagnostic ("--trace").
 *
 * @throws FatalError "--trace: directory 'X' does not exist" /
 *         "... is not writable" when the parent directory is absent
 *         or read-only.
 */
void validateOutputFile(const std::string& flag, const std::string& path);

/**
 * Validate @p path as an output directory, creating it (and missing
 * parents) when absent. @p flag names the CLI option.
 *
 * @throws FatalError when the path exists but is not a directory, is
 *         not writable, or cannot be created.
 */
void validateOutputDir(const std::string& flag, const std::string& path);

/**
 * @p value with 10 significant digits and no trailing-zero noise: the
 * number format of the trace, the metrics exports, the audit channel,
 * the stats history and the watchdog, so their goldens line up.
 */
[[nodiscard]] std::string formatNumber(double value);

/**
 * Escape free text for a JSON string value or a Prometheus HELP line:
 * '"' and '\\' get a backslash, a newline becomes "\\n".
 */
[[nodiscard]] std::string escapeText(const std::string& text);

} // namespace satori

#endif // SATORI_COMMON_IO_HPP
