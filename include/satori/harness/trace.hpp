/**
 * @file
 * Structured experiment tracing: the harness's per-interval records
 * (time, config, per-job IPS/speedups, metrics, fault flags) streamed
 * to CSV or JSON Lines, so runs can be analyzed or re-plotted outside
 * the harness.
 */

#ifndef SATORI_HARNESS_TRACE_HPP
#define SATORI_HARNESS_TRACE_HPP

#include <fstream>
#include <string>

#include "satori/persist/wal.hpp"

namespace satori {
namespace harness {

/** Output encoding for a trace file. */
enum class TraceFormat
{
    Csv,       ///< One flat row per interval.
    JsonLines, ///< One JSON object per line.
};

/**
 * Streams interval records to a file. The writer is format-stable:
 * the CSV header (or JSON keys) are fixed by the first record's job
 * count. The record's interval index and decision are not written.
 *
 * Records are formatted into an in-memory buffer and written to the
 * file every 256 records (and on flush()/destruction) rather than
 * per interval, so tracing a 100 ms decision loop does not put a
 * filesystem round-trip on every control interval.
 *
 * Durability: records stream into "<path>.tmp"; close() (or the
 * destructor) renames the finished file into place, so readers never
 * observe a partially written trace and a crashed run leaves at most
 * a stale .tmp behind. Every write is checked - a full disk or a
 * revoked mount raises FatalError naming the file and errno instead
 * of silently truncating the trace.
 */
class TraceWriter
{
  public:
    /**
     * Open "<path>.tmp" for writing; close() installs @p path.
     * @throws FatalError (with errno) if the file cannot be created.
     */
    TraceWriter(const std::string& path, TraceFormat format);

    /** Finalizes via close(); failures are reported to stderr. */
    ~TraceWriter();

    TraceWriter(const TraceWriter&) = delete;
    TraceWriter& operator=(const TraceWriter&) = delete;

    /** Append one record of @p policy's run (buffered). */
    void write(const persist::IntervalRecord& record,
               const std::string& policy);

    /** Records written so far. */
    [[nodiscard]] std::size_t count() const { return count_; }

    /** Write buffered records to the .tmp file and flush it. */
    void flush();

    /**
     * Flush, close the .tmp file, and atomically rename it to the
     * final path. Idempotent; called by the destructor if the caller
     * did not. @throws FatalError (with errno) on any failure.
     */
    void close();

  private:
    void writeCsvHeader(const persist::IntervalRecord& record);
    void writeCsv(const persist::IntervalRecord& record,
                  const std::string& policy);
    void writeJson(const persist::IntervalRecord& record,
                   const std::string& policy);

    std::string path_;     ///< Final path installed by close().
    std::string tmp_path_; ///< In-progress file (path_ + ".tmp").
    std::ofstream out_;
    TraceFormat format_;
    std::string buffer_;
    std::size_t buffered_ = 0; ///< Records in buffer_ since last flush.
    std::size_t count_ = 0;
    bool header_written_ = false;
    bool closed_ = false;
};

} // namespace harness
} // namespace satori

#endif // SATORI_HARNESS_TRACE_HPP
