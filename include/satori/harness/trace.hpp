/**
 * @file
 * Structured experiment tracing: per-interval records (time, config,
 * per-job IPS/speedups, metrics, weights) streamed to CSV or JSON
 * Lines, so runs can be analyzed or re-plotted outside the harness.
 */

#ifndef SATORI_HARNESS_TRACE_HPP
#define SATORI_HARNESS_TRACE_HPP

#include <fstream>
#include <string>
#include <vector>

#include "satori/common/types.hpp"
#include "satori/config/configuration.hpp"

namespace satori {
namespace harness {

/** One interval's trace record. */
struct TraceRecord
{
    Seconds time = 0.0;
    std::string policy;
    Configuration config;
    std::vector<Ips> ips;
    std::vector<double> speedups;
    double throughput = 0.0; ///< Normalized.
    double fairness = 0.0;

    /**
     * Faults injected during the interval, as the injector's compact
     * flags (e.g. "spike(j0)|noact"); empty for a clean interval or
     * an un-instrumented run.
     */
    std::string faults;
};

/** Output encoding for a trace file. */
enum class TraceFormat
{
    Csv,       ///< One flat row per interval.
    JsonLines, ///< One JSON object per line.
};

/**
 * Streams TraceRecords to a file. The writer is format-stable: the
 * CSV header (or JSON keys) are fixed by the first record's job
 * count.
 *
 * Records are formatted into an in-memory buffer and written to the
 * file every flush_every records (and on flush()/destruction) rather
 * than per interval, so tracing a 100 ms decision loop does not put
 * a filesystem round-trip on every control interval.
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
     *
     * @param flush_every Records buffered between writes to the file;
     *        0 buffers the whole run until flush()/destruction.
     */
    TraceWriter(const std::string& path, TraceFormat format,
                std::size_t flush_every = 256);

    /** Finalizes via close(); failures are reported to stderr. */
    ~TraceWriter();

    TraceWriter(const TraceWriter&) = delete;
    TraceWriter& operator=(const TraceWriter&) = delete;

    /** Append one record (buffered; see flush_every). */
    void write(const TraceRecord& record);

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
    void writeCsvHeader(const TraceRecord& record);
    void writeCsv(const TraceRecord& record);
    void writeJson(const TraceRecord& record);

    std::string path_;     ///< Final path installed by close().
    std::string tmp_path_; ///< In-progress file (path_ + ".tmp").
    std::ofstream out_;
    TraceFormat format_;
    std::size_t flush_every_;
    std::string buffer_;
    std::size_t buffered_ = 0; ///< Records in buffer_ since last flush.
    std::size_t count_ = 0;
    bool header_written_ = false;
    bool closed_ = false;
};

} // namespace harness
} // namespace satori

#endif // SATORI_HARNESS_TRACE_HPP
