#include "satori/harness/trace.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <iomanip>
#include <sstream>

#include "satori/common/logging.hpp"

namespace satori {
namespace harness {

namespace {

/** Format a double the way the pre-buffered writer did (10 digits). */
std::string
num(double value)
{
    std::ostringstream os;
    os << std::setprecision(10) << value;
    return os.str();
}

/** "<msg>: <path>: <strerror>" with errno captured eagerly. */
std::string
describeIoError(const std::string& msg, const std::string& path)
{
    const int err = errno;
    return msg + ": " + path + ": " +
           (err != 0 ? std::strerror(err) : "unknown error");
}

} // namespace

TraceWriter::TraceWriter(const std::string& path, TraceFormat format,
                         std::size_t flush_every)
    : path_(path), tmp_path_(path + ".tmp"),
      out_(tmp_path_, std::ios::binary | std::ios::trunc),
      format_(format), flush_every_(flush_every)
{
    if (!out_.good())
        SATORI_FATAL(describeIoError("cannot open trace file", tmp_path_));
}

TraceWriter::~TraceWriter()
{
    // Destructors must not throw: report finalization failures to
    // stderr and leave the .tmp file behind as evidence.
    try {
        close();
    } catch (const std::exception& e) {
        std::fprintf(stderr, "satori: trace finalization failed: %s\n",
                     e.what());
    }
}

void
TraceWriter::write(const TraceRecord& record)
{
    switch (format_) {
      case TraceFormat::Csv:
        if (!header_written_) {
            writeCsvHeader(record);
            header_written_ = true;
        }
        writeCsv(record);
        break;
      case TraceFormat::JsonLines:
        writeJson(record);
        break;
    }
    ++count_;
    ++buffered_;
    if (flush_every_ > 0 && buffered_ >= flush_every_)
        flush();
}

void
TraceWriter::writeCsvHeader(const TraceRecord& record)
{
    buffer_ += "time,policy,config,throughput,fairness";
    for (std::size_t j = 0; j < record.ips.size(); ++j)
        buffer_ += ",ips_" + std::to_string(j);
    for (std::size_t j = 0; j < record.speedups.size(); ++j)
        buffer_ += ",speedup_" + std::to_string(j);
    buffer_ += ",faults\n";
}

void
TraceWriter::writeCsv(const TraceRecord& record)
{
    buffer_ += num(record.time) + "," + record.policy + ",\"" +
               record.config.toString() + "\"," +
               num(record.throughput) + "," + num(record.fairness);
    for (double v : record.ips) {
        buffer_ += ",";
        buffer_ += num(v);
    }
    for (double v : record.speedups) {
        buffer_ += ",";
        buffer_ += num(v);
    }
    buffer_ += ",\"" + record.faults + "\"\n";
}

void
TraceWriter::writeJson(const TraceRecord& record)
{
    buffer_ += "{\"time\":" + num(record.time) + ",\"policy\":\"" +
               record.policy + "\",\"config\":\"" +
               record.config.toString() +
               "\",\"throughput\":" + num(record.throughput) +
               ",\"fairness\":" + num(record.fairness);
    buffer_ += ",\"ips\":[";
    for (std::size_t j = 0; j < record.ips.size(); ++j) {
        if (j > 0)
            buffer_ += ",";
        buffer_ += num(record.ips[j]);
    }
    buffer_ += "],\"speedups\":[";
    for (std::size_t j = 0; j < record.speedups.size(); ++j) {
        if (j > 0)
            buffer_ += ",";
        buffer_ += num(record.speedups[j]);
    }
    buffer_ += "],\"faults\":\"" + record.faults + "\"}\n";
}

void
TraceWriter::flush()
{
    SATORI_ASSERT(!closed_);
    if (!buffer_.empty()) {
        out_ << buffer_;
        buffer_.clear();
    }
    buffered_ = 0;
    out_.flush();
    if (!out_.good())
        SATORI_FATAL(describeIoError("write to trace file failed",
                                     tmp_path_));
}

void
TraceWriter::close()
{
    if (closed_)
        return;
    flush();
    out_.close();
    if (out_.fail())
        SATORI_FATAL(describeIoError("closing trace file failed",
                                     tmp_path_));
    if (std::rename(tmp_path_.c_str(), path_.c_str()) != 0)
        SATORI_FATAL(describeIoError("installing trace file '" + path_ +
                                         "' failed",
                                     tmp_path_));
    closed_ = true;
}

} // namespace harness
} // namespace satori
