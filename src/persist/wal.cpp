#include "satori/persist/wal.hpp"

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <system_error>

#include "satori/common/io.hpp"
#include "satori/common/logging.hpp"
#include "satori/persist/state.hpp"

namespace satori {
namespace persist {

namespace {

constexpr std::string_view kMagic = "SATWAL01";
constexpr std::size_t kHeaderBytes = 20;
constexpr std::size_t kFrameHeaderBytes = 8; ///< u32 len + u32 crc.

[[nodiscard]] std::string
errnoText()
{
    return std::strerror(errno);
}

[[nodiscard]] std::string
encodeHeader(std::uint32_t fingerprint_crc)
{
    StateWriter w;
    for (const char c : kMagic)
        w.putU8(static_cast<std::uint8_t>(c));
    w.putU32(kWalFormatVersion);
    w.putU32(fingerprint_crc);
    w.putU32(crc32(w.bytes()));
    return w.takeBytes();
}

[[nodiscard]] std::string
encodeFrame(const IntervalRecord& record)
{
    StateWriter payload;
    record.encode(payload);
    StateWriter frame;
    frame.putU32(static_cast<std::uint32_t>(payload.bytes().size()));
    frame.putU32(crc32(payload.bytes()));
    std::string out = frame.takeBytes();
    out += payload.bytes();
    return out;
}

} // namespace

void
IntervalRecord::encode(StateWriter& w) const
{
    w.putU64(interval);
    w.putDouble(time);
    putConfiguration(w, config);
    w.putDoubleVec(ips);
    w.putDoubleVec(speedups);
    w.putDouble(throughput);
    w.putDouble(fairness);
    w.putString(faults);
    putConfiguration(w, decision);
}

IntervalRecord
IntervalRecord::decode(StateReader& r)
{
    IntervalRecord rec;
    rec.interval = r.getU64();
    rec.time = r.getDouble();
    rec.config = getConfiguration(r);
    rec.ips = r.getDoubleVec();
    rec.speedups = r.getDoubleVec();
    rec.throughput = r.getDouble();
    rec.fairness = r.getDouble();
    rec.faults = r.getString();
    rec.decision = getConfiguration(r);
    return rec;
}

WalReadResult
readWal(const std::string& path, std::uint32_t fingerprint_crc)
{
    const std::string data = readFile(path);
    WalReadResult result;
    if (data.size() < kHeaderBytes)
        SATORI_FATAL(path + ": too short for a WAL header (" +
                     std::to_string(data.size()) + " bytes)");
    if (std::string_view(data).substr(0, 8) != kMagic)
        SATORI_FATAL(path + ": bad magic at offset 0 (not a SATORI WAL)");
    StateReader header(std::string_view(data).substr(0, kHeaderBytes),
                       path);
    for (int i = 0; i < 8; ++i)
        (void)header.getU8();
    const std::uint32_t version = header.getU32();
    if (version != kWalFormatVersion)
        SATORI_FATAL(path + ": WAL format version " +
                     std::to_string(version) + " at offset 8, expected " +
                     std::to_string(kWalFormatVersion) +
                     " (re-run without --resume to regenerate)");
    const std::uint32_t fp = header.getU32();
    if (fp != fingerprint_crc)
        SATORI_FATAL(path + ": fingerprint mismatch at offset 12 (WAL "
                     "belongs to a different run configuration)");
    const std::uint32_t stored_crc = header.getU32();
    const std::uint32_t computed_crc =
        crc32(std::string_view(data).substr(0, kHeaderBytes - 4));
    if (stored_crc != computed_crc)
        SATORI_FATAL(path + ": header CRC mismatch at offset 16 (stored " +
                     std::to_string(stored_crc) + ", computed " +
                     std::to_string(computed_crc) + ")");

    std::size_t pos = kHeaderBytes;
    while (pos < data.size()) {
        if (data.size() - pos < kFrameHeaderBytes) {
            result.torn_tail = true; // frame header cut off mid-write
            break;
        }
        StateReader frame(
            std::string_view(data).substr(pos, kFrameHeaderBytes), path);
        const std::uint32_t len = frame.getU32();
        const std::uint32_t payload_crc = frame.getU32();
        if (data.size() - pos - kFrameHeaderBytes < len) {
            result.torn_tail = true; // payload cut off mid-write
            break;
        }
        const std::string_view payload = std::string_view(data).substr(
            pos + kFrameHeaderBytes, len);
        const std::uint32_t computed = crc32(payload);
        if (computed != payload_crc)
            SATORI_FATAL(path + ": record " +
                         std::to_string(result.records.size()) +
                         " CRC mismatch at offset " +
                         std::to_string(pos + kFrameHeaderBytes) +
                         " (stored " + std::to_string(payload_crc) +
                         ", computed " + std::to_string(computed) +
                         "): WAL is corrupt, not merely torn");
        StateReader r(payload,
                      path + "[record " +
                          std::to_string(result.records.size()) + "]");
        result.records.push_back(IntervalRecord::decode(r));
        r.expectEnd();
        pos += kFrameHeaderBytes + len;
    }
    result.valid_bytes = pos;
    return result;
}

WalWriter::WalWriter(std::FILE* file, std::string path,
                     std::uint64_t bytes)
    : file_(file), path_(std::move(path)), bytes_(bytes)
{
}

WalWriter::WalWriter(WalWriter&& other) noexcept
    : file_(other.file_), path_(std::move(other.path_)),
      bytes_(other.bytes_)
{
    other.file_ = nullptr;
}

WalWriter::~WalWriter()
{
    if (file_ != nullptr)
        std::fclose(file_);
}

WalWriter
WalWriter::create(const std::string& path, std::uint32_t fingerprint_crc)
{
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr)
        SATORI_FATAL("cannot create WAL: " + path + ": " + errnoText());
    const std::string header = encodeHeader(fingerprint_crc);
    if (std::fwrite(header.data(), 1, header.size(), f) != header.size() ||
        std::fflush(f) != 0) {
        std::fclose(f);
        SATORI_FATAL("cannot write WAL header: " + path + ": " +
                     errnoText());
    }
    return WalWriter(f, path, header.size());
}

WalWriter
WalWriter::resume(const std::string& path, std::uint64_t valid_bytes)
{
    std::error_code ec;
    std::filesystem::resize_file(path, valid_bytes, ec);
    if (ec)
        SATORI_FATAL("cannot truncate WAL torn tail: " + path + ": " +
                     ec.message());
    std::FILE* f = std::fopen(path.c_str(), "ab");
    if (f == nullptr)
        SATORI_FATAL("cannot reopen WAL: " + path + ": " + errnoText());
    return WalWriter(f, path, valid_bytes);
}

void
WalWriter::append(const IntervalRecord& record)
{
    const std::string frame = encodeFrame(record);
    if (std::fwrite(frame.data(), 1, frame.size(), file_) !=
            frame.size() ||
        std::fflush(file_) != 0)
        SATORI_FATAL("WAL append failed: " + path_ + ": " + errnoText());
    bytes_ += frame.size();
}

void
WalWriter::appendTorn(const IntervalRecord& record)
{
    const std::string frame = encodeFrame(record);
    const std::size_t cut = frame.size() / 2;
    if (std::fwrite(frame.data(), 1, cut, file_) != cut ||
        std::fflush(file_) != 0)
        SATORI_FATAL("WAL torn append failed: " + path_ + ": " +
                     errnoText());
    bytes_ += cut;
}

} // namespace persist
} // namespace satori
