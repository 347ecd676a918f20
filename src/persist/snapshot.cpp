#include "satori/persist/snapshot.hpp"

#include "satori/common/io.hpp"
#include "satori/common/logging.hpp"

namespace satori {
namespace persist {

namespace {

constexpr std::string_view kMagic = "SATSNP01";

} // namespace

StateWriter&
SnapshotWriter::section(const std::string& tag)
{
    for (const auto& [existing, writer] : sections_) {
        (void)writer;
        if (existing == tag)
            SATORI_PANIC("duplicate snapshot section tag: " + tag);
    }
    sections_.emplace_back(tag, StateWriter{});
    return sections_.back().second;
}

std::size_t
SnapshotWriter::payloadBytes() const
{
    std::size_t total = 0;
    for (const auto& [tag, writer] : sections_) {
        (void)tag;
        total += writer.bytes().size();
    }
    return total;
}

void
SnapshotWriter::writeTo(const std::string& path,
                        std::uint32_t fingerprint_crc,
                        std::uint64_t step) const
{
    // The header is hand-rolled (no length-prefixed strings) so the
    // first 8 bytes are the bare magic a hexdump can identify.
    StateWriter file;
    for (const char c : kMagic)
        file.putU8(static_cast<std::uint8_t>(c));
    file.putU32(kSnapshotFormatVersion);
    file.putU32(fingerprint_crc);
    file.putU64(step);
    file.putU32(static_cast<std::uint32_t>(sections_.size()));
    file.putU32(crc32(file.bytes()));
    for (const auto& [tag, writer] : sections_) {
        file.putU32(static_cast<std::uint32_t>(tag.size()));
        for (const char c : tag)
            file.putU8(static_cast<std::uint8_t>(c));
        file.putU32(static_cast<std::uint32_t>(writer.bytes().size()));
        file.putU32(crc32(writer.bytes()));
        for (const char c : writer.bytes())
            file.putU8(static_cast<std::uint8_t>(c));
    }
    // No fsync on the hot path: the WAL (flushed per record) can
    // always rebuild what a lost snapshot held; the rename still
    // guarantees readers never see a half-written file.
    atomicWriteFile(path, file.bytes(), /*sync=*/false);
}

SnapshotReader::SnapshotReader(const std::string& path,
                               std::uint32_t fingerprint_crc)
    : path_(path), data_(readFile(path))
{
    StateReader r(data_, path_);
    if (data_.size() < 32)
        SATORI_FATAL(path_ + ": too short for a snapshot header (" +
                     std::to_string(data_.size()) + " bytes)");
    if (std::string_view(data_).substr(0, 8) != kMagic)
        SATORI_FATAL(path_ + ": bad magic at offset 0 (not a SATORI "
                     "snapshot)");
    const std::uint32_t header_crc = crc32(std::string_view(data_).substr(0, 28));
    for (int i = 0; i < 8; ++i)
        (void)r.getU8();
    const std::uint32_t version = r.getU32();
    if (version != kSnapshotFormatVersion)
        SATORI_FATAL(path_ + ": snapshot format version " +
                     std::to_string(version) + " at offset 8, expected " +
                     std::to_string(kSnapshotFormatVersion) +
                     " (re-run without --resume to regenerate)");
    const std::uint32_t fp = r.getU32();
    if (fp != fingerprint_crc)
        SATORI_FATAL(path_ + ": fingerprint mismatch at offset 12 "
                     "(snapshot belongs to a different run "
                     "configuration)");
    step_ = r.getU64();
    const std::uint32_t count = r.getU32();
    const std::uint32_t stored_crc = r.getU32();
    if (stored_crc != header_crc)
        SATORI_FATAL(path_ + ": header CRC mismatch at offset 28 "
                     "(stored " + std::to_string(stored_crc) +
                     ", computed " + std::to_string(header_crc) + ")");
    for (std::uint32_t i = 0; i < count; ++i) {
        const std::size_t record_offset = r.offset();
        const std::uint32_t tag_len = r.getU32();
        if (tag_len > 64)
            SATORI_FATAL(path_ + ": implausible section tag length " +
                         std::to_string(tag_len) + " at offset " +
                         std::to_string(record_offset));
        std::string tag;
        for (std::uint32_t k = 0; k < tag_len; ++k)
            tag.push_back(static_cast<char>(r.getU8()));
        const std::uint32_t payload_len = r.getU32();
        const std::uint32_t payload_crc = r.getU32();
        const std::size_t payload_offset = r.offset();
        if (data_.size() - payload_offset < payload_len)
            SATORI_FATAL(path_ + ": section '" + tag +
                         "' truncated at offset " +
                         std::to_string(payload_offset) + ": need " +
                         std::to_string(payload_len) + " bytes, have " +
                         std::to_string(data_.size() - payload_offset));
        const std::string_view payload =
            std::string_view(data_).substr(payload_offset, payload_len);
        const std::uint32_t computed = crc32(payload);
        if (computed != payload_crc)
            SATORI_FATAL(path_ + ": section '" + tag +
                         "' CRC mismatch at offset " +
                         std::to_string(payload_offset) + " (stored " +
                         std::to_string(payload_crc) + ", computed " +
                         std::to_string(computed) + ")");
        sections_.emplace_back(
            tag, std::make_pair(payload_offset,
                                static_cast<std::size_t>(payload_len)));
        for (std::uint32_t k = 0; k < payload_len; ++k)
            (void)r.getU8();
    }
    r.expectEnd();
}

StateReader
SnapshotReader::section(const std::string& tag) const
{
    for (const auto& [existing, span] : sections_) {
        if (existing == tag)
            return StateReader(
                std::string_view(data_).substr(span.first, span.second),
                path_ + "[" + tag + "]");
    }
    SATORI_FATAL(path_ + ": missing snapshot section '" + tag + "'");
}

} // namespace persist
} // namespace satori
