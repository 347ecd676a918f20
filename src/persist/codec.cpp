#include "satori/persist/codec.hpp"

#include <array>
#include <bit>
#include <limits>

#include "satori/common/logging.hpp"

namespace satori {
namespace persist {

namespace {

/** CRC-32 lookup table (IEEE 802.3 reflected polynomial 0xEDB88320). */
std::array<std::uint32_t, 256>
makeCrcTable()
{
    std::array<std::uint32_t, 256> table{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        table[i] = c;
    }
    return table;
}

const std::array<std::uint32_t, 256>&
crcTable()
{
    static const std::array<std::uint32_t, 256> table = makeCrcTable();
    return table;
}

} // namespace

std::uint32_t
crc32(std::string_view data, std::uint32_t seed)
{
    const auto& table = crcTable();
    std::uint32_t c = seed ^ 0xFFFFFFFFu;
    for (const char ch : data)
        c = table[(c ^ static_cast<unsigned char>(ch)) & 0xFFu] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

void
StateWriter::putU8(std::uint8_t v)
{
    buf_.push_back(static_cast<char>(v));
}

void
StateWriter::putU32(std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
}

void
StateWriter::putU64(std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
}

void
StateWriter::putI64(std::int64_t v)
{
    putU64(static_cast<std::uint64_t>(v));
}

void
StateWriter::putBool(bool v)
{
    putU8(v ? 1 : 0);
}

void
StateWriter::putDouble(double v)
{
    putU64(std::bit_cast<std::uint64_t>(v));
}

void
StateWriter::putSize(std::size_t v)
{
    putU64(static_cast<std::uint64_t>(v));
}

void
StateWriter::putString(std::string_view v)
{
    putU64(v.size());
    buf_.append(v.data(), v.size());
}

void
StateWriter::putDoubleVec(const std::vector<double>& v)
{
    putU64(v.size());
    for (const double x : v)
        putDouble(x);
}

void
StateWriter::putIntVec(std::span<const int> v)
{
    putU64(v.size());
    for (const int x : v)
        putI64(x);
}

StateReader::StateReader(std::string_view data, std::string context)
    : data_(data), context_(std::move(context))
{
}

void
StateReader::need(std::size_t n, const char* what) const
{
    if (data_.size() - pos_ < n)
        SATORI_FATAL(context_ + ": truncated at offset " +
                     std::to_string(pos_) + ": need " + std::to_string(n) +
                     " bytes for " + what + ", have " +
                     std::to_string(data_.size() - pos_));
}

std::uint8_t
StateReader::getU8()
{
    need(1, "u8");
    return static_cast<std::uint8_t>(data_[pos_++]);
}

std::uint32_t
StateReader::getU32()
{
    need(4, "u32");
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(
                 static_cast<unsigned char>(data_[pos_ + i]))
             << (8 * i);
    pos_ += 4;
    return v;
}

std::uint64_t
StateReader::getU64()
{
    need(8, "u64");
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(
                 static_cast<unsigned char>(data_[pos_ + i]))
             << (8 * i);
    pos_ += 8;
    return v;
}

std::int64_t
StateReader::getI64()
{
    return static_cast<std::int64_t>(getU64());
}

bool
StateReader::getBool()
{
    const std::uint8_t v = getU8();
    if (v > 1)
        SATORI_FATAL(context_ + ": invalid bool value " +
                     std::to_string(v) + " at offset " +
                     std::to_string(pos_ - 1));
    return v == 1;
}

double
StateReader::getDouble()
{
    return std::bit_cast<double>(getU64());
}

std::size_t
StateReader::getSize()
{
    const std::uint64_t v = getU64();
    if constexpr (sizeof(std::size_t) < sizeof(std::uint64_t)) {
        if (v > std::numeric_limits<std::size_t>::max())
            SATORI_FATAL(context_ + ": size value overflows size_t");
    }
    return static_cast<std::size_t>(v);
}

std::string
StateReader::getString()
{
    const std::size_t n = getSize();
    need(n, "string payload");
    std::string s(data_.substr(pos_, n));
    pos_ += n;
    return s;
}

std::vector<double>
StateReader::getDoubleVec()
{
    const std::size_t n = getSize();
    need(n * 8, "double vector payload");
    std::vector<double> v;
    v.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        v.push_back(getDouble());
    return v;
}

std::vector<int>
StateReader::getIntVec()
{
    const std::size_t n = getSize();
    need(n * 8, "int vector payload");
    std::vector<int> v;
    v.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const std::int64_t x = getI64();
        if (x < std::numeric_limits<int>::min() ||
            x > std::numeric_limits<int>::max())
            SATORI_FATAL(context_ + ": int value " + std::to_string(x) +
                         " out of range at offset " +
                         std::to_string(pos_ - 8));
        v.push_back(static_cast<int>(x));
    }
    return v;
}

void
StateReader::expectEnd() const
{
    if (pos_ != data_.size())
        SATORI_FATAL(context_ + ": " + std::to_string(data_.size() - pos_) +
                     " trailing bytes after offset " + std::to_string(pos_) +
                     " (format version skew?)");
}

} // namespace persist
} // namespace satori
