/**
 * @file
 * The append-only interval write-ahead log: one CRC-guarded record
 * per control interval (observed telemetry, scoring, injected-fault
 * flags, and the policy's decision).
 *
 * On-disk layout (little-endian):
 *
 *   header:  magic "SATWAL01" (8 bytes)
 *            u32 format version (kWalFormatVersion)
 *            u32 fingerprint CRC
 *            u32 header CRC (crc32 of the 16 bytes above)
 *   then per record: u32 payload length | u32 payload CRC | payload
 *
 * The WAL covers the whole run from interval 0. On recovery it serves
 * two purposes: records before the resumed snapshot regenerate the
 * decision-trace rows byte-for-byte, and records after it verify that
 * re-execution reproduces the exact pre-crash decisions (divergence
 * is a hard error, not a silent fork).
 *
 * Failure semantics, in order of suspicion:
 *   - an *incomplete* frame at end-of-file is a torn tail - the
 *     expected signature of a crash mid-append. Reading stops
 *     cleanly; resuming truncates the tail and appends over it.
 *   - a *complete* frame whose CRC mismatches is corruption, never a
 *     crash artifact: FatalError with file + byte offset.
 *   - magic/version/fingerprint mismatches: FatalError.
 */

#ifndef SATORI_PERSIST_WAL_HPP
#define SATORI_PERSIST_WAL_HPP

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "satori/config/configuration.hpp"
#include "satori/persist/codec.hpp"

namespace satori {
namespace persist {

/** Bumped on any incompatible change to the record encoding. */
inline constexpr std::uint32_t kWalFormatVersion = 1;

/** Everything one control interval contributed to the run. */
struct IntervalRecord
{
    std::uint64_t interval = 0;   ///< 0-based interval index.
    double time = 0.0;            ///< Simulated end-of-interval time.
    Configuration config;         ///< Configuration that ran.
    std::vector<double> ips;      ///< True measured per-job IPS.
    std::vector<double> speedups; ///< Speedups vs instantaneous iso.
    double throughput = 0.0;      ///< Normalized T of the interval.
    double fairness = 0.0;        ///< Normalized F of the interval.
    std::string faults;           ///< Injector flags ("" = clean).
    Configuration decision;       ///< What the policy returned.

    void encode(StateWriter& w) const;
    [[nodiscard]] static IntervalRecord decode(StateReader& r);
};

/**
 * The one comparator for runs that must match: the name of the first
 * field (in the causal order above, "interval" .. "decision") where
 * @p a and @p b differ, or nullptr if they are identical. Doubles
 * compare bitwise, so -0.0 differs from +0.0 and a NaN equals only
 * the same NaN.
 */
[[nodiscard]] const char* firstMismatch(const IntervalRecord& a,
                                        const IntervalRecord& b);

/** Result of scanning a WAL file. */
struct WalReadResult
{
    std::vector<IntervalRecord> records; ///< All complete records.
    std::uint64_t valid_bytes = 0;       ///< File prefix that parsed.
    bool torn_tail = false;              ///< Incomplete frame at EOF.
};

/**
 * Scan @p path, validating the header and every complete record.
 *
 * @throws FatalError (file + offset) on header mismatch or a
 *         complete-but-corrupt record; a torn tail is reported via
 *         WalReadResult, not thrown.
 */
[[nodiscard]] WalReadResult readWal(const std::string& path,
                                    std::uint32_t fingerprint_crc);

/**
 * Appends CRC-framed records to a WAL file, flushing each one so the
 * bytes survive process death (a kill -9 loses at most the torn tail
 * of the in-flight record, which recovery tolerates by design).
 */
class WalWriter
{
  public:
    /**
     * Create a fresh WAL at @p path (truncating any previous file)
     * with a header carrying @p fingerprint_crc.
     */
    [[nodiscard]] static WalWriter create(const std::string& path,
                                          std::uint32_t fingerprint_crc);

    /**
     * Reopen @p path for appending after recovery, first truncating
     * it to @p valid_bytes (dropping a torn tail).
     */
    [[nodiscard]] static WalWriter resume(const std::string& path,
                                          std::uint64_t valid_bytes);

    ~WalWriter();
    WalWriter(WalWriter&& other) noexcept;
    WalWriter& operator=(WalWriter&&) = delete;
    WalWriter(const WalWriter&) = delete;
    WalWriter& operator=(const WalWriter&) = delete;

    /** Append one record and flush it to the OS. */
    void append(const IntervalRecord& record);

    /**
     * Crash-test hook: write only a prefix of the record's frame and
     * flush, simulating a kill mid-append (a torn tail).
     */
    void appendTorn(const IntervalRecord& record);

  private:
    WalWriter(std::FILE* file, std::string path);

    std::FILE* file_;
    std::string path_;
};

} // namespace persist
} // namespace satori

#endif // SATORI_PERSIST_WAL_HPP
