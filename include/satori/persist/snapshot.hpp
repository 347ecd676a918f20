/**
 * @file
 * Versioned, per-record-checksummed controller snapshots.
 *
 * On-disk layout (all integers little-endian):
 *
 *   header:  magic "SATSNP01" (8 bytes)
 *            u32 format version (kSnapshotFormatVersion)
 *            u32 fingerprint CRC (crc32 of the run fingerprint)
 *            u64 completed-interval count ("step") the state is at
 *            u32 section count
 *            u32 header CRC (crc32 of the 28 bytes above)
 *   then per section, in write order:
 *            u32 tag length | tag bytes ("policy", "server", ...)
 *            u32 payload length
 *            u32 payload CRC
 *            payload bytes
 *
 * Writers assemble sections in memory and install the file with an
 * atomic temp + rename (persist::atomicWriteFile), so a crash during
 * a snapshot leaves the previous snapshot intact. Readers validate
 * everything eagerly - magic, version, fingerprint, header CRC, and
 * every section CRC - and throw FatalError with the file path and
 * byte offset on the first mismatch. A snapshot either loads exactly
 * or not at all.
 *
 * Versioning policy: any change to a section's encoding bumps
 * kSnapshotFormatVersion; old snapshots are then rejected with a
 * version-mismatch error (re-run without --resume). There is no
 * cross-version migration - snapshots are cheap to regenerate, and
 * silent best-effort decoding is exactly the failure mode this
 * subsystem exists to prevent.
 */

#ifndef SATORI_PERSIST_SNAPSHOT_HPP
#define SATORI_PERSIST_SNAPSHOT_HPP

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "satori/persist/codec.hpp"

namespace satori {
namespace persist {

/** Bumped on any incompatible change to the snapshot encoding.
 * v2: BoEngine::saveState appends the decision-path configuration
 * (max_history, approx, screen) so restore can refuse a mismatched
 * resume.
 * v3: BoEngine::saveState drops those three fields again; the engine
 * has one decision path.
 * v4: SatoriController::saveState drops the per-job reference IPS,
 * the per-job strike count, the CUSUM detector, the exploit step
 * count and the dwell count; GoalRecorder::saveState drops each
 * sample's input vector (recomputed from its configuration).
 * v5: the harness "loop" section drops the throughput and fairness
 * time series; the harness keeps no per-interval series.
 * v6: BoEngine::saveState keeps only its recipe (length scale and
 * grid-refit phase), not the training set, which the goal records
 * already hold; WeightController::saveState drops the previous
 * equalization period's mean weight, which no decision reads. */
inline constexpr std::uint32_t kSnapshotFormatVersion = 6;

/** Assembles one snapshot: named sections, then an atomic install. */
class SnapshotWriter
{
  public:
    SnapshotWriter() = default;

    /**
     * Start a new section; returns the writer to encode its payload
     * into. Tags must be unique within one snapshot.
     */
    StateWriter& section(const std::string& tag);

    /**
     * Serialize all sections and atomically install the snapshot at
     * @p path. @p fingerprint_crc ties the file to one run identity;
     * @p step is the completed-interval count the state represents.
     */
    void writeTo(const std::string& path, std::uint32_t fingerprint_crc,
                 std::uint64_t step) const;

    /** Total payload bytes across sections (obs sizing metric). */
    [[nodiscard]] std::size_t payloadBytes() const;

  private:
    std::vector<std::pair<std::string, StateWriter>> sections_;
};

/** Loads and fully validates one snapshot file. */
class SnapshotReader
{
  public:
    /**
     * Read @p path, validating magic, version, fingerprint, and
     * every section checksum eagerly.
     *
     * @throws FatalError with the file path and byte offset on any
     *         mismatch (wrong magic, version skew, fingerprint of a
     *         different run, bit-flipped section, truncation).
     */
    SnapshotReader(const std::string& path, std::uint32_t fingerprint_crc);

    /** Completed-interval count the snapshot captured. */
    [[nodiscard]] std::uint64_t step() const { return step_; }

    /**
     * A reader over the payload of section @p tag.
     * @throws FatalError if the snapshot has no such section.
     */
    [[nodiscard]] StateReader section(const std::string& tag) const;

    /** True if a section with @p tag exists. */
    [[nodiscard]] bool hasSection(const std::string& tag) const;

    /** The file this snapshot was loaded from. */
    [[nodiscard]] const std::string& path() const { return path_; }

  private:
    std::string path_;
    std::uint64_t step_ = 0;
    std::string data_; ///< The whole file; sections view into it.
    std::vector<std::pair<std::string, std::pair<std::size_t, std::size_t>>>
        sections_; ///< tag -> (payload offset, length) into data_.
};

} // namespace persist
} // namespace satori

#endif // SATORI_PERSIST_SNAPSHOT_HPP
