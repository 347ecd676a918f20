/**
 * @file
 * The checkpoint manager: owns one run's durable state directory -
 * a MANIFEST tying the directory to a run fingerprint, the interval
 * WAL, and a rotating set of snapshots - and drives the recovery
 * protocol.
 *
 * Directory layout:
 *
 *   <dir>/MANIFEST              run identity (fingerprint string)
 *   <dir>/wal.bin               interval WAL, whole run from 0
 *   <dir>/snap.<step>.bin       snapshot after <step> intervals
 *
 * Write path (onIntervalEnd, called by the harness after each
 * interval): append the interval's WAL record (flushed so it
 * survives a kill), then every checkpoint_every intervals install a
 * snapshot atomically and prune all but the newest two. Recovery =
 * load the newest snapshot (full validation) + the WAL; the harness
 * restores state from the snapshot, regenerates pre-snapshot trace
 * rows from WAL records, re-executes the post-snapshot intervals
 * (verifying each re-derived decision bitwise against the WAL), and
 * continues.
 *
 * The kill_at hook deterministically simulates SIGKILL: the process
 * _Exit(137)s immediately after (or, with kill_torn, halfway
 * through) the WAL append of the chosen interval - no destructors,
 * no flushes, exactly what a real kill leaves behind, but without
 * timing flakiness in tests.
 */

#ifndef SATORI_PERSIST_CHECKPOINT_HPP
#define SATORI_PERSIST_CHECKPOINT_HPP

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "satori/persist/snapshot.hpp"
#include "satori/persist/wal.hpp"

namespace satori {
namespace persist {

/** Checkpointing knobs (mirrors the satori_sim flags). */
struct CheckpointOptions
{
    /** Sentinel for kill_at: never kill. */
    static constexpr std::size_t kNoKill = static_cast<std::size_t>(-1);

    /** The state directory (created if absent). */
    std::string dir;

    /** Intervals between snapshots (0 = WAL only, no snapshots). */
    std::size_t every = 50;

    /** Resume from existing state instead of starting fresh. */
    bool resume = false;

    /** Crash-test hook: _Exit(137) after this interval's WAL append. */
    std::size_t kill_at = kNoKill;

    /** With kill_at: die halfway through the append (torn tail). */
    bool kill_torn = false;
};

/** Orchestrates one run's snapshots + WAL (see file comment). */
class Checkpointer
{
  public:
    /**
     * @param options Directory, cadence, resume/kill behavior.
     * @param fingerprint A string identifying everything that shapes
     *        the deterministic decision stream (mix, policy, seeds,
     *        platform, faults - but not the duration, so a resumed
     *        run may extend a shorter one). Stored in the MANIFEST
     *        and CRC-stamped into every file.
     */
    Checkpointer(CheckpointOptions options, std::string fingerprint);

    /**
     * Initialize the directory. Fresh runs wipe previous state and
     * write a new MANIFEST + WAL header; resume runs load and
     * validate MANIFEST, WAL, and the newest snapshot.
     *
     * @throws FatalError on fingerprint mismatch, corrupt files, or
     *         --resume against a directory with no MANIFEST.
     */
    void prepare();

    /** True when prepare() loaded state to resume from. */
    [[nodiscard]] bool resuming() const { return options_.resume; }

    /** All complete WAL records loaded by a resume (else empty). */
    [[nodiscard]] const std::vector<IntervalRecord>& walRecords() const
    {
        return wal_records_;
    }

    /** True when a snapshot was loaded to restore state from. */
    [[nodiscard]] bool hasSnapshot() const { return snapshot_ != nullptr; }

    /** The loaded snapshot. @pre hasSnapshot(). */
    [[nodiscard]] const SnapshotReader& snapshot() const;

    /**
     * The interval index execution restarts at: the loaded
     * snapshot's step, or 0 when only WAL (or nothing) survived.
     */
    [[nodiscard]] std::size_t resumeStep() const { return resume_step_; }

    /**
     * Per-interval hook. For new ground (step >= the replayed record
     * count) appends the WAL record, honours kill_at, and installs a
     * snapshot every checkpoint_every intervals via @p save_state
     * (called with a fresh SnapshotWriter to fill in sections).
     * Replayed intervals only honour kill_at.
     */
    void onIntervalEnd(std::size_t step, const IntervalRecord& record,
                       const std::function<void(SnapshotWriter&)>& save_state);

    /** The options in force. */
    [[nodiscard]] const CheckpointOptions& options() const
    {
        return options_;
    }

  private:
    void prepareFresh();
    void prepareResume();
    void pruneSnapshots() const;
    [[nodiscard]] std::string snapshotPath(std::uint64_t step) const;

    CheckpointOptions options_;
    std::string fingerprint_;
    std::uint32_t fingerprint_crc_;

    std::unique_ptr<WalWriter> wal_;
    std::vector<IntervalRecord> wal_records_;
    std::unique_ptr<SnapshotReader> snapshot_;
    std::size_t resume_step_ = 0;
    bool prepared_ = false;
};

} // namespace persist
} // namespace satori

#endif // SATORI_PERSIST_CHECKPOINT_HPP
