/**
 * @file
 * Crash-safe experiment journal: append-only record stream + replay.
 *
 * A long EDM experiment must survive the process dying under it — an
 * OOM kill, a pre-emption, a power cut — without losing committed work
 * or, worse, silently changing its answer on the rerun. The journal
 * makes experiment execution crash-tolerant and *bit-reproducible*
 * across the crash boundary:
 *
 *   - Every fact is one self-checksummed record, written with a
 *     single write(). Durability has two levels. After a process
 *     death (kill -9, OOM, pre-emption) the file is a valid prefix
 *     plus at most one torn tail record: written records sit in the
 *     page cache. After an OS crash or power loss every committed
 *     round is durable: a round record is followed by fsync(), which
 *     flushes every record written before it too. Records written
 *     since the last commit may be lost; resume recomputes them
 *     deterministically.
 *   - The header fingerprints the (config, device, seed-root) triple;
 *     resume refuses to graft records onto a different run.
 *   - Batch records capture a work unit's merged outcome (attempts,
 *     exhaustion, counts); round records are commit points carrying
 *     the four policy PST/IST numbers bit-exactly plus the full
 *     DegradationReport. Wall-abandon records turn the inherently
 *     nondeterministic watchdog fire into a recorded fact that resume
 *     and `--replay-faults` re-apply as a forced fault.
 *
 * Failure taxonomy (CheckError, pass "journal"): an unreadable header
 * is JournalHeaderInvalid; a checksum-bad or unknown-type record with
 * bytes after it, or a checksum-good record with malformed contents, is
 * JournalCorruptRecord; a mismatched fingerprint is
 * JournalFingerprintMismatch. A torn or checksum-bad *final* record is
 * the expected crash artifact: replay stops before it and resume
 * truncates it away, redoing that batch.
 *
 * Record order in the file is the completion order of a concurrent
 * run and carries no meaning; replay indexes records by key with
 * last-write-wins, which is what makes resume independent of --jobs.
 */

#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "resilience/degradation.hpp"
#include "stats/counts.hpp"

namespace qedm::resilience {

/** Identity of the run a journal belongs to. */
struct JournalFingerprint
{
    /** Hash of the experiment configuration (see experimentFingerprint). */
    std::uint64_t config = 0;
    /** Hash of the target device (Device::fingerprint). */
    std::uint64_t device = 0;
    /** Root seed of the experiment's SeedSequence tree. */
    std::uint64_t seedRoot = 0;

    bool operator==(const JournalFingerprint &o) const
    {
        return config == o.config && device == o.device &&
               seedRoot == o.seedRoot;
    }
};

/** Which execution stage of a round a batch record belongs to. */
enum class JournalStage : std::uint8_t
{
    Members = 0,      ///< ensemble member execution
    BaselineEst = 1,  ///< best-by-ESP baseline run
    BaselinePost = 2, ///< best-by-PST baseline run
};

/** Primary key of one executed work unit. */
struct BatchKey
{
    std::uint32_t round = 0;
    JournalStage stage = JournalStage::Members;
    std::uint32_t member = 0;
    std::uint64_t batch = 0;

    bool operator<(const BatchKey &o) const
    {
        if (round != o.round)
            return round < o.round;
        if (stage != o.stage)
            return stage < o.stage;
        if (member != o.member)
            return member < o.member;
        return batch < o.batch;
    }
    bool operator==(const BatchKey &o) const
    {
        return round == o.round && stage == o.stage &&
               member == o.member && batch == o.batch;
    }
};

/** Durable outcome of one work unit. */
struct BatchRecord
{
    /** Attempts consumed (>= 1 when the unit executed at all). */
    int attempts = 0;
    /** True when every allowed attempt failed (unit lost). */
    bool exhausted = false;
    /** Merged counts when the unit succeeded; empty when lost. */
    std::optional<stats::Counts> counts;
};

/** Durable outcome of one completed experiment round (commit point). */
struct RoundRecord
{
    /**
     * The four policies' (ist, pst) pairs in fixed order: baselineEst,
     * baselinePost, edm, wedm. Stored bit-exactly (no text round-trip).
     */
    std::array<double, 8> policy{};
    /** Full degradation account of the round. */
    DegradationReport degradation;
};

/**
 * Append side: an open journal file. One write() per record; fsync()
 * only in create(), resume() and after each round record, outside the
 * append mutex. Thread-safe (units complete concurrently). Move-only.
 */
class Journal
{
  public:
    /** Start a fresh journal at @p path (truncates), writing the header. */
    static Journal create(const std::string &path,
                          const JournalFingerprint &fp);

    /**
     * Reopen @p path for appending after a crash, discarding everything
     * past @p valid_bytes (the prefix a JournalReplay validated).
     */
    static Journal resume(const std::string &path,
                          std::uint64_t valid_bytes);

    Journal(Journal &&other) noexcept;
    Journal &operator=(Journal &&other) noexcept;
    Journal(const Journal &) = delete;
    Journal &operator=(const Journal &) = delete;
    ~Journal();

    /** Append a work unit's outcome (written, not fsync'd). */
    void recordBatch(const BatchKey &key, const BatchRecord &record);
    /** Append a watchdog fire (written, not fsync'd). */
    void recordWallAbandon(std::uint32_t round, const WallAbandon &event);
    /** Append a round's commit record and fsync the file. */
    void recordRound(std::uint32_t round, const RoundRecord &record);

    /** fsync() calls made so far: 1 for create/resume, 1 per round. */
    std::uint64_t syncCount() const { return syncs_.load(); }

  private:
    explicit Journal(int fd) : fd_(fd) {}
    void append(std::uint8_t type,
                const std::vector<std::uint8_t> &payload, bool sync);

    int fd_ = -1;
    std::mutex mutex_;
    std::atomic<std::uint64_t> syncs_{0};
};

/**
 * Read side: a parsed, validated journal. Loading never needs the
 * run's configuration — fingerprint validation is the caller's second
 * step (requireMatches) so tooling can inspect foreign journals.
 */
class JournalReplay
{
  public:
    /**
     * Parse @p path. Throws CheckError (pass "journal") with kind
     * JournalHeaderInvalid or JournalCorruptRecord; a torn final
     * record is tolerated and reported via truncatedTail().
     */
    static JournalReplay load(const std::string &path);

    const JournalFingerprint &fingerprint() const { return fp_; }

    /** Throw JournalFingerprintMismatch unless @p fp matches. */
    void requireMatches(const JournalFingerprint &fp) const;

    /** Byte length of the validated prefix (Journal::resume input). */
    std::uint64_t validBytes() const { return validBytes_; }

    /** True when a torn/checksum-bad final record was discarded. */
    bool truncatedTail() const { return truncatedTail_; }

    /** Completed unit for @p key, or nullptr. Last write wins. */
    const BatchRecord *findBatch(const BatchKey &key) const;

    /** Committed round @p round, or nullptr. Last write wins. */
    const RoundRecord *findRound(std::uint32_t round) const;

    /**
     * Recorded wall-clock abandonments for @p round, canonicalized to
     * the minimum abandoned batch per member and sorted by member —
     * ready to force through ResilienceConfig::forcedWallAbandons.
     */
    std::vector<WallAbandon> wallAbandons(std::uint32_t round) const;

    std::size_t batchCount() const { return batches_.size(); }
    std::size_t roundCount() const { return rounds_.size(); }

  private:
    JournalFingerprint fp_;
    std::uint64_t validBytes_ = 0;
    bool truncatedTail_ = false;
    std::map<BatchKey, BatchRecord> batches_;
    std::map<std::uint32_t, RoundRecord> rounds_;
    /** (round, member) -> min abandoned batch. */
    std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint64_t>
        wallAbandons_;
};

} // namespace qedm::resilience
