/**
 * @file
 * Tests for the crash-safe experiment journal (resilience/journal.hpp)
 * and its integration with the EDM pipeline and experiment driver.
 * The load-bearing properties:
 *
 *  - the record stream round-trips bit-exactly (counts, policy
 *    doubles, degradation reports) and replay indexes by key with
 *    last-write-wins, so resume is independent of --jobs;
 *  - a torn or checksum-bad *final* record is the expected crash
 *    artifact: tolerated, truncated away, and its batch redone;
 *  - mid-stream corruption, a bad header, and a foreign fingerprint
 *    are structured refusals (CheckError, pass "journal");
 *  - resuming a truncated journal at any byte offset and any jobs
 *    value reproduces the uninterrupted summary bit-identically, with
 *    the trial budget conserved under injected faults;
 *  - a recorded wall-clock watchdog fire replays as a forced fault,
 *    making the inherently nondeterministic live run reproducible.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "benchmarks/benchmarks.hpp"
#include "check/check.hpp"
#include "core/edm.hpp"
#include "core/experiment.hpp"
#include "hw/device.hpp"
#include "resilience/journal.hpp"
#include "runtime/clock.hpp"

namespace qedm {
namespace {

using core::EdmConfig;
using core::EdmPipeline;
using core::EdmResult;
using core::ExperimentConfig;
using core::ExperimentSummary;
using resilience::BatchKey;
using resilience::BatchRecord;
using resilience::Journal;
using resilience::JournalFingerprint;
using resilience::JournalReplay;
using resilience::JournalStage;
using resilience::RoundRecord;
using resilience::WallAbandon;

constexpr std::uint64_t kSeed = 7;
constexpr std::uint64_t kHeaderBytes = 8 + 4 + 8 + 8 + 8;

/** Unique scratch path under gtest's temp dir. */
std::string
tmpPath(const std::string &name)
{
    return testing::TempDir() + "qedm_journal_" + name;
}

JournalFingerprint
someFingerprint()
{
    JournalFingerprint fp;
    fp.config = 0x1111;
    fp.device = 0x2222;
    fp.seedRoot = 0x3333;
    return fp;
}

std::vector<char>
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<char>(std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>());
}

void
writeFile(const std::string &path, const std::vector<char> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
}

// Record type tags of the on-disk format (journal.cpp).
constexpr std::uint8_t kBatchRecord = 1;
constexpr std::uint8_t kRoundRecord = 3;

/** Little-endian payload builder for hand-made records. */
struct Bytes
{
    std::vector<std::uint8_t> b;

    Bytes &u8(std::uint8_t v)
    {
        b.push_back(v);
        return *this;
    }
    Bytes &u32(std::uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            b.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
        return *this;
    }
    Bytes &u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            b.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
        return *this;
    }
};

/** The format's frame checksum: fnv1a64 over type + payload. */
std::uint64_t
fnv1a(std::uint8_t type, const std::vector<std::uint8_t> &payload)
{
    std::uint64_t h = 14695981039346656037ull;
    h = (h ^ type) * 1099511628211ull;
    for (const std::uint8_t byte : payload)
        h = (h ^ byte) * 1099511628211ull;
    return h;
}

/** Append one correctly checksummed frame to the journal at @p path. */
void
appendFrame(const std::string &path, std::uint8_t type,
            const std::vector<std::uint8_t> &payload)
{
    Bytes frame;
    frame.u32(static_cast<std::uint32_t>(payload.size())).u8(type);
    frame.b.insert(frame.b.end(), payload.begin(), payload.end());
    frame.u64(fnv1a(type, payload));
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out.write(reinterpret_cast<const char *>(frame.b.data()),
              static_cast<std::streamsize>(frame.b.size()));
}

/** A record boundary: the end offset of a frame and its type. */
struct FrameEnd
{
    std::uint64_t offset = 0;
    std::uint8_t type = 0;
};

/** Parse the frame lengths of an intact journal image. */
std::vector<FrameEnd>
frameEnds(const std::vector<char> &bytes)
{
    std::vector<FrameEnd> ends;
    std::uint64_t offset = kHeaderBytes;
    while (offset < bytes.size()) {
        std::uint32_t len = 0;
        for (int i = 0; i < 4; ++i)
            len |= std::uint32_t(static_cast<std::uint8_t>(
                       bytes[offset + static_cast<std::uint64_t>(i)]))
                   << (8 * i);
        const auto type = static_cast<std::uint8_t>(bytes[offset + 4]);
        offset += 4ull + 1 + len + 8;
        ends.push_back({offset, type});
    }
    EXPECT_EQ(offset, bytes.size()) << "journal image has a torn tail";
    return ends;
}

stats::Counts
someCounts()
{
    stats::Counts c(3);
    c.add(0b101, 40);
    c.add(0b010, 24);
    return c;
}

void
expectSameEvent(const resilience::FaultEvent &a,
                const resilience::FaultEvent &b)
{
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.member, b.member);
    EXPECT_EQ(a.batch, b.batch);
    EXPECT_EQ(a.attempt, b.attempt);
}

void
expectSameReport(const resilience::DegradationReport &a,
                 const resilience::DegradationReport &b)
{
    EXPECT_EQ(a.trialsLost, b.trialsLost);
    EXPECT_EQ(a.trialsReassigned, b.trialsReassigned);
    EXPECT_EQ(a.retriesTotal, b.retriesTotal);
    ASSERT_EQ(a.faults.size(), b.faults.size());
    for (std::size_t i = 0; i < a.faults.size(); ++i)
        expectSameEvent(a.faults[i], b.faults[i]);
    ASSERT_EQ(a.members.size(), b.members.size());
    for (std::size_t i = 0; i < a.members.size(); ++i) {
        EXPECT_EQ(a.members[i].member, b.members[i].member);
        EXPECT_EQ(a.members[i].cause, b.members[i].cause);
        EXPECT_EQ(a.members[i].plannedShots, b.members[i].plannedShots);
        EXPECT_EQ(a.members[i].completedShots,
                  b.members[i].completedShots);
        EXPECT_EQ(a.members[i].kept, b.members[i].kept);
        EXPECT_EQ(a.members[i].retries, b.members[i].retries);
    }
    EXPECT_EQ(a.toString(), b.toString());
}

void
expectSameOutcome(const core::PolicyOutcome &a,
                  const core::PolicyOutcome &b)
{
    // Bit-exact, not approximate: crash resume must not perturb the
    // answer at all.
    EXPECT_EQ(a.ist, b.ist);
    EXPECT_EQ(a.pst, b.pst);
}

void
expectSameSummary(const ExperimentSummary &a,
                  const ExperimentSummary &b)
{
    EXPECT_EQ(a.benchmark, b.benchmark);
    ASSERT_EQ(a.rounds.size(), b.rounds.size());
    for (std::size_t r = 0; r < a.rounds.size(); ++r) {
        expectSameOutcome(a.rounds[r].baselineEst,
                          b.rounds[r].baselineEst);
        expectSameOutcome(a.rounds[r].baselinePost,
                          b.rounds[r].baselinePost);
        expectSameOutcome(a.rounds[r].edm, b.rounds[r].edm);
        expectSameOutcome(a.rounds[r].wedm, b.rounds[r].wedm);
        expectSameReport(a.rounds[r].degradation,
                         b.rounds[r].degradation);
    }
    expectSameOutcome(a.median.edm, b.median.edm);
    expectSameOutcome(a.median.wedm, b.median.wedm);
    EXPECT_EQ(a.degradedRounds, b.degradedRounds);
    EXPECT_EQ(a.trialsLost, b.trialsLost);
    EXPECT_EQ(a.trialsReassigned, b.trialsReassigned);
    EXPECT_EQ(a.retriesTotal, b.retriesTotal);
}

// ---------------------------------------------------------------------
// Record stream round-trip.

TEST(JournalTest, RoundTripPreservesRecords)
{
    const std::string path = tmpPath("roundtrip.bin");
    const JournalFingerprint fp = someFingerprint();
    {
        Journal journal = Journal::create(path, fp);

        BatchRecord ok;
        ok.attempts = 2;
        ok.counts = someCounts();
        journal.recordBatch(BatchKey{1, JournalStage::Members, 3, 5},
                            ok);

        BatchRecord lost;
        lost.attempts = 3;
        lost.exhausted = true;
        journal.recordBatch(
            BatchKey{1, JournalStage::BaselineEst, 0, 7}, lost);

        journal.recordWallAbandon(1, WallAbandon{2, 9});

        RoundRecord round;
        round.policy = {0.5, 0.25, 0.125, 0.0625,
                        1.5, 2.5,  3.5,   4.5};
        resilience::MemberDegradation deg;
        deg.member = 2;
        deg.cause = resilience::FaultKind::WallClockAbandoned;
        deg.plannedShots = 4096;
        deg.completedShots = 2048;
        deg.kept = true;
        round.degradation.members.push_back(deg);
        round.degradation.faults.push_back(
            {resilience::FaultKind::WallClockAbandoned, 2, 9, -1});
        round.degradation.trialsLost = 2048;
        journal.recordRound(1, round);
    }

    const JournalReplay replay = JournalReplay::load(path);
    EXPECT_TRUE(replay.fingerprint() == fp);
    EXPECT_FALSE(replay.truncatedTail());
    EXPECT_EQ(replay.batchCount(), 2u);
    EXPECT_EQ(replay.roundCount(), 1u);

    const BatchRecord *ok =
        replay.findBatch(BatchKey{1, JournalStage::Members, 3, 5});
    ASSERT_NE(ok, nullptr);
    EXPECT_EQ(ok->attempts, 2);
    EXPECT_FALSE(ok->exhausted);
    ASSERT_TRUE(ok->counts.has_value());
    EXPECT_EQ(ok->counts->width(), 3);
    EXPECT_EQ(ok->counts->entries(), someCounts().entries());

    const BatchRecord *lost =
        replay.findBatch(BatchKey{1, JournalStage::BaselineEst, 0, 7});
    ASSERT_NE(lost, nullptr);
    EXPECT_EQ(lost->attempts, 3);
    EXPECT_TRUE(lost->exhausted);
    EXPECT_FALSE(lost->counts.has_value());

    // Keys that were never written stay absent.
    EXPECT_EQ(
        replay.findBatch(BatchKey{1, JournalStage::Members, 3, 6}),
        nullptr);
    EXPECT_EQ(replay.findRound(0), nullptr);

    const RoundRecord *round = replay.findRound(1);
    ASSERT_NE(round, nullptr);
    EXPECT_EQ(round->policy[0], 0.5);
    EXPECT_EQ(round->policy[7], 4.5);
    ASSERT_EQ(round->degradation.members.size(), 1u);
    EXPECT_EQ(round->degradation.members[0].completedShots, 2048u);
    EXPECT_EQ(round->degradation.trialsLost, 2048u);

    const auto abandons = replay.wallAbandons(1);
    ASSERT_EQ(abandons.size(), 1u);
    EXPECT_EQ(abandons[0].member, 2u);
    EXPECT_EQ(abandons[0].batch, 9u);
    EXPECT_TRUE(replay.wallAbandons(0).empty());
    std::remove(path.c_str());
}

TEST(JournalTest, LastWriteWinsOnDuplicateKeys)
{
    const std::string path = tmpPath("lastwins.bin");
    const BatchKey key{0, JournalStage::Members, 1, 2};
    {
        Journal journal = Journal::create(path, someFingerprint());
        BatchRecord first;
        first.attempts = 1;
        journal.recordBatch(key, first);
        BatchRecord second;
        second.attempts = 4;
        second.counts = someCounts();
        journal.recordBatch(key, second);
    }
    const JournalReplay replay = JournalReplay::load(path);
    EXPECT_EQ(replay.batchCount(), 1u);
    const BatchRecord *rec = replay.findBatch(key);
    ASSERT_NE(rec, nullptr);
    EXPECT_EQ(rec->attempts, 4);
    EXPECT_TRUE(rec->counts.has_value());
    std::remove(path.c_str());
}

TEST(JournalTest, WallAbandonsCanonicalizeToMinBatchPerMember)
{
    const std::string path = tmpPath("wallmin.bin");
    {
        Journal journal = Journal::create(path, someFingerprint());
        // Out-of-order concurrent fires: the canonical cut point is
        // the minimum batch per member, sorted by member.
        journal.recordWallAbandon(0, WallAbandon{3, 7});
        journal.recordWallAbandon(0, WallAbandon{3, 4});
        journal.recordWallAbandon(0, WallAbandon{3, 6});
        journal.recordWallAbandon(0, WallAbandon{1, 2});
    }
    const JournalReplay replay = JournalReplay::load(path);
    const auto abandons = replay.wallAbandons(0);
    ASSERT_EQ(abandons.size(), 2u);
    EXPECT_EQ(abandons[0].member, 1u);
    EXPECT_EQ(abandons[0].batch, 2u);
    EXPECT_EQ(abandons[1].member, 3u);
    EXPECT_EQ(abandons[1].batch, 4u);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Failure taxonomy: torn tails tolerated, everything else structured.

TEST(JournalTest, TornFinalRecordIsDiscarded)
{
    const std::string path = tmpPath("torn.bin");
    {
        Journal journal = Journal::create(path, someFingerprint());
        BatchRecord rec;
        rec.attempts = 1;
        rec.counts = someCounts();
        journal.recordBatch(BatchKey{0, JournalStage::Members, 0, 0},
                            rec);
        journal.recordBatch(BatchKey{0, JournalStage::Members, 0, 1},
                            rec);
    }
    auto bytes = readFile(path);
    const std::uint64_t intact = bytes.size();

    // Crash artifact: the final record only half-landed on disk.
    bytes.resize(bytes.size() - 9);
    writeFile(path, bytes);
    const JournalReplay replay = JournalReplay::load(path);
    EXPECT_TRUE(replay.truncatedTail());
    EXPECT_EQ(replay.batchCount(), 1u);
    EXPECT_LT(replay.validBytes(), intact);
    EXPECT_NE(
        replay.findBatch(BatchKey{0, JournalStage::Members, 0, 0}),
        nullptr);
    EXPECT_EQ(
        replay.findBatch(BatchKey{0, JournalStage::Members, 0, 1}),
        nullptr);
    std::remove(path.c_str());
}

TEST(JournalTest, ChecksumBadFinalRecordIsDiscarded)
{
    const std::string path = tmpPath("badtail.bin");
    {
        Journal journal = Journal::create(path, someFingerprint());
        BatchRecord rec;
        rec.attempts = 1;
        rec.counts = someCounts();
        journal.recordBatch(BatchKey{0, JournalStage::Members, 0, 0},
                            rec);
        journal.recordBatch(BatchKey{0, JournalStage::Members, 0, 1},
                            rec);
    }
    auto bytes = readFile(path);
    bytes.back() = static_cast<char>(bytes.back() ^ 0x5A);
    writeFile(path, bytes);
    const JournalReplay replay = JournalReplay::load(path);
    EXPECT_TRUE(replay.truncatedTail());
    EXPECT_EQ(replay.batchCount(), 1u);
    std::remove(path.c_str());
}

TEST(JournalTest, MidStreamCorruptionIsRejected)
{
    const std::string path = tmpPath("corrupt.bin");
    {
        Journal journal = Journal::create(path, someFingerprint());
        BatchRecord rec;
        rec.attempts = 1;
        rec.counts = someCounts();
        journal.recordBatch(BatchKey{0, JournalStage::Members, 0, 0},
                            rec);
        journal.recordBatch(BatchKey{0, JournalStage::Members, 0, 1},
                            rec);
    }
    auto bytes = readFile(path);
    // Flip a payload byte of the *first* record: a record with valid
    // bytes after it cannot be a crash artifact.
    bytes[kHeaderBytes + 8] =
        static_cast<char>(bytes[kHeaderBytes + 8] ^ 0xFF);
    writeFile(path, bytes);
    try {
        JournalReplay::load(path);
        FAIL() << "corrupt journal accepted";
    } catch (const check::CheckError &e) {
        EXPECT_EQ(e.kind(), check::CheckErrorKind::JournalCorruptRecord);
        EXPECT_EQ(e.pass(), "journal");
    }
    std::remove(path.c_str());
}

TEST(JournalTest, MalformedRecordWithValidChecksumIsCorrupt)
{
    // A record can pass its checksum and still be malformed (a writer
    // bug, or a flip that happens to collide). Such records must land
    // in the journal's taxonomy, not escape as UserError from
    // Counts::add or std::length_error from an unchecked reserve().
    const auto batchHead = [] {
        Bytes b;
        b.u32(0).u8(0).u32(0).u64(0); // key: round, stage, member, batch
        b.u32(1).u8(0);               // attempts, exhausted
        b.u8(1).u32(3);               // has counts, width 3
        return b;
    };
    const auto roundHead = [] {
        Bytes b;
        b.u32(0);
        for (int i = 0; i < 8; ++i)
            b.u64(0); // policy doubles
        return b;
    };
    struct Case
    {
        const char *name;
        std::uint8_t type;
        std::vector<std::uint8_t> payload;
    };
    std::vector<Case> cases;
    // Outcome 8 does not fit a 3-bit register.
    cases.push_back(
        {"outcome", kBatchRecord, batchHead().u64(1).u64(8).u64(5).b});
    // Far more counts entries than the payload holds.
    cases.push_back({"entries", kBatchRecord,
                     batchHead().u64(1ull << 40).u64(1).u64(5).b});
    // Fault and member counts that would make reserve() throw.
    cases.push_back({"faults", kRoundRecord,
                     roundHead().u64(1ull << 61).u64(0).u64(0).u64(0)
                         .u32(0).b});
    cases.push_back({"members", kRoundRecord,
                     roundHead().u64(0).u64(~0ull).u64(0).u64(0)
                         .u32(0).b});

    for (const Case &c : cases) {
        const std::string path = tmpPath(std::string("malformed_") +
                                         c.name + ".bin");
        { Journal::create(path, someFingerprint()); }
        appendFrame(path, c.type, c.payload);
        try {
            JournalReplay::load(path);
            ADD_FAILURE() << "malformed record accepted: " << c.name;
        } catch (const check::CheckError &e) {
            EXPECT_EQ(e.kind(), check::CheckErrorKind::JournalCorruptRecord)
                << c.name;
            EXPECT_EQ(e.pass(), "journal") << c.name;
        } catch (const std::exception &e) {
            ADD_FAILURE() << c.name << " escaped the journal taxonomy: "
                          << e.what();
        }
        std::remove(path.c_str());
    }
}

TEST(JournalTest, BadHeaderIsRejected)
{
    const std::string garbage = tmpPath("garbage.bin");
    writeFile(garbage, {'n', 'o', 't', ' ', 'a', ' ', 'j', 'o', 'u',
                        'r', 'n', 'a', 'l', ' ', 'a', 't', ' ', 'a',
                        'l', 'l', ' ', 'h', 'e', 'r', 'e', ' ', 'n',
                        'o', 'p', 'e', ' ', 'n', 'o', 'p', 'e', '!'});
    const std::string stub = tmpPath("stub.bin");
    writeFile(stub, {'Q', 'E', 'D', 'M'});
    for (const std::string &path : {garbage, stub}) {
        try {
            JournalReplay::load(path);
            FAIL() << "bad header accepted: " << path;
        } catch (const check::CheckError &e) {
            EXPECT_EQ(e.kind(),
                      check::CheckErrorKind::JournalHeaderInvalid);
            EXPECT_EQ(e.pass(), "journal");
        }
        std::remove(path.c_str());
    }
}

TEST(JournalTest, FingerprintMismatchIsRejected)
{
    const std::string path = tmpPath("foreign.bin");
    { Journal::create(path, someFingerprint()); }
    const JournalReplay replay = JournalReplay::load(path);
    JournalFingerprint other = someFingerprint();
    other.seedRoot ^= 1;
    try {
        replay.requireMatches(other);
        FAIL() << "foreign fingerprint accepted";
    } catch (const check::CheckError &e) {
        EXPECT_EQ(e.kind(),
                  check::CheckErrorKind::JournalFingerprintMismatch);
    }
    EXPECT_NO_THROW(replay.requireMatches(someFingerprint()));
    std::remove(path.c_str());
}

TEST(JournalTest, ResumeTruncatesTornTailAndAppends)
{
    const std::string path = tmpPath("resume.bin");
    const BatchKey done{0, JournalStage::Members, 0, 0};
    const BatchKey redone{0, JournalStage::Members, 0, 1};
    {
        Journal journal = Journal::create(path, someFingerprint());
        BatchRecord rec;
        rec.attempts = 1;
        rec.counts = someCounts();
        journal.recordBatch(done, rec);
    }
    auto bytes = readFile(path);
    bytes.push_back('\x07'); // torn tail: a lone length byte
    writeFile(path, bytes);

    const JournalReplay before = JournalReplay::load(path);
    EXPECT_TRUE(before.truncatedTail());
    {
        Journal journal =
            Journal::resume(path, before.validBytes());
        BatchRecord rec;
        rec.attempts = 2;
        rec.counts = someCounts();
        journal.recordBatch(redone, rec);
    }
    const JournalReplay after = JournalReplay::load(path);
    EXPECT_FALSE(after.truncatedTail());
    EXPECT_EQ(after.batchCount(), 2u);
    ASSERT_NE(after.findBatch(done), nullptr);
    ASSERT_NE(after.findBatch(redone), nullptr);
    EXPECT_EQ(after.findBatch(redone)->attempts, 2);
    std::remove(path.c_str());
}

TEST(JournalTest, LostBatchIsRefusedWhereNoBatchCanBeLost)
{
    // A checksummed batch record without counts is what an exhausted
    // retry journals. Only transient faults exhaust retries, so a
    // fault-free ensemble or a baseline resuming from one must refuse
    // it instead of silently merging nothing.
    const std::string path = tmpPath("lost_batch.bin");
    { Journal::create(path, someFingerprint()); }
    const auto lostBatch = [](JournalStage stage) {
        Bytes b;
        b.u32(0).u8(static_cast<std::uint8_t>(stage)).u32(0).u64(0);
        b.u32(3).u8(1); // attempts, exhausted
        b.u8(0);        // no counts
        return b.b;
    };
    appendFrame(path, kBatchRecord, lostBatch(JournalStage::Members));
    appendFrame(path, kBatchRecord, lostBatch(JournalStage::BaselineEst));
    const JournalReplay replay = JournalReplay::load(path);
    ASSERT_EQ(replay.batchCount(), 2u);

    const hw::Device device = hw::Device::melbourne(kSeed);
    const auto program =
        core::EnsembleBuilder(device).build(benchmarks::bv6().circuit)
            .front();
    EdmConfig config;
    config.totalShots = 4096;
    config.replay = &replay;
    const EdmPipeline fault_free(device, config);
    EXPECT_THROW(fault_free.run(benchmarks::bv6().circuit,
                                SeedSequence(kSeed)),
                 UserError);
    EXPECT_THROW(fault_free.runSingle(program, SeedSequence(kSeed),
                                      JournalStage::BaselineEst),
                 UserError);

    // With transient faults on, the same record is a legitimate loss.
    config.resilience.faults.transientProb = 1e-9;
    const EdmPipeline faulted(device, config);
    const EdmResult result =
        faulted.run(benchmarks::bv6().circuit, SeedSequence(kSeed));
    ASSERT_FALSE(result.degradation.faults.empty());
    bool exhausted = false;
    for (const resilience::FaultEvent &e : result.degradation.faults) {
        exhausted |= e.kind == resilience::FaultKind::RetryExhausted &&
                     e.member == 0 && e.batch == 0;
    }
    EXPECT_TRUE(exhausted);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Experiment integration: crash resume is bit-identical at any jobs.

ExperimentConfig
smallExperiment(int jobs)
{
    ExperimentConfig config;
    config.rounds = 3;
    config.totalShots = 4096;
    config.ensembleSize = 4;
    config.jobs = jobs;
    return config;
}

ExperimentSummary
runBv6(const ExperimentConfig &config)
{
    const hw::Device device = hw::Device::melbourne(kSeed);
    return core::runExperiment(device, benchmarks::bv6(), config,
                               kSeed);
}

TEST(JournalExperimentTest, JournalingDoesNotPerturbTheSummary)
{
    const std::string path = tmpPath("exp_record.bin");
    const ExperimentSummary golden = runBv6(smallExperiment(2));

    ExperimentConfig config = smallExperiment(2);
    const hw::Device device = hw::Device::melbourne(kSeed);
    Journal journal = Journal::create(
        path, core::experimentFingerprint(device, benchmarks::bv6(),
                                          config, kSeed));
    config.journal = &journal;
    expectSameSummary(runBv6(config), golden);

    const JournalReplay replay = JournalReplay::load(path);
    EXPECT_EQ(replay.roundCount(), 3u);
    EXPECT_FALSE(replay.truncatedTail());
    std::remove(path.c_str());
}

TEST(JournalExperimentTest, ResumeFromAnyTruncationIsBitIdentical)
{
    const std::string full = tmpPath("exp_full.bin");
    const ExperimentSummary golden = runBv6(smallExperiment(1));

    // Record a complete journal at jobs=4 (completion order in the
    // file is scheduling-dependent; resume must not care).
    {
        ExperimentConfig config = smallExperiment(4);
        const hw::Device device = hw::Device::melbourne(kSeed);
        Journal journal = Journal::create(
            full, core::experimentFingerprint(
                      device, benchmarks::bv6(), config, kSeed));
        config.journal = &journal;
        runBv6(config);
    }
    const auto bytes = readFile(full);

    // Simulate crashes at several points: header-only (nothing done),
    // mid-run, and near-complete. Torn cuts land mid-record; the
    // replay discards the tail and the resumed run redoes that unit.
    const std::uint64_t cuts[] = {kHeaderBytes, bytes.size() / 3,
                                  2 * bytes.size() / 3,
                                  bytes.size() - 5};
    for (const std::uint64_t cut : cuts) {
        for (const int jobs : {1, 4}) {
            const std::string path = tmpPath("exp_cut.bin");
            writeFile(path,
                      std::vector<char>(bytes.begin(),
                                        bytes.begin() +
                                            static_cast<long>(cut)));
            ExperimentConfig config = smallExperiment(jobs);
            const JournalReplay replay = JournalReplay::load(path);
            Journal journal =
                Journal::resume(path, replay.validBytes());
            config.replay = &replay;
            config.journal = &journal;
            const ExperimentSummary resumed = runBv6(config);
            expectSameSummary(resumed, golden);
            std::remove(path.c_str());
        }
    }
    std::remove(full.c_str());
}

TEST(JournalExperimentTest, FsyncsOncePerCommittedRound)
{
    // Durability contract: create() and resume() fsync once, every
    // round commit fsyncs once, batch records never do.
    for (const int jobs : {1, 4}) {
        const std::string full = tmpPath("exp_sync_full.bin");
        ExperimentConfig config = smallExperiment(jobs);
        const hw::Device device = hw::Device::melbourne(kSeed);
        {
            Journal journal = Journal::create(
                full, core::experimentFingerprint(
                          device, benchmarks::bv6(), config, kSeed));
            EXPECT_EQ(journal.syncCount(), 1u);
            config.journal = &journal;
            runBv6(config);
            EXPECT_EQ(journal.syncCount(), 1u + 3u) << "jobs " << jobs;
        }

        const auto bytes = readFile(full);
        const std::string path = tmpPath("exp_sync_cut.bin");
        writeFile(path, std::vector<char>(
                            bytes.begin(),
                            bytes.begin() +
                                static_cast<long>(bytes.size() / 2)));
        const JournalReplay replay = JournalReplay::load(path);
        ASSERT_LT(replay.roundCount(), 3u);
        Journal journal = Journal::resume(path, replay.validBytes());
        EXPECT_EQ(journal.syncCount(), 1u);
        ExperimentConfig resuming = smallExperiment(jobs);
        resuming.replay = &replay;
        resuming.journal = &journal;
        runBv6(resuming);
        EXPECT_EQ(journal.syncCount(), 1u + (3u - replay.roundCount()))
            << "jobs " << jobs;
        std::remove(path.c_str());
        std::remove(full.c_str());
    }
}

TEST(JournalExperimentTest, ResumeFromEveryRecordBoundaryIsBitIdentical)
{
    // An OS crash on a file system that keeps write order leaves the
    // journal cut at a record boundary somewhere after the last fsync'd
    // round commit. Every such cut must resume to the uninterrupted
    // summary.
    const std::string full = tmpPath("exp_every_full.bin");
    const ExperimentSummary golden = runBv6(smallExperiment(1));
    {
        ExperimentConfig config = smallExperiment(4);
        const hw::Device device = hw::Device::melbourne(kSeed);
        Journal journal = Journal::create(
            full, core::experimentFingerprint(
                      device, benchmarks::bv6(), config, kSeed));
        config.journal = &journal;
        runBv6(config);
    }
    const auto bytes = readFile(full);
    std::vector<FrameEnd> cuts = {{kHeaderBytes, kRoundRecord}};
    for (const FrameEnd &end : frameEnds(bytes))
        cuts.push_back(end);
    ASSERT_GT(cuts.size(), 4u);

    const std::string path = tmpPath("exp_every_cut.bin");
    for (const FrameEnd &cut : cuts) {
        // Every boundary at jobs 1; the commit points (and the bare
        // header) at jobs 4 too, where the surviving rounds restore
        // while the rest run concurrently.
        std::vector<int> jobs_values = {1};
        if (cut.type == kRoundRecord)
            jobs_values.push_back(4);
        for (const int jobs : jobs_values) {
            writeFile(path, std::vector<char>(
                                bytes.begin(),
                                bytes.begin() +
                                    static_cast<long>(cut.offset)));
            const JournalReplay replay = JournalReplay::load(path);
            EXPECT_FALSE(replay.truncatedTail());
            Journal journal = Journal::resume(path, replay.validBytes());
            ExperimentConfig config = smallExperiment(jobs);
            config.replay = &replay;
            config.journal = &journal;
            SCOPED_TRACE("cut at byte " + std::to_string(cut.offset) +
                         ", jobs " + std::to_string(jobs));
            expectSameSummary(runBv6(config), golden);
        }
    }
    std::remove(path.c_str());
    std::remove(full.c_str());
}

TEST(JournalExperimentTest, FaultedResumeConservesTheTrialBudget)
{
    ExperimentConfig faulted = smallExperiment(2);
    faulted.resilience.faults.transientProb = 0.35;
    faulted.resilience.faults.dropoutProb = 0.4;
    faulted.resilience.retryMax = 1;
    faulted.resilience.minTrialsPerMember = 1;

    const ExperimentSummary golden = runBv6(faulted);
    EXPECT_GT(golden.degradedRounds, 0u)
        << "fault config too mild to exercise degradation";

    const std::string full = tmpPath("exp_faulted.bin");
    {
        ExperimentConfig config = faulted;
        const hw::Device device = hw::Device::melbourne(kSeed);
        Journal journal = Journal::create(
            full, core::experimentFingerprint(
                      device, benchmarks::bv6(), config, kSeed));
        config.journal = &journal;
        expectSameSummary(runBv6(config), golden);
    }
    const auto bytes = readFile(full);
    const std::string path = tmpPath("exp_faulted_cut.bin");
    writeFile(path, std::vector<char>(
                        bytes.begin(),
                        bytes.begin() +
                            static_cast<long>(bytes.size() / 2)));

    ExperimentConfig config = faulted;
    config.jobs = 4;
    const JournalReplay replay = JournalReplay::load(path);
    Journal journal = Journal::resume(path, replay.validBytes());
    config.replay = &replay;
    config.journal = &journal;
    const ExperimentSummary resumed = runBv6(config);
    expectSameSummary(resumed, golden);

    // Budget conservation across the crash boundary: every round
    // accounts for exactly totalShots trials, used plus lost.
    for (const auto &round : resumed.rounds) {
        std::uint64_t used = faulted.totalShots;
        for (const auto &m : round.degradation.members) {
            used -= m.plannedShots;
            if (m.kept)
                used += m.completedShots;
        }
        used += round.degradation.trialsReassigned;
        EXPECT_EQ(used + round.degradation.trialsLost,
                  faulted.totalShots);
    }
    std::remove(path.c_str());
    std::remove(full.c_str());
}

TEST(JournalExperimentTest, ForeignJournalRefusesToResume)
{
    const std::string path = tmpPath("exp_foreign.bin");
    {
        ExperimentConfig config = smallExperiment(1);
        const hw::Device device = hw::Device::melbourne(kSeed);
        Journal journal = Journal::create(
            path, core::experimentFingerprint(
                      device, benchmarks::bv6(), config, kSeed));
        config.journal = &journal;
        runBv6(config);
    }
    const JournalReplay replay = JournalReplay::load(path);
    ExperimentConfig config = smallExperiment(1);
    config.replay = &replay;
    const hw::Device device = hw::Device::melbourne(kSeed);
    try {
        // Same journal, different seed: a different run's answer.
        core::runExperiment(device, benchmarks::bv6(), config,
                            kSeed + 1);
        FAIL() << "foreign journal accepted";
    } catch (const check::CheckError &e) {
        EXPECT_EQ(e.kind(),
                  check::CheckErrorKind::JournalFingerprintMismatch);
    }
    std::remove(path.c_str());
}

TEST(JournalExperimentTest, TrajectorySampledJournalIsRefused)
{
    // experimentFingerprint(melbourne(kSeed), bv-6, smallExperiment,
    // kSeed).config as computed before the sampler version joined the
    // fingerprint, when every trial ran on trajectories. Resuming such
    // a journal would splice trajectory-sampled batches into an
    // exact-law run, so its header must no longer match.
    constexpr std::uint64_t kTrajectorySamplerConfig =
        0x6ceb399f7a28bc2dull;
    const hw::Device device = hw::Device::melbourne(kSeed);
    const JournalFingerprint current = core::experimentFingerprint(
        device, benchmarks::bv6(), smallExperiment(1), kSeed);
    EXPECT_NE(current.config, kTrajectorySamplerConfig);

    const std::string path = tmpPath("exp_old_sampler.bin");
    {
        JournalFingerprint old = current;
        old.config = kTrajectorySamplerConfig;
        Journal journal = Journal::create(path, old);
    }
    const JournalReplay replay = JournalReplay::load(path);
    ExperimentConfig config = smallExperiment(1);
    config.replay = &replay;
    try {
        core::runExperiment(device, benchmarks::bv6(), config, kSeed);
        FAIL() << "journal of the trajectory sampler accepted";
    } catch (const check::CheckError &e) {
        EXPECT_EQ(e.kind(),
                  check::CheckErrorKind::JournalFingerprintMismatch);
        EXPECT_NE(std::string(e.what()).find("fingerprint"),
                  std::string::npos);
    }
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Watchdog record/replay: the wall-clock fire becomes a durable fact.

TEST(JournalWatchdogTest, RecordedWallFiresReplayBitIdentically)
{
    // Live run on a fake clock that burns 40ms per read: every member
    // blows the 25ms budget after its first batch, so the watchdog
    // fires at batch 1 for all members.
    const runtime::ManualClock clock(0.0, 40.0);
    const hw::Device device = hw::Device::melbourne(2);

    EdmConfig live;
    live.totalShots = 4096;
    live.shotBatch = 512;
    live.jobs = 1;
    live.resilience.wallDeadlineMs = 25.0;
    live.resilience.clock = &clock;
    live.resilience.minTrialsPerMember = 1;

    const std::string path = tmpPath("watchdog.bin");
    Journal journal = Journal::create(path, someFingerprint());
    live.journal = &journal;

    const EdmPipeline live_pipeline(device, live);
    const EdmResult live_result =
        live_pipeline.run(benchmarks::bv6().circuit, SeedSequence(kSeed));

    ASSERT_FALSE(live_result.degradation.members.empty());
    bool wall_fault = false;
    for (const auto &event : live_result.degradation.faults)
        wall_fault |=
            event.kind == resilience::FaultKind::WallClockAbandoned;
    EXPECT_TRUE(wall_fault);

    const JournalReplay replay = JournalReplay::load(path);
    EXPECT_FALSE(replay.wallAbandons(0).empty());

    // Replay: no watchdog, no fake clock — only the recorded fires,
    // forced. Bit-identical to the live run at any jobs value.
    for (const int jobs : {1, 4}) {
        EdmConfig cfg;
        cfg.totalShots = live.totalShots;
        cfg.shotBatch = live.shotBatch;
        cfg.jobs = jobs;
        cfg.resilience.minTrialsPerMember = 1;
        cfg.resilience.forcedWallAbandons = replay.wallAbandons(0);
        const EdmPipeline pipeline(device, cfg);
        const EdmResult replayed = pipeline.run(
            benchmarks::bv6().circuit, SeedSequence(kSeed));

        expectSameReport(replayed.degradation, live_result.degradation);
        EXPECT_EQ(replayed.edm.probabilities(),
                  live_result.edm.probabilities());
        EXPECT_EQ(replayed.wedm.probabilities(),
                  live_result.wedm.probabilities());
        ASSERT_EQ(replayed.members.size(), live_result.members.size());
        for (std::size_t m = 0; m < replayed.members.size(); ++m) {
            EXPECT_EQ(replayed.members[m].shots,
                      live_result.members[m].shots);
            EXPECT_EQ(replayed.members[m].failed,
                      live_result.members[m].failed);
        }
    }
    std::remove(path.c_str());
}

TEST(JournalWatchdogTest, ReplayFaultsOnlyModeReproducesAnExperiment)
{
    // End-to-end --replay-faults: record a live watchdog run through
    // the experiment driver, then re-execute with only the recorded
    // fires forced. wallDeadlineMs and the injected clock are
    // operational knobs, excluded from the fingerprint, so the replay
    // config legitimately omits them.
    const runtime::ManualClock clock(0.0, 40.0);
    ExperimentConfig live = smallExperiment(1);
    live.totalShots = 16384; // two 2048-shot batches per member
    live.resilience.wallDeadlineMs = 25.0;
    live.resilience.clock = &clock;
    live.resilience.minTrialsPerMember = 1;

    const std::string path = tmpPath("exp_watchdog.bin");
    const hw::Device device = hw::Device::melbourne(kSeed);
    ExperimentSummary recorded;
    {
        Journal journal = Journal::create(
            path, core::experimentFingerprint(
                      device, benchmarks::bv6(), live, kSeed));
        live.journal = &journal;
        recorded = runBv6(live);
    }
    EXPECT_GT(recorded.degradedRounds, 0u);

    const JournalReplay replay = JournalReplay::load(path);
    for (const int jobs : {1, 4}) {
        ExperimentConfig config = smallExperiment(jobs);
        config.totalShots = live.totalShots;
        config.resilience.minTrialsPerMember = 1;
        config.replay = &replay;
        config.replayFaultsOnly = true;
        expectSameSummary(runBv6(config), recorded);
    }
    std::remove(path.c_str());
}

} // namespace
} // namespace qedm
