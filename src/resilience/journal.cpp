#include "resilience/journal.hpp"

#include <bit>
#include <cstring>
#include <fstream>
#include <utility>

#include <fcntl.h>
#include <unistd.h>

#include "check/check.hpp"
#include "common/error.hpp"

namespace qedm::resilience {

namespace {

// On-disk format (all integers little-endian):
//   header:  "QEDMJNL1" | version u32 | config u64 | device u64
//            | seedRoot u64
//   record:  len u32 | type u8 | payload[len] | fnv1a64(type+payload)
constexpr char kMagic[8] = {'Q', 'E', 'D', 'M', 'J', 'N', 'L', '1'};
constexpr std::uint32_t kVersion = 1;
constexpr std::uint64_t kHeaderBytes = 8 + 4 + 8 + 8 + 8;
constexpr std::uint8_t kBatchRecord = 1;
constexpr std::uint8_t kWallAbandonRecord = 2;
constexpr std::uint8_t kRoundRecord = 3;
// Frame-length sanity cap: a real record is a few KB; anything larger
// is a torn/garbage length field.
constexpr std::uint32_t kMaxPayload = 1u << 28;

std::uint64_t
fnv1a(std::uint8_t type, const std::uint8_t *data, std::size_t n)
{
    std::uint64_t h = 14695981039346656037ull;
    const auto mix = [&h](std::uint8_t byte) {
        h ^= byte;
        h *= 1099511628211ull;
    };
    mix(type);
    for (std::size_t i = 0; i < n; ++i)
        mix(data[i]);
    return h;
}

/** Little-endian payload builder. */
class Writer
{
  public:
    void reserve(std::size_t n) { buf_.reserve(buf_.size() + n); }
    void u8(std::uint8_t v) { buf_.push_back(v); }
    void u32(std::uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
    void u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
    void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
    void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

    const std::vector<std::uint8_t> &bytes() const { return buf_; }

  private:
    std::vector<std::uint8_t> buf_;
};

[[noreturn]] void
throwCorrupt(const std::string &why)
{
    throw check::CheckError("journal",
                            check::CheckErrorKind::JournalCorruptRecord,
                            why);
}

/** Bounds-checked little-endian payload reader. */
class Reader
{
  public:
    Reader(const std::uint8_t *data, std::size_t n) : data_(data), n_(n)
    {
    }

    std::uint8_t u8()
    {
        need(1);
        return data_[pos_++];
    }
    std::uint32_t u32()
    {
        need(4);
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= std::uint32_t(data_[pos_++]) << (8 * i);
        return v;
    }
    std::uint64_t u64()
    {
        need(8);
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= std::uint64_t(data_[pos_++]) << (8 * i);
        return v;
    }
    std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
    double f64() { return std::bit_cast<double>(u64()); }

    /**
     * A declared element count, checked against the bytes left: a
     * count that cannot fit is corruption, not an allocation request.
     */
    std::uint64_t count(std::size_t element_bytes)
    {
        const std::uint64_t n = u64();
        if (n > (n_ - pos_) / element_bytes)
            throwCorrupt("journal record declares more elements than "
                         "its payload holds");
        return n;
    }

    bool exhausted() const { return pos_ == n_; }

  private:
    void need(std::size_t k) const
    {
        if (n_ - pos_ < k)
            throwCorrupt("journal record payload is shorter than its "
                         "declared contents");
    }

    const std::uint8_t *data_;
    std::size_t n_;
    std::size_t pos_ = 0;
};

void
putCounts(Writer &w, const std::optional<stats::Counts> &counts)
{
    w.u8(counts.has_value() ? 1 : 0);
    if (!counts)
        return;
    w.i32(counts->width());
    w.u64(counts->entries().size());
    for (const auto &[outcome, n] : counts->entries()) {
        w.u64(outcome);
        w.u64(n);
    }
}

std::optional<stats::Counts>
getCounts(Reader &r)
{
    if (r.u8() == 0)
        return std::nullopt;
    const int width = r.i32();
    if (width < 1 || width > 20)
        throwCorrupt("journal batch record has an invalid counts width");
    stats::Counts counts(width);
    const std::uint64_t entries = r.count(8 + 8);
    for (std::uint64_t i = 0; i < entries; ++i) {
        const Outcome outcome = r.u64();
        if (outcome >= (Outcome(1) << width))
            throwCorrupt("journal batch record holds an outcome wider "
                         "than its counts width");
        counts.add(outcome, r.u64());
    }
    return counts;
}

void
putReport(Writer &w, const DegradationReport &report)
{
    w.u64(report.faults.size());
    for (const FaultEvent &e : report.faults) {
        w.u8(static_cast<std::uint8_t>(e.kind));
        w.u32(static_cast<std::uint32_t>(e.member));
        w.u64(e.batch);
        w.i32(e.attempt);
    }
    w.u64(report.members.size());
    for (const MemberDegradation &m : report.members) {
        w.u32(static_cast<std::uint32_t>(m.member));
        w.u8(static_cast<std::uint8_t>(m.cause));
        w.u64(m.plannedShots);
        w.u64(m.completedShots);
        w.u8(m.kept ? 1 : 0);
        w.i32(m.retries);
    }
    w.u64(report.trialsLost);
    w.u64(report.trialsReassigned);
    w.i32(report.retriesTotal);
}

FaultKind
getFaultKind(Reader &r)
{
    const std::uint8_t raw = r.u8();
    if (raw > static_cast<std::uint8_t>(FaultKind::WallClockAbandoned))
        throwCorrupt("journal round record names an unknown fault kind");
    return static_cast<FaultKind>(raw);
}

DegradationReport
getReport(Reader &r)
{
    DegradationReport report;
    // FaultEvent on disk: kind u8 | member u32 | batch u64 | attempt i32.
    const std::uint64_t faults = r.count(1 + 4 + 8 + 4);
    report.faults.reserve(faults);
    for (std::uint64_t i = 0; i < faults; ++i) {
        FaultEvent e;
        e.kind = getFaultKind(r);
        e.member = r.u32();
        e.batch = r.u64();
        e.attempt = r.i32();
        report.faults.push_back(e);
    }
    // MemberDegradation on disk: member u32 | cause u8 | planned u64
    // | completed u64 | kept u8 | retries i32.
    const std::uint64_t members = r.count(4 + 1 + 8 + 8 + 1 + 4);
    report.members.reserve(members);
    for (std::uint64_t i = 0; i < members; ++i) {
        MemberDegradation m;
        m.member = r.u32();
        m.cause = getFaultKind(r);
        m.plannedShots = r.u64();
        m.completedShots = r.u64();
        m.kept = r.u8() != 0;
        m.retries = r.i32();
        report.members.push_back(m);
    }
    report.trialsLost = r.u64();
    report.trialsReassigned = r.u64();
    report.retriesTotal = r.i32();
    return report;
}

void
writeAll(int fd, const std::uint8_t *data, std::size_t n)
{
    std::size_t done = 0;
    while (done < n) {
        const ssize_t wrote = ::write(fd, data + done, n - done);
        QEDM_REQUIRE(wrote > 0, "journal write failed");
        done += static_cast<std::size_t>(wrote);
    }
}

[[noreturn]] void
throwHeader(const std::string &why)
{
    throw check::CheckError("journal",
                            check::CheckErrorKind::JournalHeaderInvalid,
                            why);
}

} // namespace

Journal
Journal::create(const std::string &path, const JournalFingerprint &fp)
{
    const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                          0644);
    QEDM_REQUIRE(fd >= 0, "cannot create journal file: " + path);
    Journal journal(fd);
    Writer w;
    for (const char c : kMagic)
        w.u8(static_cast<std::uint8_t>(c));
    w.u32(kVersion);
    w.u64(fp.config);
    w.u64(fp.device);
    w.u64(fp.seedRoot);
    writeAll(fd, w.bytes().data(), w.bytes().size());
    QEDM_REQUIRE(::fsync(fd) == 0, "journal fsync failed");
    journal.syncs_.store(1);
    return journal;
}

Journal
Journal::resume(const std::string &path, std::uint64_t valid_bytes)
{
    QEDM_REQUIRE(valid_bytes >= kHeaderBytes,
                 "journal resume offset is inside the header");
    const int fd = ::open(path.c_str(), O_WRONLY);
    QEDM_REQUIRE(fd >= 0, "cannot reopen journal file: " + path);
    Journal journal(fd);
    QEDM_REQUIRE(::ftruncate(fd, static_cast<off_t>(valid_bytes)) == 0,
                 "cannot truncate journal tail");
    QEDM_REQUIRE(::lseek(fd, 0, SEEK_END) >= 0,
                 "cannot seek journal to its end");
    QEDM_REQUIRE(::fsync(fd) == 0, "journal fsync failed");
    journal.syncs_.store(1);
    return journal;
}

Journal::Journal(Journal &&other) noexcept
    : fd_(std::exchange(other.fd_, -1)), syncs_(other.syncs_.load())
{
}

Journal &
Journal::operator=(Journal &&other) noexcept
{
    if (this != &other) {
        if (fd_ >= 0)
            ::close(fd_);
        fd_ = std::exchange(other.fd_, -1);
        syncs_.store(other.syncs_.load());
    }
    return *this;
}

Journal::~Journal()
{
    if (fd_ >= 0)
        ::close(fd_);
}

void
Journal::append(std::uint8_t type, const std::vector<std::uint8_t> &payload,
                bool sync)
{
    QEDM_ASSERT(payload.size() < kMaxPayload, "journal record too large");
    Writer frame;
    frame.reserve(4 + 1 + payload.size() + 8);
    frame.u32(static_cast<std::uint32_t>(payload.size()));
    frame.u8(type);
    for (const std::uint8_t byte : payload)
        frame.u8(byte);
    frame.u64(fnv1a(type, payload.data(), payload.size()));
    int fd = -1;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        QEDM_REQUIRE(fd_ >= 0, "journal is closed");
        // One write() per record keeps the crash model simple: what a
        // returned write() handed to the page cache survives a process
        // death, so the file is a valid prefix plus at most one torn
        // tail frame.
        writeAll(fd_, frame.bytes().data(), frame.bytes().size());
        fd = fd_;
    }
    // The fsync runs outside the mutex so workers appending batch
    // records do not queue behind the disk flush. It flushes the whole
    // file, so it makes every record written before this one durable.
    if (!sync)
        return;
    QEDM_REQUIRE(::fsync(fd) == 0, "journal fsync failed");
    syncs_.fetch_add(1, std::memory_order_relaxed);
}

void
Journal::recordBatch(const BatchKey &key, const BatchRecord &record)
{
    Writer w;
    w.u32(key.round);
    w.u8(static_cast<std::uint8_t>(key.stage));
    w.u32(key.member);
    w.u64(key.batch);
    w.i32(record.attempts);
    w.u8(record.exhausted ? 1 : 0);
    putCounts(w, record.counts);
    append(kBatchRecord, w.bytes(), false);
}

void
Journal::recordWallAbandon(std::uint32_t round, const WallAbandon &event)
{
    Writer w;
    w.u32(round);
    w.u32(static_cast<std::uint32_t>(event.member));
    w.u64(event.batch);
    append(kWallAbandonRecord, w.bytes(), false);
}

void
Journal::recordRound(std::uint32_t round, const RoundRecord &record)
{
    Writer w;
    w.u32(round);
    for (const double v : record.policy)
        w.f64(v);
    putReport(w, record.degradation);
    append(kRoundRecord, w.bytes(), true);
}

JournalReplay
JournalReplay::load(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throwHeader("cannot open journal file: " + path);
    std::vector<std::uint8_t> data(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());

    JournalReplay replay;
    if (data.size() < kHeaderBytes)
        throwHeader("journal file is shorter than its header");
    if (std::memcmp(data.data(), kMagic, sizeof(kMagic)) != 0)
        throwHeader("journal magic bytes do not match");
    {
        Reader r(data.data() + sizeof(kMagic),
                 kHeaderBytes - sizeof(kMagic));
        const std::uint32_t version = r.u32();
        if (version != kVersion)
            throwHeader("unsupported journal version " +
                        std::to_string(version));
        replay.fp_.config = r.u64();
        replay.fp_.device = r.u64();
        replay.fp_.seedRoot = r.u64();
    }

    std::uint64_t offset = kHeaderBytes;
    while (offset < data.size()) {
        const std::uint64_t remaining = data.size() - offset;
        // Frame = len u32 + type u8 + payload + checksum u64. Anything
        // that does not fully fit is the torn tail of a crashed write.
        if (remaining < 4)
            break;
        Reader lenReader(data.data() + offset, 4);
        const std::uint32_t len = lenReader.u32();
        if (len >= kMaxPayload || remaining < 4ull + 1 + len + 8)
            break;
        const std::uint8_t type = data[offset + 4];
        const std::uint8_t *payload = data.data() + offset + 5;
        Reader sumReader(payload + len, 8);
        const std::uint64_t stored = sumReader.u64();
        const std::uint64_t frame = 4ull + 1 + len + 8;
        const bool last = offset + frame == data.size();
        if (stored != fnv1a(type, payload, len)) {
            if (last)
                break; // torn tail: checksum written partially
            throwCorrupt("journal record checksum mismatch mid-stream");
        }
        Reader r(payload, len);
        switch (type) {
          case kBatchRecord: {
            BatchKey key;
            key.round = r.u32();
            const std::uint8_t stage = r.u8();
            if (stage >
                static_cast<std::uint8_t>(JournalStage::BaselinePost))
                throwCorrupt("journal batch record names an unknown "
                             "stage");
            key.stage = static_cast<JournalStage>(stage);
            key.member = r.u32();
            key.batch = r.u64();
            BatchRecord record;
            record.attempts = r.i32();
            record.exhausted = r.u8() != 0;
            record.counts = getCounts(r);
            replay.batches_.insert_or_assign(key, std::move(record));
            break;
          }
          case kWallAbandonRecord: {
            const std::uint32_t round = r.u32();
            const std::uint32_t member = r.u32();
            const std::uint64_t batch = r.u64();
            auto [it, inserted] = replay.wallAbandons_.try_emplace(
                {round, member}, batch);
            if (!inserted && batch < it->second)
                it->second = batch;
            break;
          }
          case kRoundRecord: {
            const std::uint32_t round = r.u32();
            RoundRecord record;
            for (double &v : record.policy)
                v = r.f64();
            record.degradation = getReport(r);
            replay.rounds_.insert_or_assign(round, std::move(record));
            break;
          }
          default:
            throwCorrupt("journal record has an unknown type");
        }
        if (!r.exhausted())
            throwCorrupt("journal record payload has trailing bytes");
        offset += frame;
    }
    replay.validBytes_ = offset;
    replay.truncatedTail_ = offset < data.size();
    return replay;
}

void
JournalReplay::requireMatches(const JournalFingerprint &fp) const
{
    if (fp_ == fp)
        return;
    throw check::CheckError(
        "journal", check::CheckErrorKind::JournalFingerprintMismatch,
        "journal was recorded by a different run (config/device/seed "
        "fingerprints do not match)");
}

const BatchRecord *
JournalReplay::findBatch(const BatchKey &key) const
{
    const auto it = batches_.find(key);
    return it == batches_.end() ? nullptr : &it->second;
}

const RoundRecord *
JournalReplay::findRound(std::uint32_t round) const
{
    const auto it = rounds_.find(round);
    return it == rounds_.end() ? nullptr : &it->second;
}

std::vector<WallAbandon>
JournalReplay::wallAbandons(std::uint32_t round) const
{
    std::vector<WallAbandon> result;
    for (const auto &[key, batch] : wallAbandons_) {
        if (key.first != round)
            continue;
        result.push_back({key.second, batch});
    }
    return result;
}

} // namespace qedm::resilience
