#include "stats/counts.hpp"

#include <algorithm>
#include <sstream>

#include "common/error.hpp"

namespace qedm::stats {

namespace {

bool
outcomeLess(const Counts::Entry &e, Outcome outcome)
{
    return e.first < outcome;
}

} // namespace

Counts::Counts(int width) : width_(width)
{
    QEDM_REQUIRE(width >= 1 && width <= 20,
                 "Counts width must be in [1, 20]");
}

void
Counts::add(Outcome outcome, std::uint64_t n)
{
    QEDM_REQUIRE(outcome < (Outcome(1) << width_),
                 "outcome exceeds register width");
    total_ += n;
    if (counts_.empty() || counts_.back().first < outcome) {
        counts_.emplace_back(outcome, n);
        return;
    }
    const auto it = std::lower_bound(counts_.begin(), counts_.end(),
                                     outcome, outcomeLess);
    if (it->first == outcome)
        it->second += n;
    else
        counts_.emplace(it, outcome, n);
}

void
Counts::addShots(std::vector<Outcome> &outcomes)
{
    const Outcome range = Outcome(1) << width_;
    std::vector<Entry> runs;
    if (range <= outcomes.size()) {
        // A narrow register: one counting pass beats a sort.
        std::vector<std::uint64_t> tally(range, 0);
        for (const Outcome o : outcomes) {
            QEDM_REQUIRE(o < range, "outcome exceeds register width");
            ++tally[o];
        }
        for (Outcome o = 0; o < range; ++o) {
            if (tally[o] > 0)
                runs.emplace_back(o, tally[o]);
        }
    } else {
        std::sort(outcomes.begin(), outcomes.end());
        QEDM_REQUIRE(outcomes.empty() || outcomes.back() < range,
                     "outcome exceeds register width");
        for (const Outcome o : outcomes) {
            if (!runs.empty() && runs.back().first == o)
                ++runs.back().second;
            else
                runs.emplace_back(o, 1);
        }
    }
    mergeSorted(runs);
    total_ += outcomes.size();
}

std::uint64_t
Counts::count(Outcome outcome) const
{
    const auto it = std::lower_bound(counts_.begin(), counts_.end(),
                                     outcome, outcomeLess);
    return it != counts_.end() && it->first == outcome ? it->second : 0;
}

void
Counts::merge(const Counts &other)
{
    QEDM_REQUIRE(other.width_ == width_,
                 "cannot merge Counts of different widths");
    mergeSorted(other.counts_);
    total_ += other.total_;
}

void
Counts::mergeSorted(const std::vector<Entry> &bins)
{
    if (bins.empty())
        return;
    if (counts_.empty() || counts_.back().first < bins.front().first) {
        counts_.insert(counts_.end(), bins.begin(), bins.end());
        return;
    }
    std::vector<Entry> merged;
    merged.reserve(counts_.size() + bins.size());
    auto a = counts_.begin();
    auto b = bins.begin();
    while (a != counts_.end() && b != bins.end()) {
        if (a->first < b->first) {
            merged.push_back(*a++);
        } else if (b->first < a->first) {
            merged.push_back(*b++);
        } else {
            merged.emplace_back(a->first, a->second + b->second);
            ++a;
            ++b;
        }
    }
    merged.insert(merged.end(), a, counts_.end());
    merged.insert(merged.end(), b, bins.end());
    counts_ = std::move(merged);
}

std::vector<Counts::Entry>
Counts::sortedByCount() const
{
    std::vector<Entry> v = counts_;
    std::stable_sort(v.begin(), v.end(), [](const auto &a, const auto &b) {
        if (a.second != b.second)
            return a.second > b.second;
        return a.first < b.first;
    });
    return v;
}

std::string
Counts::toString() const
{
    std::ostringstream os;
    for (const auto &[outcome, n] : counts_)
        os << toBitstring(outcome, width_) << ": " << n << "\n";
    return os.str();
}

} // namespace qedm::stats
