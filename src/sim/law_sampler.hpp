/**
 * @file
 * Indexed sampling from a fixed discrete law.
 *
 * Both engines end a trial by drawing an index from a cumulative law
 * that does not change between trials: the exact-law sampler draws an
 * outcome from the tape's classical law, and the trajectory engine's
 * deterministic fast path draws a basis state from its one evolved
 * state. LawSampler is that draw. Next to the cumulative law of
 * n = cum.size() entries it keeps Chen & Asau's guide table over
 * m = min(16 n, max(n, 2^16)) buckets of equal mass:
 * bucket(v) = min(floor(v * m / total), m - 1), and guide[b] = the
 * first index i with bucket(cum[i]) >= b. A draw r = uniform() * total
 * starts at guide[bucket(r)] and scans forward past entries <= r.
 * Sixteen buckets per entry put nearly every draw's start on its
 * answer, so the scan's loop branch almost never mispredicts; the cap
 * keeps the guide of a large state (the trajectory fast path samples
 * 2^numLocal basis states) at one entry per state, which still costs
 * O(1) expected comparisons instead of a log2(n)-deep binary search.
 *
 * The index is exactly std::upper_bound's, the first i with r < cum[i]
 * (clamped to n - 1), for every r >= 0, whatever m is. The guide and
 * the draw use the one bucket function, and a rounded product with a
 * positive constant is monotone, so the answer a has
 * bucket(cum[a]) >= bucket(r) and every i before guide[bucket(r)] has
 * cum[i] < r: the start never passes the answer and the scan stops on
 * it. The RNG stream (one uniform per draw) and every drawn index are
 * those of a plain binary-search sampler.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"

namespace qedm::sim {

/** A cumulative law plus its guide table; immutable after build. */
class LawSampler
{
  public:
    /** The empty sampler (carries no law). */
    LawSampler() = default;

    /**
     * @param cumulative non-empty, non-decreasing, non-negative
     * cumulative masses; the last entry is the total mass (need not
     * be exactly 1).
     */
    explicit LawSampler(std::vector<double> cumulative);

    bool empty() const { return cum_.empty(); }
    std::size_t size() const { return cum_.size(); }
    /** Guide-table buckets m (0 for the empty sampler). */
    std::size_t buckets() const { return guide_.size(); }
    const std::vector<double> &cumulative() const { return cum_; }

    /** The first index i with @p r < cum[i], or size() - 1 if there is
     *  none: std::upper_bound's answer, for any @p r >= 0. */
    std::size_t index(double r) const
    {
        const std::size_t last = cum_.size() - 1;
        std::size_t s = guide_[bucket(r)];
        while (s <= last && cum_[s] <= r)
            ++s;
        return s < last ? s : last;
    }

    /** One trial: index(uniform() * total), one RNG draw. */
    std::size_t sample(Rng &rng) const
    {
        return index(rng.uniform() * cum_.back());
    }

  private:
    /** min(floor(v * m / total), m - 1); every bucket is 0 when the
     *  total is not positive. Non-decreasing in @p v. */
    std::size_t bucket(double v) const
    {
        const double x = v * scale_;
        return x < buckets_ ? static_cast<std::size_t>(x)
                            : guide_.size() - 1;
    }

    std::vector<double> cum_;
    std::vector<std::uint32_t> guide_;
    double buckets_ = 0.0; ///< m as a double
    double scale_ = 0.0;   ///< m / total, 0 when total is not positive
};

} // namespace qedm::sim
