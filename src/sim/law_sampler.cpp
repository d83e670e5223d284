#include "sim/law_sampler.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/error.hpp"

namespace qedm::sim {

namespace {

/** Guide buckets per law entry, and the guide size below which that
 *  ratio holds (law_sampler.hpp). */
constexpr std::size_t kBucketsPerEntry = 16;
constexpr std::size_t kGuideCap = std::size_t(1) << 16;

} // namespace

LawSampler::LawSampler(std::vector<double> cumulative)
    : cum_(std::move(cumulative))
{
    QEDM_REQUIRE(!cum_.empty(), "empty cumulative distribution");
    QEDM_REQUIRE(cum_.front() >= 0.0, "negative cumulative mass");
    QEDM_REQUIRE(cum_.size() <= std::numeric_limits<std::uint32_t>::max(),
                 "cumulative distribution too large to index");
    const std::size_t n = cum_.size();
    const std::size_t m =
        std::min(kBucketsPerEntry * n, std::max(n, kGuideCap));
    const double total = cum_.back();
    buckets_ = static_cast<double>(m);
    scale_ = total > 0.0 ? buckets_ / total : 0.0;
    guide_.resize(m);
    // guide[b] = the first i with bucket(cum[i]) >= b, or n if none;
    // bucket(cum[i]) is non-decreasing in i.
    std::size_t b = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t top = bucket(cum_[i]);
        while (b <= top)
            guide_[b++] = static_cast<std::uint32_t>(i);
    }
    while (b < m)
        guide_[b++] = static_cast<std::uint32_t>(n);
}

} // namespace qedm::sim
