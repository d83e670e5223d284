#include "stats/distribution.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>
#include <sstream>

#include "common/error.hpp"

namespace qedm::stats {

Distribution::Distribution(int width) : width_(width)
{
    QEDM_REQUIRE(width >= 1 && width <= 20,
                 "Distribution width must be in [1, 20]");
    p_.assign(std::size_t(1) << width, 0.0);
}

Distribution
Distribution::fromCounts(const Counts &counts)
{
    QEDM_REQUIRE(counts.total() > 0,
                 "cannot normalize an empty Counts into a Distribution");
    Distribution d(counts.width());
    const double inv = 1.0 / static_cast<double>(counts.total());
    for (const auto &[outcome, n] : counts.entries())
        d.p_[outcome] = static_cast<double>(n) * inv;
    return d;
}

Distribution
Distribution::uniform(int width)
{
    Distribution d(width);
    const double p = 1.0 / static_cast<double>(d.p_.size());
    std::fill(d.p_.begin(), d.p_.end(), p);
    return d;
}

Distribution
Distribution::pointMass(int width, Outcome outcome)
{
    Distribution d(width);
    QEDM_REQUIRE(outcome < d.p_.size(), "outcome exceeds register width");
    d.p_[outcome] = 1.0;
    return d;
}

Distribution
Distribution::fromProbabilities(std::vector<double> probs)
{
    QEDM_REQUIRE(probs.size() >= 2 && std::has_single_bit(probs.size()),
                 "probability vector size must be a power of two >= 2");
    const int width = std::countr_zero(probs.size());
    Distribution d(width);
    for (double p : probs)
        QEDM_REQUIRE(p >= 0.0, "probabilities must be non-negative");
    d.p_ = std::move(probs);
    return d;
}

double
Distribution::prob(Outcome outcome) const
{
    QEDM_REQUIRE(outcome < p_.size(), "outcome exceeds register width");
    return p_[outcome];
}

void
Distribution::setProb(Outcome outcome, double p)
{
    QEDM_REQUIRE(outcome < p_.size(), "outcome exceeds register width");
    QEDM_REQUIRE(p >= 0.0, "probabilities must be non-negative");
    p_[outcome] = p;
}

void
Distribution::addProb(Outcome outcome, double p)
{
    QEDM_REQUIRE(outcome < p_.size(), "outcome exceeds register width");
    p_[outcome] += p;
}

double
Distribution::total() const
{
    // canonical order: serial index-ascending sum over the
    // contiguous probability vector — identical at every --jobs.
    return std::accumulate(p_.begin(), p_.end(), 0.0);
}

void
Distribution::normalize()
{
    const double t = total();
    QEDM_REQUIRE(t > 0.0, "cannot normalize an all-zero distribution");
    scale(1.0 / t);
}

bool
Distribution::isNormalized(double tol) const
{
    return std::abs(total() - 1.0) <= tol;
}

Outcome
Distribution::mode() const
{
    return static_cast<Outcome>(
        std::max_element(p_.begin(), p_.end()) - p_.begin());
}

std::vector<std::pair<Outcome, double>>
Distribution::topK(std::size_t k) const
{
    std::vector<std::pair<Outcome, double>> v;
    v.reserve(p_.size());
    for (std::size_t i = 0; i < p_.size(); ++i)
        v.emplace_back(static_cast<Outcome>(i), p_[i]);
    std::stable_sort(v.begin(), v.end(), [](const auto &a, const auto &b) {
        return a.second > b.second;
    });
    if (v.size() > k)
        v.resize(k);
    return v;
}

double
Distribution::entropy() const
{
    double h = 0.0;
    for (double p : p_) {
        if (p > 0.0)
            h -= p * std::log(p);
    }
    return h;
}

double
Distribution::relativeStdDev() const
{
    const double n = static_cast<double>(p_.size());
    const double mean = total() / n;
    if (mean <= 0.0)
        return 0.0;
    double var = 0.0;
    for (double p : p_)
        var += (p - mean) * (p - mean);
    var /= n;
    return std::sqrt(var) / mean;
}

Counts
Distribution::sample(Rng &rng, std::uint64_t shots) const
{
    Counts counts(width_);
    const double t = total();
    QEDM_REQUIRE(t > 0.0, "cannot sample an all-zero distribution");
    // CDF inversion per shot; outcome spaces here are small (<= 2^20)
    // but shots dominate, so build the CDF once.
    std::vector<double> cdf(p_.size());
    double acc = 0.0;
    for (std::size_t i = 0; i < p_.size(); ++i) {
        acc += p_[i] / t;
        cdf[i] = acc;
    }
    cdf.back() = 1.0;
    std::vector<Outcome> outcomes(shots);
    for (Outcome &o : outcomes) {
        const double r = rng.uniform();
        o = static_cast<Outcome>(
            std::lower_bound(cdf.begin(), cdf.end(), r) - cdf.begin());
    }
    counts.addShots(outcomes);
    return counts;
}

void
Distribution::scale(double factor)
{
    for (double &p : p_)
        p *= factor;
}

void
Distribution::accumulate(const Distribution &other, double factor)
{
    QEDM_REQUIRE(other.width_ == width_,
                 "cannot accumulate distributions of different widths");
    for (std::size_t i = 0; i < p_.size(); ++i)
        p_[i] += factor * other.p_[i];
}

std::string
Distribution::toString(double threshold) const
{
    std::ostringstream os;
    for (std::size_t i = 0; i < p_.size(); ++i) {
        if (p_[i] > threshold) {
            os << toBitstring(static_cast<Outcome>(i), width_) << ": "
               << p_[i] << "\n";
        }
    }
    return os.str();
}

Distribution
mergeUniform(const std::vector<Distribution> &members)
{
    QEDM_REQUIRE(!members.empty(), "cannot merge an empty ensemble");
    return mergeWeighted(members,
                         std::vector<double>(members.size(), 1.0));
}

Distribution
mergeWeighted(const std::vector<Distribution> &members,
              const std::vector<double> &weights)
{
    QEDM_REQUIRE(!members.empty(), "cannot merge an empty ensemble");
    QEDM_REQUIRE(members.size() == weights.size(),
                 "one weight per ensemble member required");
    double wsum = 0.0;
    for (double w : weights) {
        QEDM_REQUIRE(w >= 0.0, "merge weights must be non-negative");
        wsum += w;
    }
    QEDM_REQUIRE(wsum > 0.0, "merge weights must not all be zero");

    Distribution out(members.front().width());
    for (std::size_t i = 0; i < members.size(); ++i)
        out.accumulate(members[i], weights[i] / wsum);
    return out;
}

} // namespace qedm::stats
