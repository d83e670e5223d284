#include "common/rng.hpp"

#include <cmath>
#include <numbers>

#include "common/error.hpp"

namespace qedm {
namespace {

/** splitmix64 step, used to expand the seed into xoshiro state. */
std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t x = seed;
    for (auto &s : s_)
        s = splitmix64(x);
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

std::uint64_t
Rng::uniformInt(std::uint64_t n)
{
    QEDM_ASSERT(n > 0, "uniformInt(0) is undefined");
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t limit = max() - max() % n;
    std::uint64_t v;
    do {
        v = (*this)();
    } while (v >= limit);
    return v % n;
}

double
Rng::normal()
{
    if (hasCachedNormal_) {
        hasCachedNormal_ = false;
        return cachedNormal_;
    }
    double u1, u2;
    do {
        u1 = uniform();
    } while (u1 <= 0.0);
    u2 = uniform();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * std::numbers::pi * u2;
    cachedNormal_ = r * std::sin(theta);
    hasCachedNormal_ = true;
    return r * std::cos(theta);
}

double
Rng::normal(double mean, double stddev)
{
    return mean + stddev * normal();
}

bool
Rng::bernoulli(double p)
{
    return uniform() < p;
}

std::size_t
Rng::discrete(const std::vector<double> &weights)
{
    double total = 0.0;
    for (double w : weights) {
        QEDM_REQUIRE(w >= 0.0, "discrete() weights must be non-negative");
        total += w;
    }
    QEDM_REQUIRE(total > 0.0, "discrete() needs a positive total weight");
    double r = uniform() * total;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        r -= weights[i];
        if (r < 0.0)
            return i;
    }
    // Floating-point slack: fall back to the last positive weight.
    for (std::size_t i = weights.size(); i-- > 0;) {
        if (weights[i] > 0.0)
            return i;
    }
    return weights.size() - 1;
}

Rng
Rng::split()
{
    return Rng((*this)());
}

SeedSequence::SeedSequence(std::uint64_t seed)
{
    // One avalanche round decorrelates small root seeds (0, 1, 2, ...).
    std::uint64_t x = seed;
    state_ = splitmix64(x);
}

SeedSequence
SeedSequence::child(std::uint64_t key) const
{
    // Mix the key through its own avalanche before combining so that
    // child(0), child(1), ... differ in every state bit, then re-mix
    // the combination so grandchildren of different parents never
    // collide by key arithmetic.
    std::uint64_t k = key ^ 0xa5a5a5a5a5a5a5a5ull;
    const std::uint64_t mixed_key = splitmix64(k);
    std::uint64_t combined = state_ ^ mixed_key;
    SeedSequence out(splitmix64(combined));
    return out;
}

Rng
SeedSequence::rng() const
{
    return Rng(state_);
}

} // namespace qedm
