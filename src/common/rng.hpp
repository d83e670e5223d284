/**
 * @file
 * Deterministic pseudo-random number generation for qedm.
 *
 * All stochastic components (trajectory sampling, measurement noise,
 * calibration drift, Monte-Carlo analysis) draw from qedm::Rng so every
 * experiment is reproducible from a single 64-bit seed. The generator is
 * xoshiro256++ seeded through splitmix64, which gives high-quality streams
 * even from small or correlated seeds.
 */

#pragma once

#include <bit>
#include <cstdint>
#include <vector>

namespace qedm {

/**
 * xoshiro256++ pseudo-random generator with convenience distributions.
 *
 * Satisfies the UniformRandomBitGenerator concept so it can also be used
 * with <random> distributions when needed.
 */
class Rng
{
  public:
    using result_type = std::uint64_t;

    /** Construct from a 64-bit seed (expanded via splitmix64). */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type(0); }

    /** Next raw 64-bit value (one xoshiro256++ step; inline because
     *  every trial draw starts here). */
    result_type operator()()
    {
        const std::uint64_t result = std::rotl(s_[0] + s_[3], 23) + s_[0];
        const std::uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = std::rotl(s_[3], 45);
        return result;
    }

    /** Uniform double in [0, 1): 53 random mantissa bits. */
    double uniform() { return ((*this)() >> 11) * 0x1.0p-53; }

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [0, n). Requires n > 0. */
    std::uint64_t uniformInt(std::uint64_t n);

    /** Standard normal via Box-Muller. */
    double normal();

    /** Normal with given mean and standard deviation. */
    double normal(double mean, double stddev);

    /** Bernoulli trial with success probability p. */
    bool bernoulli(double p);

    /**
     * Sample an index from an unnormalized non-negative weight vector.
     * Requires at least one strictly positive weight.
     */
    std::size_t discrete(const std::vector<double> &weights);

    /** Derive an independent child generator (for parallel streams). */
    Rng split();

  private:
    std::uint64_t s_[4];
    double cachedNormal_ = 0.0;
    bool hasCachedNormal_ = false;
};

/**
 * Hierarchical, order-independent seed derivation for parallel work.
 *
 * A SeedSequence is a node in a key tree rooted at one 64-bit seed.
 * child(k) is a pure function of (state, k): deriving children in any
 * order — or concurrently from different threads — yields identical
 * streams, which is what makes parallel execution bit-identical to
 * sequential execution. The runtime layer keys one node per
 * (round, member, shot-batch) unit of work.
 *
 * Derivation chains splitmix64-style avalanche mixes, so sibling and
 * cousin streams are statistically independent even for small keys.
 */
class SeedSequence
{
  public:
    /** Root sequence for a 64-bit experiment seed. */
    explicit SeedSequence(std::uint64_t seed);

    /** Child node for subdomain @p key. Pure; order-independent. */
    SeedSequence child(std::uint64_t key) const;

    /** Materialize the generator for this node. Pure. */
    Rng rng() const;

    /** Mixed state (useful as a derived seed or cache key). */
    std::uint64_t state() const { return state_; }

  private:
    std::uint64_t state_;
};

} // namespace qedm
