/**
 * @file
 * A complete NISQ device model: topology + calibration + noise model.
 *
 * The Device is what the transpiler plans against and what the
 * simulator executes on. Presets provide the paper's IBMQ-14
 * (melbourne) target and generic research topologies.
 */

#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "common/rng.hpp"
#include "hw/calibration.hpp"
#include "hw/noise_model.hpp"
#include "hw/topology.hpp"

namespace qedm::hw {

/** Bundled device model. */
class Device
{
  public:
    Device(std::string name, Topology topology, Calibration calibration,
           NoiseModel noise);

    const std::string &name() const { return name_; }
    const Topology &topology() const { return topology_; }
    const Calibration &calibration() const { return calibration_; }
    const NoiseModel &noise() const { return noise_; }

    int numQubits() const { return topology_.numQubits(); }

    /**
     * Content hash over topology + calibration + noise model. Two
     * devices with equal fingerprints execute circuits identically, so
     * this is the device half of every runtime cache key. Drifted
     * calibration (a new "epoch") changes the fingerprint.
     *
     * Hashed on the first call and memoized: cache keys, device views
     * and ESP models ask for it many times per compile. Concurrent
     * first calls may each hash, and agree. A copy carries the memo;
     * the copy variants below that change content reset it.
     */
    std::uint64_t fingerprint() const;

    /**
     * A copy of this device with drifted calibration, modeling the
     * machine on a different experimental round. The systematic noise
     * terms stay fixed (they are device physics, not calibration), so
     * correlated errors persist across rounds as on the real machine.
     */
    Device driftedRound(Rng &rng, double drift = 0.15) const;

    /**
     * A copy of this device whose calibration took a one-sided stale
     * jump (Calibration::staleJump): the machine got worse after the
     * calibration was published. Used by the resilience layer to
     * model members executing against stale calibration data; the
     * fingerprint changes, so caches never serve the fresh tables.
     */
    Device withStaleCalibration(Rng &rng, double severity = 0.5) const;

    /** Replace the noise model (used by ablation studies). */
    Device withNoise(NoiseModel noise) const;

    /** Replace the calibration (keeping topology and noise). */
    Device withCalibration(Calibration cal) const;

    /**
     * The paper's evaluation platform: melbourne topology and
     * calibration with a correlated noise model sampled from
     * @p noise_seed. Identical seeds give identical device physics.
     */
    static Device melbourne(std::uint64_t noise_seed = 7,
                            const NoiseSpec &spec = NoiseSpec{});

    /** Ideal (noiseless) device on the melbourne topology. */
    static Device idealMelbourne();

    /** Ideal (noiseless) device on an arbitrary topology. */
    static Device ideal(std::string name, Topology topology);

    /** Generic noisy device on any topology. */
    static Device synthetic(std::string name, Topology topology,
                            const CalibrationSpec &cal_spec,
                            const NoiseSpec &noise_spec,
                            std::uint64_t seed);

  private:
    /** A lazily filled hash; 0 means not hashed yet, so a device
     *  whose hash is 0 rehashes on every call. Relaxed atomics
     *  suffice: the value is a pure function of content that no
     *  thread changes while others read it. */
    class Memo
    {
      public:
        Memo() = default;
        Memo(const Memo &other) : value_(other.get()) {}
        /** Declared so that Device stays movable (a user-declared
         *  copy would turn its moves into copies); the moved-from
         *  device keeps no hash of the content it lost. */
        Memo(Memo &&other) noexcept : value_(other.get())
        {
            other.set(0);
        }
        Memo &
        operator=(const Memo &other)
        {
            set(other.get());
            return *this;
        }
        Memo &
        operator=(Memo &&other) noexcept
        {
            set(other.get());
            other.set(0);
            return *this;
        }

        std::uint64_t get() const
        {
            return value_.load(std::memory_order_relaxed);
        }
        void set(std::uint64_t value) const
        {
            value_.store(value, std::memory_order_relaxed);
        }

      private:
        mutable std::atomic<std::uint64_t> value_{0};
    };

    std::string name_;
    Topology topology_;
    Calibration calibration_;
    NoiseModel noise_;
    Memo fingerprint_;
};

} // namespace qedm::hw
