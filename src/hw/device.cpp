#include "hw/device.hpp"

#include <utility>

#include "common/error.hpp"
#include "common/hash.hpp"

namespace qedm::hw {

Device::Device(std::string name, Topology topology,
               Calibration calibration, NoiseModel noise)
    : name_(std::move(name)),
      topology_(std::move(topology)),
      calibration_(std::move(calibration)),
      noise_(std::move(noise))
{
    QEDM_REQUIRE(calibration_.numQubits() ==
                     static_cast<std::size_t>(topology_.numQubits()),
                 "calibration does not match topology");
    QEDM_REQUIRE(calibration_.numEdges() == topology_.numEdges(),
                 "calibration does not match topology");
}

Device
Device::driftedRound(Rng &rng, double drift) const
{
    Device out = *this;
    out.calibration_ = calibration_.drifted(rng, drift);
    out.fingerprint_.set(0);
    return out;
}

Device
Device::withStaleCalibration(Rng &rng, double severity) const
{
    Device out = *this;
    out.calibration_ = calibration_.staleJump(rng, severity);
    out.fingerprint_.set(0);
    return out;
}

Device
Device::withNoise(NoiseModel noise) const
{
    Device out = *this;
    out.noise_ = std::move(noise);
    out.fingerprint_.set(0);
    return out;
}

Device
Device::withCalibration(Calibration cal) const
{
    QEDM_REQUIRE(cal.numQubits() ==
                     static_cast<std::size_t>(topology_.numQubits()),
                 "calibration does not match topology");
    Device out = *this;
    out.calibration_ = std::move(cal);
    out.fingerprint_.set(0);
    return out;
}

Device
Device::melbourne(std::uint64_t noise_seed, const NoiseSpec &spec)
{
    Topology topo = Topology::melbourne();
    Calibration cal = Calibration::melbourne();
    Rng rng(noise_seed);
    NoiseModel noise = NoiseModel::sample(topo, cal, spec, rng);
    return Device("ibmq-14-model", std::move(topo), std::move(cal),
                  std::move(noise));
}

Device
Device::idealMelbourne()
{
    return ideal("ibmq-14-ideal", Topology::melbourne());
}

Device
Device::ideal(std::string name, Topology topology)
{
    Calibration cal(topology);
    for (int q = 0; q < topology.numQubits(); ++q) {
        cal.qubit(q).error1q = 0.0;
        cal.qubit(q).readoutP01 = 0.0;
        cal.qubit(q).readoutP10 = 0.0;
        cal.qubit(q).t1Us = 1e12;
        cal.qubit(q).t2Us = 1e12;
    }
    for (std::size_t e = 0; e < topology.numEdges(); ++e)
        cal.edge(e).cxError = 0.0;
    NoiseModel noise = NoiseModel::ideal(topology);
    return Device(std::move(name), std::move(topology), std::move(cal),
                  std::move(noise));
}

Device
Device::synthetic(std::string name, Topology topology,
                  const CalibrationSpec &cal_spec,
                  const NoiseSpec &noise_spec, std::uint64_t seed)
{
    Rng rng(seed);
    Calibration cal = Calibration::sample(topology, cal_spec, rng);
    NoiseModel noise =
        NoiseModel::sample(topology, cal, noise_spec, rng);
    return Device(std::move(name), std::move(topology), std::move(cal),
                  std::move(noise));
}

std::uint64_t
Device::fingerprint() const
{
    std::uint64_t value = fingerprint_.get();
    if (value != 0)
        return value;
    Fingerprint fp(0xDE71CEull);
    fp.add(std::string_view(name_));
    fp.add(topology_.fingerprint());
    fp.add(calibration_.fingerprint());
    fp.add(noise_.fingerprint());
    value = fp.value();
    fingerprint_.set(value);
    return value;
}

} // namespace qedm::hw
