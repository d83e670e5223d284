#include "transpile/esp.hpp"

#include <cmath>

#include "common/error.hpp"

namespace qedm::transpile {

double
esp(const circuit::Circuit &physical, const hw::Device &device)
{
    const auto &topo = device.topology();
    const auto &cal = device.calibration();
    QEDM_REQUIRE(physical.numQubits() == topo.numQubits(),
                 "physical circuit register must match the device");

    const circuit::Circuit flat = physical.decomposed();
    double p = 1.0;
    for (const auto &g : flat.gates()) {
        switch (g.kind) {
          case circuit::OpKind::Barrier:
            break;
          case circuit::OpKind::Measure: {
            const auto &qc = cal.qubit(g.qubits[0]);
            p *= 1.0 - qc.readoutError();
            break;
          }
          default: {
            if (circuit::opArity(g.kind) == 1) {
                p *= 1.0 - cal.qubit(g.qubits[0]).error1q;
            } else {
                const int e = topo.edgeIndex(g.qubits[0], g.qubits[1]);
                QEDM_REQUIRE(e >= 0,
                             "two-qubit gate on uncoupled qubits");
                p *= 1.0 - cal.edge(static_cast<std::size_t>(e)).cxError;
            }
          }
        }
    }
    return p;
}

double
espWithDecoherence(const circuit::Circuit &physical,
                   const hw::Device &device)
{
    const auto &spec = device.noise().spec();
    const circuit::Circuit flat = physical.decomposed();

    // ASAP schedule: per-qubit busy time in nanoseconds.
    std::vector<double> busy_until(flat.numQubits(), 0.0);
    for (const auto &g : flat.gates()) {
        if (g.kind == circuit::OpKind::Barrier)
            continue;
        double duration = spec.gate1qNs;
        if (g.kind == circuit::OpKind::Measure)
            duration = spec.measureNs;
        else if (circuit::opArity(g.kind) == 2)
            duration = spec.gate2qNs;
        double start = 0.0;
        for (int q : g.qubits)
            start = std::max(start, busy_until[q]);
        for (int q : g.qubits)
            busy_until[q] = start + duration;
    }

    double survival = 1.0;
    for (int q = 0; q < flat.numQubits(); ++q) {
        if (busy_until[q] <= 0.0)
            continue;
        const auto &qc = device.calibration().qubit(q);
        const double t_us = busy_until[q] * 1e-3;
        survival *= std::exp(-t_us / qc.t1Us - t_us / qc.t2Us);
    }
    return esp(flat, device) * survival;
}

} // namespace qedm::transpile
