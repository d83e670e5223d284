/**
 * @file
 * The paper's benchmark suite (Table 1).
 *
 * Every generator returns a logical circuit plus the known-correct
 * output, which is what PST/IST are measured against. Where the
 * paper's RevLib-derived gate counts differ from our synthesis, the
 * paper's counts are carried alongside so the Table-1 bench can print
 * both.
 */

#pragma once

#include <string>
#include <vector>

#include "circuit/circuit.hpp"
#include "common/bits.hpp"

namespace qedm::benchmarks {

/** Gate totals as printed in the paper's Table 1. */
struct PaperCounts
{
    int sg = 0;
    int cx = 0;
    int m = 0;
};

/** A benchmark instance: circuit + ground truth. */
struct Benchmark
{
    std::string name;
    std::string description;
    circuit::Circuit circuit;
    /** The unique correct output (paper "Output" column). */
    Outcome expected = 0;
    /** Classical output width in bits. */
    int outputWidth = 0;
    /** Gate totals the paper reports for this workload. */
    PaperCounts paperCounts;
};

/**
 * Bernstein-Vazirani with the given MSB-first key string.
 * Output: the key. bv-6 = "110011", bv-7 = "1101011" (Table 1).
 */
Benchmark bernsteinVazirani(const std::string &key);

/** The paper's bv-6 instance (key 110011). */
Benchmark bv6();

/** The paper's bv-7 instance (key 1101011). */
Benchmark bv7();

/**
 * 6-bit Gray-code decoder: prepares the Gray encoding of the expected
 * output and decodes it with a CX cascade. Output: "001000".
 */
Benchmark greycode();

/**
 * One point of the QAOA angle grid: gamma = 0.1 * gammaStep,
 * beta = 0.1 * betaStep, and a symmetry-breaking field of
 * fieldSign * gamma.
 */
struct QaoaGridPoint
{
    int gammaStep = 0;
    int betaStep = 0;
    /** -1 or +1. */
    int fieldSign = 0;
};

/**
 * Single-layer QAOA for max-cut on an n-node path graph: H on every
 * node, a CX-Rz(2 gamma)-CX phase separator per edge, a field
 * Rz(fieldSign * gamma) on the top node n - 1, then Rx(2 beta) on every
 * node and a full measurement.
 */
circuit::Circuit qaoaPathCircuit(int n, const QaoaGridPoint &angles);

/**
 * The pinned angles of qaoaMaxcutPath(@p n), @p n in [3, 8]: the grid
 * point, among 15 gamma x 15 beta x 2 field signs, that makes the
 * alternating cut the unique ideal mode with the highest probability.
 */
QaoaGridPoint qaoaPathAngles(int n);

/**
 * The paper's SWAP-free QAOA max-cut instance on an n-node path:
 * qaoaPathCircuit() at qaoaPathAngles(@p n). The top-node field
 * breaks the symmetry between the two optimal cuts, so the
 * alternating cut with node n - 1 in partition '1' is the unique
 * most-likely output. @p n in [3, 8].
 */
Benchmark qaoaMaxcutPath(int n);

/** The paper's qaoa-5 / qaoa-6 / qaoa-7 instances. */
Benchmark qaoa5();
Benchmark qaoa6();
Benchmark qaoa7();

/** Fredkin gate on |101>: output "110". */
Benchmark fredkin();

/** Reversible 1-bit full adder with a=1, b=1, cin=0: output "011". */
Benchmark adder();

/** Reversible 2:4 decoder (four-Toffoli synthesis) with select 00:
 *  output "100000". */
Benchmark decoder24();

/** All nine paper benchmarks in Table-1 order. */
std::vector<Benchmark> paperSuite();

/** Look up a paper benchmark by Table-1 name (e.g. "bv-6"). */
Benchmark byName(const std::string &name);

} // namespace qedm::benchmarks
