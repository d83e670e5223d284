#include "benchmarks/benchmarks.hpp"

#include <array>

#include "common/error.hpp"

namespace qedm::benchmarks {

using circuit::Circuit;

Benchmark
bernsteinVazirani(const std::string &key)
{
    const int n = static_cast<int>(key.size());
    QEDM_REQUIRE(n >= 1 && n <= 10, "BV key must have 1..10 bits");
    const Outcome secret = parseBitstring(key);

    // Qubits 0..n-1 hold the query register, qubit n is the oracle
    // ancilla prepared in |->.
    Circuit c(n + 1, n);
    for (int q = 0; q < n; ++q)
        c.h(q);
    c.x(n).h(n);
    for (int q = 0; q < n; ++q) {
        if (getBit(secret, q))
            c.cx(q, n);
    }
    for (int q = 0; q < n; ++q)
        c.h(q);
    for (int q = 0; q < n; ++q)
        c.measure(q, q);

    Benchmark b{"bv-" + std::to_string(n),
                "Bernstein-Vazirani, key " + key, std::move(c), secret,
                n, PaperCounts{}};
    return b;
}

Benchmark
bv6()
{
    Benchmark b = bernsteinVazirani("110011");
    b.paperCounts = PaperCounts{13, 7, 5};
    return b;
}

Benchmark
bv7()
{
    Benchmark b = bernsteinVazirani("1101011");
    b.paperCounts = PaperCounts{13, 11, 6};
    return b;
}

Benchmark
greycode()
{
    const int n = 6;
    const Outcome expected = parseBitstring("001000");
    const Outcome gray = expected ^ (expected >> 1);

    Circuit c(n, n);
    for (int q = 0; q < n; ++q) {
        if (getBit(gray, q))
            c.x(q);
    }
    // Gray-to-binary cascade: b[i] = b[i+1] ^ g[i], MSB down.
    for (int i = n - 2; i >= 0; --i)
        c.cx(i + 1, i);
    c.measureAll();

    return Benchmark{"greycode", "6-bit Gray-code decoder", std::move(c),
                     expected, n, PaperCounts{13, 5, 6}};
}

namespace {

/** Alternating cut string with qubit (n-1) in partition '1'. */
Outcome
alternatingCut(int n)
{
    Outcome cut = 0;
    for (int q = n - 1; q >= 0; q -= 2)
        cut = setBit(cut, q, 1);
    return cut;
}

} // namespace

QaoaGridPoint
qaoaPathAngles(int n)
{
    QEDM_REQUIRE(n >= 3 && n <= 8, "qaoa path size must be in [3, 8]");
    // Test QaoaAngles.TableMatchesGridSearch re-runs the grid search
    // that picked these rows.
    static constexpr std::array<QaoaGridPoint, 6> kTable = {{
        {6, 11, -1}, // n = 3
        {5, 11, -1}, // n = 4
        {5, 11, -1}, // n = 5
        {5, 11, -1}, // n = 6
        {5, 11, -1}, // n = 7
        {5, 11, -1}, // n = 8
    }};
    return kTable[static_cast<std::size_t>(n - 3)];
}

Circuit
qaoaPathCircuit(int n, const QaoaGridPoint &angles)
{
    const double gamma = 0.1 * angles.gammaStep;
    const double beta = 0.1 * angles.betaStep;
    const double field = angles.fieldSign < 0 ? -gamma : gamma;

    Circuit c(n, n);
    for (int q = 0; q < n; ++q)
        c.h(q);
    for (int i = 0; i + 1 < n; ++i) {
        c.cx(i, i + 1);
        c.rz(2.0 * gamma, i + 1);
        c.cx(i, i + 1);
    }
    // Symmetry-breaking field on the top node (see header).
    c.rz(field, n - 1);
    for (int q = 0; q < n; ++q)
        c.rx(2.0 * beta, q);
    c.measureAll();
    return c;
}

Benchmark
qaoaMaxcutPath(int n)
{
    const QaoaGridPoint angles = qaoaPathAngles(n);
    Benchmark b{"qaoa-" + std::to_string(n),
                "QAOA max-cut, " + std::to_string(n) + "-node path",
                qaoaPathCircuit(n, angles), alternatingCut(n), n,
                PaperCounts{}};
    return b;
}

Benchmark
qaoa5()
{
    Benchmark b = qaoaMaxcutPath(5);
    b.paperCounts = PaperCounts{24, 8, 5};
    return b;
}

Benchmark
qaoa6()
{
    Benchmark b = qaoaMaxcutPath(6);
    b.paperCounts = PaperCounts{30, 10, 6};
    return b;
}

Benchmark
qaoa7()
{
    Benchmark b = qaoaMaxcutPath(7);
    b.paperCounts = PaperCounts{36, 12, 7};
    return b;
}

Benchmark
fredkin()
{
    Circuit c(3, 3);
    c.x(0).x(2);
    c.cswap(2, 1, 0);
    c.measureAll();
    return Benchmark{"fredkin", "Fredkin gate on |101>", std::move(c),
                     parseBitstring("110"), 3, PaperCounts{26, 13, 3}};
}

Benchmark
adder()
{
    // q0 = a = 1, q1 = b = 1, q2 = cin = 0, q3 = cout.
    Circuit c(4, 3);
    c.x(0).x(1);
    c.ccx(0, 1, 3);
    c.cx(0, 1);
    c.ccx(1, 2, 3);
    c.cx(1, 2);
    c.cx(0, 1);
    // Read (a, carry, sum) as bits (0, 1, 2): "011".
    c.measure(0, 0);
    c.measure(3, 1);
    c.measure(2, 2);
    return Benchmark{"adder", "reversible 1-bit full adder (1+1+0)",
                     std::move(c), parseBitstring("011"), 3,
                     PaperCounts{12, 15, 3}};
}

Benchmark
decoder24()
{
    // q0 = a = 0, q1 = b = 0; q2..q5 = one-hot outputs o0..o3.
    Circuit c(6, 6);
    c.x(0).x(1);
    c.ccx(0, 1, 2); // o0 = !a & !b
    c.x(1);
    c.ccx(0, 1, 3); // o1 = !a & b
    c.x(0).x(1);
    c.ccx(0, 1, 4); // o2 = a & !b
    c.x(1);
    c.ccx(0, 1, 5); // o3 = a & b
    c.measure(2, 5); // o0 is the leftmost printed bit
    c.measure(3, 4);
    c.measure(4, 3);
    c.measure(5, 2);
    c.measure(0, 1);
    c.measure(1, 0);
    return Benchmark{"decode-24", "reversible 2:4 decoder, select 00",
                     std::move(c), parseBitstring("100000"), 6,
                     PaperCounts{119, 71, 6}};
}

std::vector<Benchmark>
paperSuite()
{
    std::vector<Benchmark> suite;
    suite.push_back(greycode());
    suite.push_back(bv6());
    suite.push_back(bv7());
    suite.push_back(qaoa5());
    suite.push_back(qaoa6());
    suite.push_back(qaoa7());
    suite.push_back(fredkin());
    suite.push_back(adder());
    suite.push_back(decoder24());
    return suite;
}

Benchmark
byName(const std::string &name)
{
    if (name == "greycode")
        return greycode();
    if (name == "bv-6")
        return bv6();
    if (name == "bv-7")
        return bv7();
    if (name == "qaoa-5")
        return qaoa5();
    if (name == "qaoa-6")
        return qaoa6();
    if (name == "qaoa-7")
        return qaoa7();
    if (name == "fredkin")
        return fredkin();
    if (name == "adder")
        return adder();
    if (name == "decode-24")
        return decoder24();
    throw UserError("unknown benchmark: " + name);
}

} // namespace qedm::benchmarks
