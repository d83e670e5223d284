// Seeded determinism violations for the analyzer self-test: the
// `analyze_fixture` ctest case runs qedm_analyze over
// tests/analyze_fixture and expects a nonzero exit; every rule, this
// determinism family included, fires somewhere in the fixture. Never
// compiled; only scanned.

#include <chrono>
#include <ctime>
#include <numeric>
#include <unordered_map>
#include <vector>

namespace analyze_fixture {

int
hashOrderLeak(const std::unordered_map<int, double> &weights)
{
    int sum = 0;
    for (const auto &[key, value] : weights) // unordered-iteration
        sum += key + static_cast<int>(value);
    return sum;
}

int
hiddenCallState()
{
    static int calls = 0; // local-static
    return ++calls;
}

double
unorderedEspSum(const std::vector<double> &terms)
{
    // float-accumulate: no canonical-order comment within reach
    // (this mention is too far above the call to count).
    double bias = 1.0;
    bias += 1.0;
    bias += 2.0;
    return std::accumulate(terms.begin(), terms.end(), 0.0);
}

unsigned
wallClockSeed()
{
    return static_cast<unsigned>(std::time(nullptr)); // time-seed
}

double
rawWallClockRead()
{
    // wall-clock: result-bearing code must read time through the
    // injectable runtime::Clock, never steady_clock directly.
    const auto t = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t.time_since_epoch()).count();
}

} // namespace analyze_fixture
