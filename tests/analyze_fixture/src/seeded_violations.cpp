// Analyzer self-test fixture (see seeded_violations.hpp). Never
// compiled; only scanned by the `analyze_fixture` ctest case.

#include <cassert>
#include <cstdlib>
#include <iostream>

#include "seeded_violations.hpp"

namespace analyze_fixture {

int
noisyRandomSum(int n)
{
    assert(n >= 0); // assert-discipline
    std::srand(7u); // rng-discipline
    int sum = 0;
    for (int i = 0; i < n; ++i)
        sum += std::rand() % 10; // rng-discipline
    std::cout << "sum: " << sum << "\n"; // stdout-discipline
    return sum;
}

} // namespace analyze_fixture
