// Analyzer self-test fixture: this header deliberately violates the
// original lint rules, including the include-guard rule (it
// intentionally omits the guard pragma). The ctest case
// `analyze_fixture` runs qedm_analyze over tests/analyze_fixture and
// expects a nonzero exit; if the analyzer ever stops rejecting this
// file, the test fails.

#include <cstdlib>
#include <random>

namespace analyze_fixture {

inline int *
leakyAllocate()
{
    return new int(42); // naked-new
}

inline double
nondeterministicDraw()
{
    std::mt19937 gen(std::random_device{}()); // rng-discipline (x2)
    return static_cast<double>(gen()) / 4294967296.0;
}

} // namespace analyze_fixture
