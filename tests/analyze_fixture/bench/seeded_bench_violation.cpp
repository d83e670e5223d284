// Seeded violation for the analyzer self-test: bench/ relaxes the
// stdout/assert rules but must still reject raw randomness.
#include <random>

int
seededBenchViolation()
{
    std::mt19937 engine(42); // rng-discipline must fire here
    return static_cast<int>(engine());
}
