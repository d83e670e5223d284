/**
 * @file
 * The injectable wall-clock boundary of the runtime layer.
 *
 * Everything in qedm that must be reproducible runs on virtual time
 * (resilience deadlines, fault schedules); real wall time is still
 * needed by the watchdog and the retry sleeper. All of
 * it enters through this one interface: production code takes a
 * `const Clock &` and the process-wide SteadyClock singleton, tests
 * substitute a ManualClock and never sleep for real. This file is the
 * sanctioned home of std::chrono::steady_clock — the qedm_analyze
 * `wall-clock` rule rejects steady_clock::now anywhere else in src/.
 */

#pragma once

#include <mutex>

namespace qedm::runtime {

/** Monotonic millisecond clock plus a sleeper, injectable for tests. */
class Clock
{
  public:
    virtual ~Clock() = default;

    /** Monotonic milliseconds since an arbitrary fixed origin. */
    virtual double nowMs() const = 0;

    /** Block (or pretend to) for @p ms milliseconds. */
    virtual void sleepMs(double ms) const = 0;
};

/** The real monotonic clock (std::chrono::steady_clock). */
class SteadyClock final : public Clock
{
  public:
    double nowMs() const override;
    void sleepMs(double ms) const override;
};

/** Process-wide SteadyClock instance (stateless; safe to share). */
const Clock &steadyClock();

/**
 * Deterministic fake clock for tests: time only moves when the test
 * advances it, sleepMs advances it instead of blocking, and an
 * optional auto-advance step makes every nowMs() read tick forward by
 * a fixed amount (so "each batch took exactly step ms" scenarios need
 * no instrumentation). Thread-safe; reads under contention are
 * ordered by the internal mutex, so fully deterministic scenarios
 * should drive it from one thread (--jobs 1).
 */
class ManualClock final : public Clock
{
  public:
    explicit ManualClock(double start_ms = 0.0,
                         double advance_per_read_ms = 0.0)
        : now_(start_ms), step_(advance_per_read_ms)
    {
    }

    double nowMs() const override
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        const double t = now_;
        now_ += step_;
        return t;
    }

    /** Sleeping on a fake clock advances it; no real time passes. */
    void sleepMs(double ms) const override { advance(ms); }

    void advance(double ms) const
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        now_ += ms;
    }

    void set(double ms) const
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        now_ = ms;
    }

  private:
    mutable std::mutex mutex_;
    mutable double now_;
    double step_;
};

} // namespace qedm::runtime
