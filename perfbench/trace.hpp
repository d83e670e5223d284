/**
 * @file
 * The traced run: spans recorded from the benchmark's own files around
 * its calls into each qedm layer, a serial replay of runExperiment's
 * rounds through those public calls, and the per-layer metrics derived
 * from the spans.
 */

#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace perfbench {

/** In-memory span recorder for one thread; written out at the end. */
class Tracer
{
  public:
    struct Record
    {
        const char *name;
        double startUs = 0.0;
        double durUs = 0.0;
        /** Index of the enclosing span, or -1 at top level. */
        long parent = -1;
    };

    /** RAII span; closes on destruction. Inert when default-built. */
    class Span
    {
      public:
        Span() = default;
        Span(Tracer *tracer, std::size_t index)
            : tracer_(tracer), index_(index)
        {
        }
        ~Span();
        Span(const Span &) = delete;
        Span &operator=(const Span &) = delete;

      private:
        Tracer *tracer_ = nullptr;
        std::size_t index_ = 0;
    };

    Tracer();

    /** Open span @p name (a string literal) under the innermost open
     *  span. */
    Span span(const char *name);

    /** Same, or an inert span when @p tracer is null. */
    static Span open(Tracer *tracer, const char *name);

    /** Summed self time, in seconds, of every span named @p name: its
     *  duration minus the part its child spans cover. */
    double selfSeconds(const std::string &name) const;

    /** Write Chrome trace-event JSON ("X" events, microseconds). */
    void writeChromeTrace(const std::string &path) const;

  private:
    double nowUs() const;

    std::chrono::steady_clock::time_point origin_;
    std::vector<Record> records_;
    std::vector<std::size_t> open_;
};

/**
 * Traced run of @p w at Workload::traceRounds rounds: replay every
 * experiment serially through public calls with one span per call, run
 * it untraced at jobs=1 (before and after the replay, averaged) and at the
 * workload's own jobs, check that all summaries are bit-identical (the
 * reference bands are the untraced run's), check that the layer
 * self-times reconcile with the untraced jobs=1 wall, and derive the
 * per-layer metrics. Writes the spans to @p trace_path; resume
 * workloads journal into @p journal_path.
 */
RunResult runTraced(const Workload &w, const std::string &trace_path,
                    const std::string &journal_path);

} // namespace perfbench
