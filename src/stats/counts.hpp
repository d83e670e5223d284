/**
 * @file
 * Shot-count accumulation (the "output log" of a NISQ run).
 */

#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/bits.hpp"

namespace qedm::stats {

/**
 * Histogram of measured outcomes for a fixed-width register.
 *
 * Mirrors the per-trial output log a NISQ machine produces: each shot
 * appends one outcome. The histogram is a flat vector of (outcome,
 * count) pairs sorted by outcome, so iteration and textual dumps are
 * deterministic and ascending, merging two histograms is one linear
 * pass, and an add in ascending order (the exact-law sampler's tally,
 * a journal record) appends. A shot loop over a wide register calls
 * addShots once per chunk of outcomes instead of add once per shot,
 * which would insert into the middle of the vector each time.
 */
class Counts
{
  public:
    /** One histogram bin: (outcome, shots). */
    using Entry = std::pair<Outcome, std::uint64_t>;

    /** @param width number of classical bits per outcome (1..20). */
    explicit Counts(int width);

    /** Record @p n occurrences of @p outcome. */
    void add(Outcome outcome, std::uint64_t n = 1);

    /**
     * Record one shot of each entry of @p outcomes, which it may
     * reorder: a counting pass when the register has no more outcomes
     * than @p outcomes has entries, a sort otherwise, then one linear
     * merge. Equal to add() on each entry in turn.
     */
    void addShots(std::vector<Outcome> &outcomes);

    /** Number of classical bits per outcome. */
    int width() const { return width_; }

    /** Total number of recorded shots. */
    std::uint64_t total() const { return total_; }

    /** Shots recorded for @p outcome (0 if never seen). */
    std::uint64_t count(Outcome outcome) const;

    /** Number of distinct outcomes observed. */
    std::size_t distinct() const { return counts_.size(); }

    /** Merge another Counts of the same width into this one (a linear
     *  two-way merge). */
    void merge(const Counts &other);

    /** (outcome, count) view, outcomes strictly increasing. */
    const std::vector<Entry> &entries() const { return counts_; }

    /** Outcomes sorted by count, descending (ties by outcome value). */
    std::vector<Entry> sortedByCount() const;

    /** Human-readable multi-line dump ("110011: 457"). */
    std::string toString() const;

  private:
    /** Add the bins of @p bins (outcomes strictly increasing). */
    void mergeSorted(const std::vector<Entry> &bins);

    int width_;
    std::uint64_t total_ = 0;
    std::vector<Entry> counts_;
};

} // namespace qedm::stats
