/**
 * @file
 * VF2-style subgraph monomorphism enumeration (Cordella et al. [5]).
 *
 * EDM uses this to transfer a good initial mapping to other regions of
 * the chip: every monomorphic embedding of the mapped subgraph is a
 * candidate ensemble member (Section 5.2).
 */

#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "hw/topology.hpp"

namespace qedm::transpile {

/**
 * Enumerate injective vertex maps f from @p pattern into @p target
 * such that every pattern edge (u, v) maps to a target edge
 * (f(u), f(v)). Non-edges of the pattern are unconstrained
 * (monomorphism, not induced isomorphism) — exactly what mapping
 * transfer needs.
 *
 * Streaming form: @p visit sees each embedding once, in enumeration
 * order, and nothing is stored. The vector it is handed (entry u is
 * f(u)) is only valid during the call.
 *
 * @param pattern the (small) graph to embed
 * @param target the host graph
 * @param limit stop after this many embeddings (in enumeration order,
 *        not in any score order)
 * @param allowed optional target-vertex mask; embeddings may only use
 *        vertices with a true flag. nullptr allows every vertex and
 *        follows the exact unmasked enumeration order.
 * @returns the number of embeddings visited
 */
std::size_t
vf2ForEachEmbedding(const hw::Topology &pattern, const hw::Topology &target,
                    std::size_t limit, const std::vector<bool> *allowed,
                    const std::function<void(const std::vector<int> &)>
                        &visit);

/**
 * Collecting form of vf2ForEachEmbedding: every embedding, in
 * enumeration order.
 *
 * @returns one vector per embedding; entry u is f(u)
 */
std::vector<std::vector<int>>
vf2AllEmbeddings(const hw::Topology &pattern, const hw::Topology &target,
                 std::size_t limit = 100000,
                 const std::vector<bool> *allowed = nullptr);

/** True when at least one embedding exists. */
bool vf2Embeds(const hw::Topology &pattern, const hw::Topology &target);

} // namespace qedm::transpile
