// Independent reference computations for the correctness checks. Nothing
// here calls the flow kernels under test: κ and λ come from a plain BFS
// augmenting-path max-flow written for this benchmark, δ_min and the cut
// check from direct scans of the connectivity graph.
#ifndef PERFBENCH_ORACLE_H
#define PERFBENCH_ORACLE_H

#include <cstdint>
#include <span>
#include <vector>

#include "graph/digraph.h"

namespace perfbench {

/// κ(u,v) for non-adjacent u ≠ v: max-flow on the vertex-split network
/// (x_in → x_out of capacity 1 for every x, edges x_out → y_in uncapped).
[[nodiscard]] int oracle_vertex_connectivity(const kadsim::graph::Digraph& g, int u,
                                             int v);

/// λ(u,v) for u ≠ v: max-flow with capacity 1 on every edge of the digraph.
[[nodiscard]] int oracle_edge_connectivity(const kadsim::graph::Digraph& g, int u,
                                           int v);

/// The smallest out-degree and the smallest in-degree of any vertex
/// (δ_min is the smaller of the two).
struct DegreeFloors {
    int out = 0;
    int in = 0;
};
[[nodiscard]] DegreeFloors degree_floors(const kadsim::graph::Digraph& g);

/// Whether every u→v path meets a vertex of `cut` (BFS from u that never
/// enters a cut vertex).
[[nodiscard]] bool separates(const kadsim::graph::Digraph& g, int u, int v,
                             std::span<const int> cut);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H
