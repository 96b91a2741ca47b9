// Workload definitions, the layer-by-layer replay of the analysis pipeline,
// and the correctness checks that run on a snapshot series.
#ifndef PERFBENCH_SERIES_H
#define PERFBENCH_SERIES_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "bench.h"
#include "core/analyzer.h"
#include "core/experiment.h"
#include "graph/snapshot.h"

namespace kadsim::exec {
class ThreadPool;
}
namespace kadsim::analysis {
class SnapshotDeltaCache;
}

namespace perfbench {

/// One workload's pinned inputs. Every field is set from constants and the
/// command-line seed; no REPRO_* environment variable is consulted.
struct WorkloadSpec {
    std::string name;
    kadsim::core::ExperimentConfig config;
    /// Simulated instants at which the series' snapshots are taken.
    std::vector<kadsim::sim::SimTime> instants;
    /// Measured through core::run_experiment (false: the daemon series).
    bool experiment = true;
};

/// The workload called `name` for `seed`; throws std::invalid_argument for
/// an unknown name.
[[nodiscard]] WorkloadSpec make_workload(const std::string& name, std::uint64_t seed);

/// The analyzer options of `resilience_daemon serve --threads 4`: c = 0.02,
/// 4 minimum sources, delta reuse on.
[[nodiscard]] kadsim::core::AnalyzerOptions daemon_analyzer_options();

/// Simulator-layer totals of one generated series.
struct ScenCounters {
    std::uint64_t events = 0;
    std::uint64_t rpcs_sent = 0;
    std::uint64_t arena_bytes = 0;  ///< peak node + queue + lookup arenas
};

/// Drives scen::Runner exactly as Runner::run does for the spec's instants
/// (step, capture, interval lookup traffic, probe wave), recording
/// scen.step / scen.capture / scen.probe spans.
[[nodiscard]] std::vector<kadsim::graph::RoutingSnapshot> generate_series(
    const WorkloadSpec& spec, Tracer& tracer, ScenCounters* counters = nullptr);

/// Flow-layer totals of a layered replay.
struct FlowCounters {
    std::uint64_t edges = 0;
    std::uint64_t kappa_pairs = 0;
    std::uint64_t lambda_pairs = 0;
    std::uint64_t capped = 0;  ///< κ + λ pairs settled at their degree bound
    std::uint64_t arcs_touched = 0;
    std::uint64_t arena_bytes = 0;  ///< peak κ kernel arena
};

/// One snapshot through the analysis layers called one by one — to_digraph,
/// flow::vertex_connectivity, flow::edge_connectivity, the structural
/// metrics — assembled into the sample ConnectivityAnalyzer::analyze would
/// return. Spans: graph.to_digraph, flow.kappa, flow.lambda,
/// analysis.structure. `delta` (optional) is the cross-snapshot reuse cache.
[[nodiscard]] kadsim::core::ResilienceSample analyze_layered(
    const kadsim::graph::RoutingSnapshot& snap,
    const kadsim::core::AnalyzerOptions& options, kadsim::exec::ThreadPool* pool,
    kadsim::analysis::SnapshotDeltaCache* delta, Tracer& tracer,
    FlowCounters& counters);

/// Field-by-field exact equality; on a mismatch names the first field.
[[nodiscard]] bool same_sample(const kadsim::core::ResilienceSample& a,
                               const kadsim::core::ResilienceSample& b,
                               std::string* field = nullptr);

/// Checks an analyzed series against its snapshots: sizes, the out/in degree
/// floors counted here, λ_min ≤ δ_min, κ_min ≤ the out-degree floor, and
/// oracle κ(u,v) ≤ λ(u,v) against flow::pair_vertex_connectivity /
/// flow::pair_edge_connectivity on `pairs_per_snapshot` seeded pairs of every
/// snapshot. A sampled κ_min above λ_min or δ_min is noted, not failed. Uses
/// up to 4 threads.
void check_series(const std::vector<kadsim::graph::RoutingSnapshot>& snaps,
                  const std::vector<kadsim::core::ResilienceSample>& samples,
                  std::uint64_t seed, int pairs_per_snapshot, Report& report);

/// Runs `fn(i)` for i in [0, count) on up to 4 threads.
void parallel_for(int count, const std::function<void(int)>& fn);

}  // namespace perfbench

#endif  // PERFBENCH_SERIES_H
