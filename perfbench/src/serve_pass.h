// The daemon round: a fresh serve::Daemon ingests a snapshot series over
// its AF_UNIX socket, closed-loop client connections run a seeded query
// mix, and a restarted daemon re-ingests the series from the shared result
// cache. Responses are kept for the checks, which run after the round.
#ifndef PERFBENCH_SERVE_PASS_H
#define PERFBENCH_SERVE_PASS_H

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench.h"
#include "core/analyzer.h"
#include "graph/digraph.h"
#include "graph/snapshot.h"

namespace perfbench {

/// A series as the daemon receives it: canonical binary bytes, and what the
/// benchmark derives from them independently of the daemon.
struct DaemonInput {
    std::vector<std::string> bytes;  ///< KSNP serialization per snapshot
    std::vector<std::string> hashes; ///< serve::Daemon::content_hash
    std::vector<kadsim::graph::RoutingSnapshot> parsed;
    std::vector<kadsim::graph::Digraph> graphs;
    std::vector<std::unordered_map<std::uint32_t, int>> vertex_of;  ///< address → vertex
};

[[nodiscard]] DaemonInput make_daemon_input(
    const std::vector<kadsim::graph::RoutingSnapshot>& series);

struct Query {
    enum Type { kMetrics, kKappa, kPair } type = kMetrics;
    int snap = 0;
    int u = -1;
    int v = -1;
};

constexpr int kConnections = 2;
constexpr int kQueriesPerConnection = 500;

/// The seeded mix, one closed-loop list per connection: 1000 queries, exactly
/// 40% METRICS, 30% KAPPA and 30% PAIR on non-adjacent pairs, in seeded order
/// with snapshots drawn uniformly. Connection 0 sends every PAIR (plus 100
/// METRICS and 100 KAPPA); connection 1 sends 300 METRICS and 200 KAPPA.
[[nodiscard]] std::vector<std::vector<Query>> plan_queries(const DaemonInput& input,
                                                           std::uint64_t seed);

struct RoundResult {
    double wall_s = 0.0;          ///< daemon start to warm restart done
    double ingest_ready_s = 0.0;  ///< first INGEST to the last METRICS answer
    double mix_s = 0.0;           ///< query mix, first send to last answer
    double warm_restart_s = 0.0;  ///< restarted daemon: start to series ready
    std::uint64_t queries = 0;
    std::vector<double> query_ms;  ///< every mix round trip
    std::vector<double> ingest_ms;
    std::vector<double> metrics_ms;
    std::vector<double> pair_ms;
    std::uint64_t hot_hits = 0;
    std::uint64_t hot_misses = 0;
    std::vector<std::string> rows;       ///< METRICS answers after ingest
    std::vector<std::string> warm_rows;  ///< METRICS answers after restart
    std::vector<std::vector<std::string>> answers;  ///< per connection, per query
    std::uint64_t warm_cache_hits = 0;
    std::uint64_t warm_analyzed = 0;
};

/// One daemon round in a fresh directory under `work_dir` (cache and socket
/// paths are relative, so the socket path stays short), removed afterwards.
/// Spans: serve.lifecycle, serve.ingest, serve.ready, serve.mix,
/// serve.query, serve.warm_restart. Counts ingest/query operations in
/// `report`.
[[nodiscard]] RoundResult daemon_round(const DaemonInput& input,
                                       const std::vector<std::vector<Query>>& plan,
                                       const std::string& work_dir, Tracer& tracer,
                                       Report& report);

/// The offline reference rows: a fresh ConnectivityAnalyzer (no pool, no
/// delta, the daemon's c and minimum sources) per parsed snapshot.
[[nodiscard]] std::vector<kadsim::core::ResilienceSample> offline_reference(
    const DaemonInput& input);

/// Oracle κ(u,v) of every PAIR query of the plan (0 for other types).
[[nodiscard]] std::vector<std::vector<int>> pair_reference(
    const DaemonInput& input, const std::vector<std::vector<Query>>& plan);

/// Checks a round's answers: ingest and warm METRICS rows equal the offline
/// rows, the restart was served from the result cache, KAPPA answers match,
/// and every PAIR cut has the oracle's κ(u,v) and separates u from v.
void check_round(const DaemonInput& input,
                 const std::vector<std::vector<Query>>& plan,
                 const std::vector<kadsim::core::ResilienceSample>& reference,
                 const std::vector<std::vector<int>>& pair_kappa,
                 const RoundResult& round, Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_SERVE_PASS_H
