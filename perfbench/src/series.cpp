#include "series.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "analysis/incremental.h"
#include "analysis/metrics.h"
#include "core/registry.h"
#include "exec/thread_pool.h"
#include "flow/edge_connectivity.h"
#include "flow/vertex_connectivity.h"
#include "oracle.h"
#include "scen/runner.h"
#include "util/rng.h"

namespace perfbench {

namespace kc = kadsim::core;
namespace kg = kadsim::graph;
namespace ks = kadsim::sim;

namespace {

constexpr int kThreads = 4;

/// Every ReproScale field set explicitly: the registry's defaults would
/// otherwise read REPRO_THREADS.
kc::ReproScale pinned_scale(std::uint64_t seed) {
    kc::ReproScale scale;
    scale.size_small = 250;
    scale.size_large = 400;
    scale.churn_figs_end = ks::minutes(360);
    scale.snapshot_interval = ks::minutes(30);
    scale.sample_c = 0.02;
    scale.min_sources = 4;
    scale.threads = kThreads;
    scale.seed = seed;
    return scale;
}

std::vector<ks::SimTime> every(ks::SimTime interval, ks::SimTime end) {
    std::vector<ks::SimTime> out;
    for (ks::SimTime t = interval; t <= end; t += interval) out.push_back(t);
    return out;
}

}  // namespace

kc::AnalyzerOptions daemon_analyzer_options() {
    kc::AnalyzerOptions options;
    options.sample_c = 0.02;
    options.min_sources = 4;
    options.threads = kThreads;
    options.use_delta = true;
    return options;
}

WorkloadSpec make_workload(const std::string& name, std::uint64_t seed) {
    const kc::PaperScenarios paper(pinned_scale(seed));
    WorkloadSpec spec;
    spec.name = name;
    if (name == "traffic_sim") {
        // Simulation E, k = 20: n = 250, churn 1/1, 10 lookups + 1
        // dissemination per node-minute, probes on; setup and stabilisation
        // as in §5.4, then 30 minutes of churn, a snapshot every 15 minutes.
        spec.config = paper.sim_e(20);
        spec.config.scenario.phases.set_end(ks::minutes(150));
        spec.config.snapshot_interval = ks::minutes(15);
    } else if (name == "flow_sweep") {
        // The metric family's overlay shape (churn 1/1, no traffic, 180-min
        // horizon, 30-min snapshots) at n = 500.
        spec.config = paper.metrics_1000();
        spec.config.scenario.name = "perfbench-flow_sweep:size=500,churn=1/1,k=20";
        spec.config.scenario.initial_size = 500;
    } else if (name == "daemon_series") {
        // A 500-node churn-1/1 overlay without traffic, snapshotted every
        // simulated minute from minute 120 (eight snapshots, twice the
        // daemon's hot LRU).
        spec.config = paper.metrics_1000();
        spec.config.scenario.name = "perfbench-daemon_series:size=500,churn=1/1,k=20";
        spec.config.scenario.initial_size = 500;
        spec.config.scenario.phases.set_end(ks::minutes(127));
        spec.config.analyzer = daemon_analyzer_options();
        for (int i = 0; i < 8; ++i) spec.instants.push_back(ks::minutes(120 + i));
        spec.experiment = false;
        return spec;
    } else {
        throw std::invalid_argument("unknown workload: " + name);
    }
    spec.config.analyzer.threads = kThreads;
    spec.instants = every(spec.config.snapshot_interval, spec.config.scenario.phases.end);
    return spec;
}

std::vector<kg::RoutingSnapshot> generate_series(const WorkloadSpec& spec,
                                                 Tracer& tracer,
                                                 ScenCounters* counters) {
    kadsim::scen::Runner runner(spec.config.scenario);
    std::vector<kg::RoutingSnapshot> out;
    out.reserve(spec.instants.size());
    kadsim::stats::LookupTraffic prev;
    const int probes = spec.config.scenario.traffic.probes_per_snapshot;
    std::uint64_t arena = 0;
    for (const ks::SimTime t : spec.instants) {
        {
            auto span = tracer.span("scen.step");
            runner.step_to(t);
        }
        kg::RoutingSnapshot snap;
        {
            auto span = tracer.span("scen.capture");
            runner.capture(snap);
            const kadsim::stats::LookupTraffic cur = runner.lookup_traffic();
            snap.lookups = cur.diff(prev);
            prev = cur;
        }
        if (probes > 0) {
            auto span = tracer.span("scen.probe");
            snap.probes = runner.run_lookup_probes(probes);
        }
        arena = std::max(arena, runner.arena_memory_bytes() +
                                    runner.queue_memory_bytes() +
                                    runner.lookup_arena_bytes());
        out.push_back(std::move(snap));
    }
    if (counters != nullptr) {
        const kadsim::scen::RunnerTotals totals = runner.totals();
        counters->events = totals.events_executed;
        counters->rpcs_sent = totals.protocol.rpcs_sent;
        counters->arena_bytes = arena;
    }
    return out;
}

kc::ResilienceSample analyze_layered(const kg::RoutingSnapshot& snap,
                                     const kc::AnalyzerOptions& options,
                                     kadsim::exec::ThreadPool* pool,
                                     kadsim::analysis::SnapshotDeltaCache* delta,
                                     Tracer& tracer, FlowCounters& counters) {
    kc::ResilienceSample sample;
    sample.time_min = static_cast<double>(snap.time_ms) / 60000.0;
    sample.removed_total = snap.removed_total;
    sample.lookups_done = snap.lookups.completed;
    if (snap.lookups.completed > 0) {
        const auto done = static_cast<double>(snap.lookups.completed);
        sample.lookup_success_rate = static_cast<double>(snap.lookups.succeeded) / done;
        sample.lookup_hop_p50 = static_cast<double>(snap.lookups.hops.quantile(0.50));
        sample.lookup_hop_p99 = static_cast<double>(snap.lookups.hops.quantile(0.99));
        sample.lookup_latency_p50_ms =
            static_cast<double>(snap.lookups.latency_ms.quantile(0.50));
        sample.lookup_latency_p99_ms =
            static_cast<double>(snap.lookups.latency_ms.quantile(0.99));
    }
    sample.probes_done = snap.probes.probes;
    if (snap.probes.probes > 0) {
        sample.probe_success_rate = static_cast<double>(snap.probes.succeeded) /
                                    static_cast<double>(snap.probes.probes);
        sample.probe_hop_p50 = static_cast<double>(snap.probes.hops.quantile(0.50));
        sample.probe_hop_p99 = static_cast<double>(snap.probes.hops.quantile(0.99));
    }

    const kg::Digraph g = [&] {
        auto span = tracer.span("graph.to_digraph");
        return snap.to_digraph(pool);
    }();
    sample.n = g.vertex_count();
    sample.m = g.edge_count();
    counters.edges += static_cast<std::uint64_t>(g.edge_count());
    if (sample.n == 0) return sample;
    sample.reciprocity = g.reciprocity();

    if (delta != nullptr) delta->begin_snapshot(snap, g);

    kadsim::flow::ConnectivityOptions kopt;
    kopt.sample_fraction = options.sample_c;
    kopt.min_sources = options.min_sources;
    kopt.pool = pool;
    kopt.use_push_relabel = options.use_push_relabel;
    kopt.use_certificate = options.use_certificate;
    kopt.reuse = delta != nullptr ? delta->kappa_hook() : nullptr;
    kadsim::flow::ConnectivityResult kappa;
    {
        auto span = tracer.span("flow.kappa");
        kappa = kadsim::flow::vertex_connectivity(g, kopt);
    }

    kadsim::flow::EdgeConnectivityOptions lopt;
    lopt.sample_fraction = options.sample_c;
    lopt.min_sources = options.min_sources;
    lopt.pool = pool;
    lopt.use_certificate = options.use_certificate;
    lopt.reuse = delta != nullptr ? delta->lambda_hook() : nullptr;
    kadsim::flow::EdgeConnectivityResult lambda;
    {
        auto span = tracer.span("flow.lambda");
        lambda = kadsim::flow::edge_connectivity(g, lopt);
    }

    kadsim::analysis::ResilienceMetrics metrics;
    {
        auto span = tracer.span("analysis.structure");
        const kadsim::analysis::MetricContext context{g, options.sample_c,
                                                      options.min_sources, pool,
                                                      options.use_certificate};
        kadsim::analysis::ReachabilityMetric{}.analyze(context, metrics);
        kadsim::analysis::CutStructureMetric{}.analyze(context, metrics);
        kadsim::analysis::DegreeMetric{}.analyze(context, metrics);
    }
    if (delta != nullptr) delta->end_snapshot();

    counters.kappa_pairs += kappa.pairs_evaluated;
    counters.lambda_pairs += lambda.pairs_evaluated;
    counters.capped += kappa.flows_capped + lambda.flows_capped;
    counters.arcs_touched += kappa.arcs_touched;
    counters.arena_bytes = std::max(counters.arena_bytes, kappa.arena_bytes);

    sample.kappa_min = kappa.kappa_min;
    sample.kappa_avg = kappa.kappa_avg;
    sample.pairs_evaluated = kappa.pairs_evaluated;
    sample.lambda_min = lambda.lambda_min;
    sample.lambda_avg = lambda.lambda_avg;
    sample.scc_count = metrics.scc_count;
    sample.scc_frac = metrics.scc_frac;
    sample.wcc_frac = metrics.wcc_frac;
    sample.articulation_points = metrics.articulation_points;
    sample.bridges = metrics.bridges;
    sample.out_degree_min = metrics.out_degree_min;
    sample.in_degree_min = metrics.in_degree_min;
    sample.kappa_degree_gap =
        std::min(metrics.out_degree_min, metrics.in_degree_min) - sample.kappa_min;
    return sample;
}

bool same_sample(const kc::ResilienceSample& a, const kc::ResilienceSample& b,
                 std::string* field) {
#define PERFBENCH_FIELD(f)              \
    if (!(a.f == b.f)) {                \
        if (field != nullptr) *field = #f; \
        return false;                   \
    }
    PERFBENCH_FIELD(time_min)
    PERFBENCH_FIELD(n)
    PERFBENCH_FIELD(m)
    PERFBENCH_FIELD(kappa_min)
    PERFBENCH_FIELD(kappa_avg)
    PERFBENCH_FIELD(pairs_evaluated)
    PERFBENCH_FIELD(scc_count)
    PERFBENCH_FIELD(reciprocity)
    PERFBENCH_FIELD(removed_total)
    PERFBENCH_FIELD(lambda_min)
    PERFBENCH_FIELD(lambda_avg)
    PERFBENCH_FIELD(scc_frac)
    PERFBENCH_FIELD(wcc_frac)
    PERFBENCH_FIELD(articulation_points)
    PERFBENCH_FIELD(bridges)
    PERFBENCH_FIELD(out_degree_min)
    PERFBENCH_FIELD(in_degree_min)
    PERFBENCH_FIELD(kappa_degree_gap)
    PERFBENCH_FIELD(lookups_done)
    PERFBENCH_FIELD(lookup_success_rate)
    PERFBENCH_FIELD(lookup_hop_p50)
    PERFBENCH_FIELD(lookup_hop_p99)
    PERFBENCH_FIELD(lookup_latency_p50_ms)
    PERFBENCH_FIELD(lookup_latency_p99_ms)
    PERFBENCH_FIELD(probes_done)
    PERFBENCH_FIELD(probe_success_rate)
    PERFBENCH_FIELD(probe_hop_p50)
    PERFBENCH_FIELD(probe_hop_p99)
#undef PERFBENCH_FIELD
    return true;
}

void parallel_for(int count, const std::function<void(int)>& fn) {
    std::atomic<int> next{0};
    std::mutex error_mutex;
    std::exception_ptr error;
    const auto body = [&] {
        try {
            for (int i = next.fetch_add(1); i < count; i = next.fetch_add(1)) fn(i);
        } catch (...) {
            std::lock_guard lock(error_mutex);
            if (!error) error = std::current_exception();
            next.store(count);
        }
    };
    std::vector<std::jthread> threads;
    const int workers = std::min(kThreads, count);
    for (int t = 1; t < workers; ++t) threads.emplace_back(body);
    body();
    threads.clear();  // joins
    if (error) std::rethrow_exception(error);
}

void check_series(const std::vector<kg::RoutingSnapshot>& snaps,
                  const std::vector<kc::ResilienceSample>& samples,
                  std::uint64_t seed, int pairs_per_snapshot, Report& report) {
    if (!report.check("series.length", snaps.size() == samples.size(),
                      std::to_string(snaps.size()) + " snapshots vs " +
                          std::to_string(samples.size()) + " samples")) {
        return;
    }
    parallel_for(static_cast<int>(snaps.size()), [&](int i) {
        const kg::RoutingSnapshot& snap = snaps[static_cast<std::size_t>(i)];
        const kc::ResilienceSample& s = samples[static_cast<std::size_t>(i)];
        const kg::Digraph g = snap.to_digraph();
        const std::string at = "snapshot " + std::to_string(i);
        report.check("sample.size", s.n == g.vertex_count() && s.m == g.edge_count(),
                     at);
        const DegreeFloors floors = degree_floors(g);
        const int delta_min = std::min(floors.out, floors.in);
        report.check("sample.degree_floors",
                     s.out_degree_min == floors.out && s.in_degree_min == floors.in,
                     at + ": reported " + std::to_string(s.out_degree_min) + "/" +
                         std::to_string(s.in_degree_min) + ", counted " +
                         std::to_string(floors.out) + "/" + std::to_string(floors.in));
        report.check("sample.lambda<=delta", s.lambda_min <= delta_min,
                     at + ": " + std::to_string(s.lambda_min) + " > " +
                         std::to_string(delta_min));
        report.check("sample.kappa<=out_floor", s.kappa_min <= floors.out,
                     at + ": " + std::to_string(s.kappa_min) + " > " +
                         std::to_string(floors.out));
        // κ_min comes from c·n sampled sources and skips adjacent pairs, so
        // when every sampled source links to the vertex of smallest in-degree
        // it can exceed λ_min and δ_min. That happens on some seeds only; it
        // is counted and shown, not failed (see CHANGES.md).
        if (s.kappa_min > s.lambda_min || s.kappa_min > delta_min) {
            report.note("sample.kappa_min above lambda_min/delta_min",
                        at + ": kappa " + std::to_string(s.kappa_min) + ", lambda " +
                            std::to_string(s.lambda_min) + ", delta " +
                            std::to_string(delta_min));
        }
        const int n = g.vertex_count();
        if (n < 3) return;
        kadsim::util::Rng rng(seed * 1000003ULL + static_cast<std::uint64_t>(i));
        for (int p = 0; p < pairs_per_snapshot; ++p) {
            int u = 0;
            int v = 0;
            do {
                u = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
                v = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
            } while (u == v || g.has_edge(u, v));
            const std::string pair = at + " pair " + std::to_string(u) + "->" +
                                     std::to_string(v);
            const int kappa = kadsim::flow::pair_vertex_connectivity(g, u, v);
            const int kappa_ref = oracle_vertex_connectivity(g, u, v);
            report.check("pair.kappa=oracle", kappa == kappa_ref,
                         pair + ": " + std::to_string(kappa) + " vs oracle " +
                             std::to_string(kappa_ref));
            const int lambda = kadsim::flow::pair_edge_connectivity(g, u, v);
            const int lambda_ref = oracle_edge_connectivity(g, u, v);
            report.check("pair.lambda=oracle", lambda == lambda_ref,
                         pair + ": " + std::to_string(lambda) + " vs oracle " +
                             std::to_string(lambda_ref));
            report.check("pair.kappa<=lambda", kappa_ref <= lambda_ref, pair);
        }
    });
}

}  // namespace perfbench
