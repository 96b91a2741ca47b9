// Benchmark binary: runs one workload for a fixed measuring time and prints
// its metrics, operation counts and correctness checks, ending with a
// one-line JSON result.
//
//   perfbench --workload <traffic_sim|flow_sweep|daemon_series>
//                    --seed <n> --seconds <s> --trace <0|1>
//                    [--work-dir <dir>] [--trace-dir <dir>]
//
// --trace 0 measures the end-to-end metrics: whole rounds of the workload
// are repeated until --seconds have passed, with no span recording. --trace 1
// replays the workload once layer by layer with spans around every call into
// the program and reports the per-layer metrics; the spans are written as
// Chrome trace-event JSON to <trace-dir>/<workload>-<seed>.json.
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>

#include "analysis/incremental.h"
#include "bench.h"
#include "core/experiment.h"
#include "exec/thread_pool.h"
#include "scen/runner.h"
#include "serve_pass.h"
#include "series.h"

namespace {

using namespace perfbench;
namespace kc = kadsim::core;

constexpr double kMiB = 1024.0 * 1024.0;
/// Set-up is repeated this many times per run; its median is reported.
constexpr int kSetupRepeats = 3;
/// Seeded (u, v) pairs per snapshot for the oracle κ/λ checks.
constexpr int kOraclePairs = 4;

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string work_dir = ".bench_build/work";
    std::string trace_dir = ".bench_build/trace";
};

Args parse_args(int argc, char** argv) {
    Args args;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string value = argv[i + 1];
        if (key == "--workload") {
            args.workload = value;
        } else if (key == "--seed") {
            args.seed = std::stoull(value);
        } else if (key == "--seconds") {
            args.seconds = std::stod(value);
        } else if (key == "--trace") {
            args.trace = value == "1";
        } else if (key == "--work-dir") {
            args.work_dir = value;
        } else if (key == "--trace-dir") {
            args.trace_dir = value;
        } else {
            throw std::invalid_argument("unknown option " + key);
        }
    }
    if (args.workload.empty()) throw std::invalid_argument("--workload is required");
    return args;
}

void same_series(const std::vector<kc::ResilienceSample>& want,
                 const std::vector<kc::ResilienceSample>& got, const std::string& what,
                 Report& report) {
    if (!report.check(what, want.size() == got.size(),
                      std::to_string(got.size()) + " samples, expected " +
                          std::to_string(want.size()))) {
        return;
    }
    for (std::size_t i = 0; i < want.size(); ++i) {
        std::string field;
        report.check(what, same_sample(want[i], got[i], &field),
                     "sample " + std::to_string(i) + " differs in " + field);
    }
}

void end_to_end(Report& report, const std::vector<double>& walls,
                const std::vector<double>& ready, const std::vector<double>& per_s,
                const std::vector<double>& result_ms, const std::vector<double>& setup) {
    report.metric("wall_s", median(walls), "s");
    report.metric("ingest_ready_s", median(ready), "s");
    report.metric("query_per_s", median(per_s), "1/s");
    report.metric("setup_s", median(setup), "s");
    report.metric("peak_rss_mib", peak_rss_mib(), "MiB");
    // Result latency quantiles are printed, not gated: on the daemon series
    // they are dominated by the host's scheduling jitter (see README.md).
    std::printf("rounds %zu, round walls (s):", walls.size());
    for (const double w : walls) std::printf(" %.3f", w);
    std::printf("\nresult latency over %zu samples: p50 %.4f ms, p99 %.4f ms\n",
                result_ms.size(), quantile(result_ms, 0.50), quantile(result_ms, 0.99));
}

/// traffic_sim / flow_sweep, untraced: rounds of core::run_experiment on a
/// 4-thread pool. A result is a delivered sample; its latency is the time
/// from the call to its delivery.
void run_experiment_workload(const WorkloadSpec& spec, const Args& args,
                             Report& report) {
    std::vector<double> setup;
    std::unique_ptr<kadsim::exec::ThreadPool> pool;
    for (int i = 0; i < kSetupRepeats; ++i) {
        // Set-up: the analysis pool plus one bring-up of the overlay through
        // its bootstrap phase (pool threads started, allocator warmed).
        const auto t0 = Clock::now();
        pool.reset();
        pool = std::make_unique<kadsim::exec::ThreadPool>(4);
        kadsim::scen::Runner warm(spec.config.scenario);
        warm.step_to(spec.config.scenario.phases.setup_end);
        setup.push_back(seconds_since(t0));
    }

    std::vector<double> walls, ready, per_s, result_ms;
    std::vector<kc::ResilienceSample> first;
    const auto start = Clock::now();
    do {
        std::vector<double> delivered;
        const auto t0 = Clock::now();
        const kc::ExperimentSeries series = kc::run_experiment(
            spec.config,
            [&](const kc::ResilienceSample&) { delivered.push_back(seconds_since(t0)); },
            pool.get());
        const double wall = seconds_since(t0);
        for (std::size_t i = 0; i < series.samples.size(); ++i) {
            report.op("snapshot.analyzed", true);
        }
        report.check("round.delivered_all",
                     delivered.size() == spec.instants.size() &&
                         series.samples.size() == spec.instants.size(),
                     std::to_string(delivered.size()) + " delivered");
        if (first.empty()) {
            first = series.samples;
        } else {
            same_series(first, series.samples, "round.identical", report);
        }
        walls.push_back(wall);
        ready.push_back(delivered.empty() ? wall : delivered.back());
        per_s.push_back(static_cast<double>(delivered.size()) / wall);
        for (const double d : delivered) result_ms.push_back(d * 1e3);
    } while (seconds_since(start) < args.seconds);
    pool.reset();

    // Checks: regenerate the same snapshots and verify the series against
    // them (outside the timed region).
    Tracer off(false);
    const auto snaps = generate_series(spec, off);
    check_series(snaps, first, args.seed, kOraclePairs, report);
    end_to_end(report, walls, ready, per_s, result_ms, setup);
}

/// daemon_series, untraced: rounds of ingest + query mix + warm restart.
void run_daemon_workload(const WorkloadSpec& spec, const Args& args, Report& report) {
    std::vector<double> setup;
    DaemonInput input;
    for (int i = 0; i < kSetupRepeats; ++i) {
        // Set-up: simulate the overlay and encode the snapshot series.
        Tracer off(false);
        const auto t0 = Clock::now();
        DaemonInput fresh = make_daemon_input(generate_series(spec, off));
        setup.push_back(seconds_since(t0));
        if (i > 0) {
            report.check("setup.deterministic", fresh.hashes == input.hashes,
                         "series differs between set-ups");
        }
        input = std::move(fresh);
    }
    const auto plan = plan_queries(input, args.seed);

    Tracer off(false);
    std::vector<RoundResult> rounds;
    const auto start = Clock::now();
    do {
        rounds.push_back(daemon_round(input, plan, args.work_dir, off, report));
    } while (seconds_since(start) < args.seconds);

    const auto reference = offline_reference(input);
    const auto pair_kappa = pair_reference(input, plan);
    check_series(input.parsed, reference, args.seed, kOraclePairs, report);
    std::vector<double> walls, ready, per_s, result_ms;
    for (const RoundResult& r : rounds) {
        check_round(input, plan, reference, pair_kappa, r, report);
        walls.push_back(r.wall_s);
        ready.push_back(r.ingest_ready_s);
        per_s.push_back(static_cast<double>(r.queries) / r.mix_s);
        result_ms.insert(result_ms.end(), r.query_ms.begin(), r.query_ms.end());
    }
    end_to_end(report, walls, ready, per_s, result_ms, setup);
}

/// Any workload, traced: the series through every layer once, with spans.
void run_traced(const WorkloadSpec& spec, const Args& args, Report& report) {
    Tracer tracer(true);
    kadsim::exec::ThreadPool pool(4);
    const auto begin = Clock::now();

    ScenCounters scen;
    const auto snaps = generate_series(spec, tracer, &scen);
    // Benchmark-side preparation inside the window; excluded from its wall.
    const auto prep_start = Clock::now();
    const DaemonInput input = make_daemon_input(snaps);
    const auto plan = plan_queries(input, args.seed);
    const double prep_s = seconds_since(prep_start);
    // The daemon series is analyzed as the daemon receives it (decoded
    // bytes, no runner-side companions); the experiment series as captured.
    const auto& series = spec.experiment ? snaps : input.parsed;

    FlowCounters flow;
    std::unique_ptr<kadsim::analysis::SnapshotDeltaCache> delta;
    if (spec.config.analyzer.use_delta) {
        delta = std::make_unique<kadsim::analysis::SnapshotDeltaCache>();
    }
    std::vector<kc::ResilienceSample> layered;
    for (const auto& snap : series) {
        layered.push_back(analyze_layered(snap, spec.config.analyzer, &pool, delta.get(),
                                          tracer, flow));
        report.op("snapshot.layered", true);
    }

    const kc::ConnectivityAnalyzer analyzer(daemon_analyzer_options());
    std::vector<kc::ResilienceSample> replay;
    for (const auto& snap : series) {
        auto span = tracer.span("core.analyze");
        replay.push_back(analyzer.analyze(snap, &pool));
        report.op("snapshot.analyzed", true);
    }

    const RoundResult round = daemon_round(input, plan, args.work_dir, tracer, report);
    const auto end = Clock::now();
    const double traced_wall =
        std::chrono::duration<double>(end - begin).count() - prep_s;
    const double covered = tracer.root_cover_s(begin, end);

    // Checks, outside the traced window.
    if (spec.experiment) {
        const kc::ExperimentSeries reference = kc::run_experiment(spec.config, nullptr, &pool);
        same_series(reference.samples, layered, "decomposition.identity", report);
        std::printf("untraced run_experiment wall %.3f s\n", reference.wall_seconds);
    }
    const auto offline = offline_reference(input);
    if (!spec.experiment) same_series(offline, layered, "decomposition.identity", report);
    same_series(layered, replay, "core.analyze=layered", report);
    check_series(series, layered, args.seed, kOraclePairs, report);
    check_round(input, plan, offline, pair_reference(input, plan), round, report);

    const auto total = [&](const char* name) { return tracer.total_s(name); };
    report.metric("scen.step_s", total("scen.step"), "s");
    report.metric("scen.events_per_s",
                  static_cast<double>(scen.events) / total("scen.step"), "1/s");
    report.metric("scen.events", static_cast<double>(scen.events), "count");
    report.metric("scen.rpcs_sent", static_cast<double>(scen.rpcs_sent), "count");
    report.metric("scen.capture_s", total("scen.capture"), "s");
    report.metric("scen.probe_s", total("scen.probe"), "s");
    report.metric("scen.arena_mib", static_cast<double>(scen.arena_bytes) / kMiB, "MiB");
    report.metric("graph.to_digraph_s", total("graph.to_digraph"), "s");
    report.metric("graph.edges", static_cast<double>(flow.edges), "count");
    report.metric("flow.kappa_s", total("flow.kappa"), "s");
    report.metric("flow.lambda_s", total("flow.lambda"), "s");
    report.metric("flow.kappa_pairs", static_cast<double>(flow.kappa_pairs), "count");
    report.metric("flow.lambda_pairs", static_cast<double>(flow.lambda_pairs), "count");
    report.metric("flow.capped_ratio",
                  static_cast<double>(flow.capped) /
                      static_cast<double>(flow.kappa_pairs + flow.lambda_pairs),
                  "ratio");
    report.metric("flow.arcs_touched", static_cast<double>(flow.arcs_touched), "count");
    report.metric("flow.arena_mib", static_cast<double>(flow.arena_bytes) / kMiB, "MiB");
    report.metric("analysis.structure_s", total("analysis.structure"), "s");
    const auto* cache = analyzer.delta_cache();
    const double reused = cache == nullptr ? 0.0
                                           : static_cast<double>(cache->kappa_stats().hits +
                                                                 cache->lambda_stats().hits);
    report.metric("analysis.delta_hit_ratio",
                  reused / static_cast<double>(flow.kappa_pairs + flow.lambda_pairs),
                  "ratio");
    report.metric("core.analyze_s", total("core.analyze"), "s");
    report.metric("serve.ingest_rtt_ms", median(round.ingest_ms), "ms");
    report.metric("serve.metrics_query_ms", median(round.metrics_ms), "ms");
    report.metric("serve.pair_query_ms", median(round.pair_ms), "ms");
    report.metric("serve.hot_hit_ratio",
                  static_cast<double>(round.hot_hits) /
                      static_cast<double>(round.hot_hits + round.hot_misses),
                  "ratio");
    report.metric("serve.spool_rebuilds", static_cast<double>(round.hot_misses), "count");
    report.metric("serve.warm_restart_s", round.warm_restart_s, "s");
    report.metric("trace.wall_s", traced_wall, "s");
    report.metric("trace.coverage", covered / traced_wall, "ratio");

    std::printf("layer self times (s):\n");
    for (const char* name :
         {"scen.step", "scen.capture", "scen.probe", "graph.to_digraph", "flow.kappa",
          "flow.lambda", "analysis.structure", "core.analyze", "serve.lifecycle",
          "serve.ingest", "serve.ready", "serve.mix", "serve.query.metrics",
          "serve.query.kappa", "serve.query.pair", "serve.warm_restart"}) {
        std::printf("  %-22s total %10.4f self %10.4f\n", name, tracer.total_s(name),
                    tracer.self_s(name));
    }
    std::filesystem::create_directories(args.trace_dir);
    const std::string path =
        args.trace_dir + "/" + spec.name + "-" + std::to_string(args.seed) + ".json";
    report.check("trace.written", tracer.write_chrome_json(path), path);
    std::printf("trace %s (%.1f%% of %.3f s traced wall in layer spans)\n", path.c_str(),
                100.0 * covered / traced_wall, traced_wall);
}

}  // namespace

int main(int argc, char** argv) {
    // A daemon connection that closes mid-reply must not kill the process.
    std::signal(SIGPIPE, SIG_IGN);
    try {
        const Args args = parse_args(argc, argv);
        const WorkloadSpec spec = make_workload(args.workload, args.seed);
        Report report;
        if (args.trace) {
            run_traced(spec, args, report);
        } else if (spec.experiment) {
            run_experiment_workload(spec, args, report);
        } else {
            run_daemon_workload(spec, args, report);
        }
        report.print(spec.name);
        return report.correct() ? 0 : 1;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
