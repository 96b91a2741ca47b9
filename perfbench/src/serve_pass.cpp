#include "serve_pass.h"

#include <unistd.h>

#include <atomic>
#include <charconv>
#include <exception>
#include <filesystem>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "oracle.h"
#include "serve/daemon.h"
#include "serve/protocol.h"
#include "serve/result_cache.h"
#include "series.h"
#include "util/rng.h"

namespace perfbench {

namespace kg = kadsim::graph;
namespace kv = kadsim::serve;

namespace {

/// One closed-loop client connection.
class Connection {
public:
    explicit Connection(const std::string& socket_path) {
        std::string error;
        fd_ = kv::connect_unix(socket_path, error);
        if (fd_ < 0) throw std::runtime_error("connect " + socket_path + ": " + error);
    }
    ~Connection() { ::close(fd_); }
    Connection(const Connection&) = delete;
    Connection& operator=(const Connection&) = delete;

    /// Sends one request frame and waits for the response frame.
    std::string call(std::string_view request) {
        if (kv::write_frame(fd_, request) != kv::FrameResult::kOk) {
            return "ERR client write failed";
        }
        std::string response;
        if (kv::read_frame(fd_, response) != kv::FrameResult::kOk) {
            return "ERR client read failed";
        }
        return response;
    }

private:
    int fd_ = -1;
};

double ms_since(Clock::time_point t0) { return seconds_since(t0) * 1e3; }

bool is_ok(const std::string& response) { return response.starts_with("OK"); }

const char* query_name(Query::Type type) {
    switch (type) {
        case Query::kMetrics: return "metrics";
        case Query::kKappa: return "kappa";
        case Query::kPair: return "pair";
    }
    return "?";
}

std::string request_of(const DaemonInput& input, const Query& q) {
    const std::string& hash = input.hashes[static_cast<std::size_t>(q.snap)];
    switch (q.type) {
        case Query::kMetrics: return "METRICS " + hash;
        case Query::kKappa: return "KAPPA " + hash;
        case Query::kPair:
            return "PAIR " + hash + " " + std::to_string(q.u) + " " + std::to_string(q.v);
    }
    return {};
}

/// Ingests the whole series on `c`, then waits for every snapshot's METRICS
/// row (analysis runs in ingest order, so the rows arrive in order).
void ingest_series(const DaemonInput& input, Connection& c, const char* op_prefix,
                   Tracer& tracer, Report& report, std::vector<double>* ingest_ms,
                   std::vector<std::string>& rows) {
    const std::string prefix(op_prefix);
    for (std::size_t i = 0; i < input.bytes.size(); ++i) {
        auto span = tracer.span("serve.ingest");
        const auto t0 = Clock::now();
        const std::string response =
            c.call("INGEST perfbench-snapshot-" + std::to_string(i) + "\n" + input.bytes[i]);
        if (ingest_ms != nullptr) ingest_ms->push_back(ms_since(t0));
        report.op(prefix + "ingest", response == "OK " + input.hashes[i]);
    }
    for (std::size_t i = 0; i < input.bytes.size(); ++i) {
        auto span = tracer.span("serve.ready");
        rows.push_back(c.call("METRICS " + input.hashes[i]));
        report.op(prefix + "ready", is_ok(rows.back()));
    }
}

/// One closed-loop connection: sends each query after the previous answer.
void run_client(const DaemonInput& input, const std::vector<Query>& queries,
                const std::string& socket_path, Tracer& tracer,
                std::vector<std::string>& answers, std::vector<double>& rtt_ms) {
    Connection c(socket_path);
    for (const Query& q : queries) {
        const std::string request = request_of(input, q);
        auto span = tracer.span(q.type == Query::kPair    ? "serve.query.pair"
                                : q.type == Query::kKappa ? "serve.query.kappa"
                                                          : "serve.query.metrics");
        const auto t0 = Clock::now();
        answers.push_back(c.call(request));
        rtt_ms.push_back(ms_since(t0));
    }
}

}  // namespace

DaemonInput make_daemon_input(const std::vector<kg::RoutingSnapshot>& series) {
    DaemonInput input;
    for (const kg::RoutingSnapshot& snap : series) {
        std::ostringstream out(std::ios::binary);
        snap.save_binary(out);
        input.bytes.push_back(out.str());
        input.hashes.push_back(kv::Daemon::content_hash(snap));
        std::istringstream in(input.bytes.back(), std::ios::binary);
        input.parsed.push_back(kg::RoutingSnapshot::parse(in));
        input.graphs.push_back(input.parsed.back().to_digraph());
        std::unordered_map<std::uint32_t, int> vertex_of;
        const auto& nodes = input.parsed.back().nodes;
        for (std::size_t v = 0; v < nodes.size(); ++v) {
            vertex_of.emplace(nodes[v].address, static_cast<int>(v));
        }
        input.vertex_of.push_back(std::move(vertex_of));
    }
    return input;
}

std::vector<std::vector<Query>> plan_queries(const DaemonInput& input,
                                             std::uint64_t seed) {
    kadsim::util::Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
    const auto snaps = static_cast<std::uint64_t>(input.graphs.size());
    // Exact type counts per connection, shuffled, so every seed gets the same
    // mix and the latency quantiles never cross a type boundary. Only
    // connection 0 sends PAIR: the hot-state LRU then sees one access order
    // per seed, and its hits and misses do not depend on thread interleaving.
    constexpr int kCounts[kConnections][3] = {{100, 100, 300}, {300, 200, 0}};
    std::vector<std::vector<Query>> plan(kConnections);
    for (std::size_t k = 0; k < plan.size(); ++k) {
        auto& list = plan[k];
        for (const Query::Type type : {Query::kMetrics, Query::kKappa, Query::kPair}) {
            list.insert(list.end(), static_cast<std::size_t>(kCounts[k][type]),
                        Query{type});
        }
        for (std::size_t j = list.size() - 1; j > 0; --j) {
            std::swap(list[j], list[rng.next_below(j + 1)]);
        }
        for (Query& q : list) {
            q.snap = static_cast<int>(rng.next_below(snaps));
            if (q.type != Query::kPair) continue;
            const kg::Digraph& g = input.graphs[static_cast<std::size_t>(q.snap)];
            const auto n = static_cast<std::uint64_t>(g.vertex_count());
            do {
                q.u = static_cast<int>(rng.next_below(n));
                q.v = static_cast<int>(rng.next_below(n));
            } while (q.u == q.v || g.has_edge(q.u, q.v));
        }
    }
    return plan;
}

RoundResult daemon_round(const DaemonInput& input,
                         const std::vector<std::vector<Query>>& plan,
                         const std::string& work_dir, Tracer& tracer, Report& report) {
    namespace fs = std::filesystem;
    static std::atomic<int> rounds{0};
    const std::string dir = work_dir + "/" + std::to_string(::getpid()) + "-round" +
                            std::to_string(rounds.fetch_add(1));
    fs::remove_all(dir);
    fs::create_directories(dir);
    struct RemoveDir {
        std::string path;
        ~RemoveDir() {
            std::error_code ec;
            fs::remove_all(path, ec);
        }
    } remove_dir{dir};

    kv::DaemonConfig config;
    config.socket_path = dir + "/live.sock";
    config.cache_dir = dir + "/cache";
    config.analysis_threads = 4;
    config.hot_capacity = 4;
    config.queue_capacity = 16;
    config.analyzer = daemon_analyzer_options();

    RoundResult r;
    const auto round_start = Clock::now();
    {
        auto daemon = std::make_unique<kv::Daemon>(config);
        {
            auto span = tracer.span("serve.lifecycle");
            daemon->start();
        }
        auto ingest = std::make_unique<Connection>(config.socket_path);
        const auto ready_start = Clock::now();
        ingest_series(input, *ingest, "", tracer, report, &r.ingest_ms, r.rows);
        r.ingest_ready_s = seconds_since(ready_start);

        r.answers.assign(plan.size(), {});
        std::vector<std::vector<double>> rtt(plan.size());
        {
            auto span = tracer.span("serve.mix");
            const auto mix_start = Clock::now();
            std::vector<std::exception_ptr> errors(plan.size());
            {
                std::vector<std::jthread> clients;  // joined when the scope ends
                for (std::size_t k = 0; k < plan.size(); ++k) {
                    clients.emplace_back([&, k] {
                        try {
                            run_client(input, plan[k], config.socket_path, tracer,
                                       r.answers[k], rtt[k]);
                        } catch (...) {
                            errors[k] = std::current_exception();
                        }
                    });
                }
            }
            for (const auto& error : errors) {
                if (error) std::rethrow_exception(error);
            }
            r.mix_s = seconds_since(mix_start);
        }
        for (std::size_t k = 0; k < plan.size(); ++k) {
            for (std::size_t j = 0; j < plan[k].size(); ++j) {
                const Query& q = plan[k][j];
                report.op(std::string("query.") + query_name(q.type),
                          is_ok(r.answers[k][j]));
                r.query_ms.push_back(rtt[k][j]);
                if (q.type == Query::kMetrics) r.metrics_ms.push_back(rtt[k][j]);
                if (q.type == Query::kPair) r.pair_ms.push_back(rtt[k][j]);
                ++r.queries;
            }
        }
        const kv::DaemonCounters counters = daemon->counters();
        r.hot_hits = counters.hot_hits;
        r.hot_misses = counters.hot_misses;
        auto span = tracer.span("serve.lifecycle");
        ingest.reset();
        daemon->stop();
    }
    {
        auto span = tracer.span("serve.warm_restart");
        const auto warm_start = Clock::now();
        kv::DaemonConfig warm = config;
        warm.socket_path = dir + "/warm.sock";
        kv::Daemon daemon(warm);
        daemon.start();
        {
            Connection c(warm.socket_path);
            ingest_series(input, c, "warm.", tracer, report, nullptr, r.warm_rows);
        }
        const kv::DaemonCounters counters = daemon.counters();
        r.warm_cache_hits = counters.result_cache_hits;
        r.warm_analyzed = counters.analyzed;
        daemon.stop();
        r.warm_restart_s = seconds_since(warm_start);
    }
    r.wall_s = seconds_since(round_start);
    return r;
}

std::vector<kadsim::core::ResilienceSample> offline_reference(const DaemonInput& input) {
    std::vector<kadsim::core::ResilienceSample> out(input.parsed.size());
    kadsim::core::AnalyzerOptions options = daemon_analyzer_options();
    options.threads = 1;
    options.use_delta = false;
    parallel_for(static_cast<int>(out.size()), [&](int i) {
        const kadsim::core::ConnectivityAnalyzer analyzer(options);
        out[static_cast<std::size_t>(i)] =
            analyzer.analyze(input.parsed[static_cast<std::size_t>(i)]);
    });
    return out;
}

std::vector<std::vector<int>> pair_reference(const DaemonInput& input,
                                             const std::vector<std::vector<Query>>& plan) {
    std::vector<std::vector<int>> out(plan.size());
    for (std::size_t k = 0; k < plan.size(); ++k) out[k].assign(plan[k].size(), 0);
    const int per = kQueriesPerConnection;
    parallel_for(static_cast<int>(plan.size()) * per, [&](int i) {
        const auto k = static_cast<std::size_t>(i / per);
        const auto j = static_cast<std::size_t>(i % per);
        const Query& q = plan[k][j];
        if (q.type != Query::kPair) return;
        out[k][j] = oracle_vertex_connectivity(
            input.graphs[static_cast<std::size_t>(q.snap)], q.u, q.v);
    });
    return out;
}

namespace {

/// Parses "OK kappa=<k> cut_addresses=<a>,<b>,..." into k and the addresses.
bool parse_pair(const std::string& response, int& kappa,
                std::vector<std::uint32_t>& addresses) {
    constexpr std::string_view kHead = "OK kappa=";
    constexpr std::string_view kCut = " cut_addresses=";
    if (!response.starts_with(kHead)) return false;
    const std::size_t cut_at = response.find(kCut);
    if (cut_at == std::string::npos) return false;
    const char* first = response.data() + kHead.size();
    if (std::from_chars(first, response.data() + cut_at, kappa).ec != std::errc{}) {
        return false;
    }
    std::string_view rest(response);
    rest.remove_prefix(cut_at + kCut.size());
    while (!rest.empty()) {
        const std::size_t comma = rest.find(',');
        const std::string_view field = rest.substr(0, comma);
        std::uint32_t address = 0;
        if (std::from_chars(field.data(), field.data() + field.size(), address).ec !=
            std::errc{}) {
            return false;
        }
        addresses.push_back(address);
        if (comma == std::string_view::npos) break;
        rest.remove_prefix(comma + 1);
    }
    return true;
}

}  // namespace

void check_round(const DaemonInput& input, const std::vector<std::vector<Query>>& plan,
                 const std::vector<kadsim::core::ResilienceSample>& reference,
                 const std::vector<std::vector<int>>& pair_kappa,
                 const RoundResult& round, Report& report) {
    std::vector<std::string> rows;
    for (const auto& sample : reference) {
        rows.push_back("OK " + kv::ResultCache::format_sample_row(sample));
    }
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const std::string at = "snapshot " + std::to_string(i);
        report.check("daemon.row=offline", i < round.rows.size() && round.rows[i] == rows[i],
                     at + ": " + (i < round.rows.size() ? round.rows[i] : "missing"));
        report.check("daemon.warm_row=offline",
                     i < round.warm_rows.size() && round.warm_rows[i] == rows[i],
                     at + ": " + (i < round.warm_rows.size() ? round.warm_rows[i] : "missing"));
    }
    report.check("daemon.warm_from_cache",
                 round.warm_cache_hits == rows.size() && round.warm_analyzed == 0,
                 std::to_string(round.warm_cache_hits) + " cache hits, " +
                     std::to_string(round.warm_analyzed) + " re-analyzed");

    for (std::size_t k = 0; k < plan.size(); ++k) {
        for (std::size_t j = 0; j < plan[k].size(); ++j) {
            const Query& q = plan[k][j];
            const auto snap = static_cast<std::size_t>(q.snap);
            const std::string& answer = round.answers[k][j];
            const std::string at = "connection " + std::to_string(k) + " query " +
                                   std::to_string(j) + ": " + answer.substr(0, 120);
            if (q.type == Query::kMetrics) {
                report.check("query.metrics=offline", answer == rows[snap], at);
            } else if (q.type == Query::kKappa) {
                std::ostringstream want;
                want << "OK kappa_min=" << reference[snap].kappa_min
                     << " kappa_avg=" << reference[snap].kappa_avg;
                report.check("query.kappa=offline", answer == want.str(), at);
            } else {
                int kappa = -1;
                std::vector<std::uint32_t> addresses;
                if (!report.check("query.pair.parses", parse_pair(answer, kappa, addresses),
                                  at)) {
                    continue;
                }
                const int want = pair_kappa[k][j];
                report.check("query.pair.size=oracle",
                             kappa == want && static_cast<int>(addresses.size()) == want,
                             at + " (oracle " + std::to_string(want) + ")");
                std::vector<int> cut;
                bool known = true;
                for (const std::uint32_t a : addresses) {
                    const auto it = input.vertex_of[snap].find(a);
                    if (it == input.vertex_of[snap].end()) {
                        known = false;
                        break;
                    }
                    cut.push_back(it->second);
                }
                report.check("query.pair.cut_separates",
                             known && separates(input.graphs[snap], q.u, q.v, cut), at);
            }
        }
    }
}

}  // namespace perfbench
