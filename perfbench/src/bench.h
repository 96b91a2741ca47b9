// Shared pieces of the benchmark binary: wall clocks, order statistics, the
// in-memory span recorder, and the run report (metrics, operation accounting
// and correctness checks).
#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Linear-interpolated quantile (q in [0,1]) of an unsorted sample; 0 when
/// empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
    return quantile(std::move(values), 0.5);
}

/// Peak resident set size of this process in MiB (VmHWM).
[[nodiscard]] double peak_rss_mib();

/// Span recorder. Spans are kept in memory and written once at the end as
/// Chrome trace-event JSON. Each span records its name, start, end, the
/// thread it ran on and the span that was open on that thread when it began
/// (its parent). A disabled tracer records nothing and reads no clock.
class Tracer {
public:
    explicit Tracer(bool enabled);

    class Scope {
    public:
        Scope(Tracer* tracer, const char* name);
        ~Scope();
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

    private:
        Tracer* tracer_;
        int index_ = -1;
    };

    [[nodiscard]] Scope span(const char* name) {
        return Scope(enabled_ ? this : nullptr, name);
    }

    /// Summed duration of every span called `name`, in seconds.
    [[nodiscard]] double total_s(std::string_view name) const;
    /// Summed self time (duration minus the union of its children) of every
    /// span called `name`, in seconds.
    [[nodiscard]] double self_s(std::string_view name) const;
    /// Seconds of [begin, end) covered by at least one root span (a span
    /// opened while no other span was open on its thread).
    [[nodiscard]] double root_cover_s(Clock::time_point begin,
                                      Clock::time_point end) const;

    /// Writes every span as Chrome trace-event JSON ("X" events, µs);
    /// returns false when the file cannot be written.
    bool write_chrome_json(const std::string& path) const;

private:
    struct Span {
        std::string name;
        std::int64_t begin_ns = 0;
        std::int64_t end_ns = -1;
        int parent = -1;
        int tid = 0;
    };

    [[nodiscard]] std::int64_t now_ns() const;
    int open(const char* name);
    void close(int index);

    bool enabled_;
    Clock::time_point epoch_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/// What one run measured and checked.
class Report {
public:
    /// Records a metric (later calls with the same name overwrite).
    void metric(const std::string& name, double value, const std::string& unit);

    /// Counts one operation of `type` (attempted, and failed unless `ok`).
    void op(const std::string& type, bool ok);

    /// Records one correctness check; a failed check carries a diagnostic.
    /// Thread-safe.
    bool check(const std::string& what, bool ok, const std::string& detail = {});

    /// Counts one observation that is reported but fails nothing: a known
    /// program defect that shows on some inputs only. Thread-safe.
    void note(const std::string& what, const std::string& detail);

    [[nodiscard]] bool correct() const;

    /// Human-readable summary (metrics with units, operations and checks by
    /// type), then the one-line JSON result as the last line of stdout.
    void print(const std::string& workload) const;

private:
    struct Count {
        std::uint64_t attempted = 0;
        std::uint64_t failed = 0;
    };
    struct Metric {
        double value = 0.0;
        std::string unit;
    };

    mutable std::mutex mutex_;
    std::vector<std::string> order_;
    std::map<std::string, Metric> metrics_;
    std::map<std::string, Count> ops_;
    std::map<std::string, Count> checks_;
    std::vector<std::string> failures_;
    std::map<std::string, std::uint64_t> notes_;
    std::vector<std::string> note_details_;
};

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H
