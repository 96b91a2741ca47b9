#include "bench.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double peak_rss_mib() {
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream fields(line.substr(6));
            double kib = 0.0;
            fields >> kib;
            return kib / 1024.0;
        }
    }
    return 0.0;
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

namespace {
/// Open spans of the current thread (innermost last) and its trace tid.
thread_local std::vector<int> t_open;
thread_local int t_tid = -1;
std::atomic<int> g_next_tid{0};
}  // namespace

Tracer::Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

std::int64_t Tracer::now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_)
        .count();
}

int Tracer::open(const char* name) {
    if (t_tid < 0) t_tid = g_next_tid.fetch_add(1);
    const int parent = t_open.empty() ? -1 : t_open.back();
    const std::int64_t begin = now_ns();
    std::lock_guard lock(mutex_);
    spans_.push_back(Span{name, begin, -1, parent, t_tid});
    const int index = static_cast<int>(spans_.size()) - 1;
    t_open.push_back(index);
    return index;
}

void Tracer::close(int index) {
    const std::int64_t end = now_ns();
    if (!t_open.empty() && t_open.back() == index) t_open.pop_back();
    std::lock_guard lock(mutex_);
    spans_[static_cast<std::size_t>(index)].end_ns = end;
}

Tracer::Scope::Scope(Tracer* tracer, const char* name) : tracer_(tracer) {
    if (tracer_ != nullptr) index_ = tracer_->open(name);
}

Tracer::Scope::~Scope() {
    if (tracer_ != nullptr) tracer_->close(index_);
}

double Tracer::total_s(std::string_view name) const {
    std::lock_guard lock(mutex_);
    std::int64_t total = 0;
    for (const Span& s : spans_) {
        if (s.name == name && s.end_ns >= 0) total += s.end_ns - s.begin_ns;
    }
    return static_cast<double>(total) * 1e-9;
}

namespace {
/// Total length of the union of [begin, end) intervals.
std::int64_t union_length(std::vector<std::pair<std::int64_t, std::int64_t>> iv) {
    std::sort(iv.begin(), iv.end());
    std::int64_t total = 0;
    std::int64_t cur_begin = 0;
    std::int64_t cur_end = -1;
    for (const auto& [b, e] : iv) {
        if (e <= b) continue;
        if (cur_end < 0 || b > cur_end) {
            if (cur_end >= 0) total += cur_end - cur_begin;
            cur_begin = b;
            cur_end = e;
        } else {
            cur_end = std::max(cur_end, e);
        }
    }
    if (cur_end >= 0) total += cur_end - cur_begin;
    return total;
}
}  // namespace

double Tracer::self_s(std::string_view name) const {
    std::lock_guard lock(mutex_);
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
        spans_.size());
    for (const Span& s : spans_) {
        if (s.parent >= 0 && s.end_ns >= 0) {
            children[static_cast<std::size_t>(s.parent)].emplace_back(s.begin_ns,
                                                                     s.end_ns);
        }
    }
    std::int64_t self = 0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        if (s.name != name || s.end_ns < 0) continue;
        self += (s.end_ns - s.begin_ns) - union_length(children[i]);
    }
    return static_cast<double>(self) * 1e-9;
}

double Tracer::root_cover_s(Clock::time_point begin, Clock::time_point end) const {
    const auto to_ns = [this](Clock::time_point t) {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_).count();
    };
    const std::int64_t lo = to_ns(begin);
    const std::int64_t hi = to_ns(end);
    std::lock_guard lock(mutex_);
    std::vector<std::pair<std::int64_t, std::int64_t>> roots;
    for (const Span& s : spans_) {
        if (s.parent >= 0 || s.end_ns < 0) continue;
        roots.emplace_back(std::max(s.begin_ns, lo), std::min(s.end_ns, hi));
    }
    return static_cast<double>(union_length(std::move(roots))) * 1e-9;
}

bool Tracer::write_chrome_json(const std::string& path) const {
    std::ofstream out(path, std::ios::trunc);
    if (!out) return false;
    std::lock_guard lock(mutex_);
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        if (s.end_ns < 0) continue;
        char line[256];
        std::snprintf(line, sizeof line,
                      "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                      "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d}}",
                      i == 0 ? "" : ",\n", s.name.c_str(), s.tid,
                      static_cast<double>(s.begin_ns) / 1e3,
                      static_cast<double>(s.end_ns - s.begin_ns) / 1e3, i, s.parent);
        out << line;
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

void Report::metric(const std::string& name, double value, const std::string& unit) {
    std::lock_guard lock(mutex_);
    if (!metrics_.contains(name)) order_.push_back(name);
    metrics_[name] = Metric{value, unit};
}

void Report::op(const std::string& type, bool ok) {
    std::lock_guard lock(mutex_);
    Count& c = ops_[type];
    ++c.attempted;
    if (!ok) ++c.failed;
}

bool Report::check(const std::string& what, bool ok, const std::string& detail) {
    std::lock_guard lock(mutex_);
    Count& c = checks_[what];
    ++c.attempted;
    if (!ok) {
        ++c.failed;
        if (failures_.size() < 20) failures_.push_back(what + ": " + detail);
    }
    return ok;
}

void Report::note(const std::string& what, const std::string& detail) {
    std::lock_guard lock(mutex_);
    ++notes_[what];
    if (note_details_.size() < 10) note_details_.push_back(what + ": " + detail);
}

bool Report::correct() const {
    std::lock_guard lock(mutex_);
    for (const auto& [name, c] : checks_) {
        if (c.failed > 0) return false;
    }
    return !checks_.empty();
}

void Report::print(const std::string& workload) const {
    const bool ok = correct();
    std::lock_guard lock(mutex_);
    std::printf("workload %s\n", workload.c_str());
    for (const std::string& name : order_) {
        const Metric& m = metrics_.at(name);
        std::printf("  metric %-26s %16.6f %s\n", name.c_str(), m.value, m.unit.c_str());
    }
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    for (const auto& [type, c] : ops_) {
        std::printf("  op     %-26s attempted %8llu failed %llu\n", type.c_str(),
                    static_cast<unsigned long long>(c.attempted),
                    static_cast<unsigned long long>(c.failed));
        attempted += c.attempted;
        failed += c.failed;
    }
    for (const auto& [what, c] : checks_) {
        std::printf("  check  %-26s attempted %8llu failed %llu\n", what.c_str(),
                    static_cast<unsigned long long>(c.attempted),
                    static_cast<unsigned long long>(c.failed));
    }
    for (const std::string& f : failures_) std::printf("  FAILED %s\n", f.c_str());
    for (const auto& [what, count] : notes_) {
        std::printf("  note   %-26s seen %llu times\n", what.c_str(),
                    static_cast<unsigned long long>(count));
    }
    for (const std::string& d : note_details_) std::printf("  NOTE %s\n", d.c_str());

    std::ostringstream json;
    json.precision(17);
    json << "{\"correct\": " << (ok ? "true" : "false") << ", \"attempted\": "
         << attempted << ", \"failed\": " << failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < order_.size(); ++i) {
        const Metric& m = metrics_.at(order_[i]);
        json << (i == 0 ? "" : ", ") << '"' << order_[i] << "\": {\"value\": "
             << m.value << ", \"unit\": \"" << m.unit << "\"}";
    }
    json << "}}";
    std::printf("%s\n", json.str().c_str());
    std::fflush(stdout);
}

}  // namespace perfbench
