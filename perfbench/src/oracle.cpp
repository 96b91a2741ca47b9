#include "oracle.h"

#include <algorithm>
#include <deque>
#include <limits>

namespace perfbench {

namespace {

/// Residual graph with paired arcs (arc a and its reverse a ^ 1).
class Residual {
public:
    explicit Residual(int nodes) : head_(static_cast<std::size_t>(nodes), -1) {}

    void add(int from, int to, int cap) {
        push(from, to, cap);
        push(to, from, 0);
    }

    /// Edmonds–Karp: augment along shortest paths one unit at a time (every
    /// path in these networks has bottleneck 1) until t is unreachable.
    int max_flow(int s, int t) {
        int flow = 0;
        std::vector<int> via(head_.size());
        while (true) {
            std::fill(via.begin(), via.end(), -1);
            std::deque<int> queue{s};
            via[static_cast<std::size_t>(s)] = -2;
            while (!queue.empty() && via[static_cast<std::size_t>(t)] == -1) {
                const int x = queue.front();
                queue.pop_front();
                for (int a = head_[static_cast<std::size_t>(x)]; a >= 0;
                     a = next_[static_cast<std::size_t>(a)]) {
                    const int y = to_[static_cast<std::size_t>(a)];
                    if (cap_[static_cast<std::size_t>(a)] > 0 &&
                        via[static_cast<std::size_t>(y)] == -1) {
                        via[static_cast<std::size_t>(y)] = a;
                        queue.push_back(y);
                    }
                }
            }
            if (via[static_cast<std::size_t>(t)] == -1) return flow;
            for (int x = t; x != s;) {
                const int a = via[static_cast<std::size_t>(x)];
                --cap_[static_cast<std::size_t>(a)];
                ++cap_[static_cast<std::size_t>(a ^ 1)];
                x = to_[static_cast<std::size_t>(a ^ 1)];
            }
            ++flow;
        }
    }

private:
    void push(int from, int to, int cap) {
        to_.push_back(to);
        cap_.push_back(cap);
        next_.push_back(head_[static_cast<std::size_t>(from)]);
        head_[static_cast<std::size_t>(from)] = static_cast<int>(to_.size()) - 1;
    }

    std::vector<int> head_;
    std::vector<int> next_;
    std::vector<int> to_;
    std::vector<int> cap_;
};

}  // namespace

int oracle_vertex_connectivity(const kadsim::graph::Digraph& g, int u, int v) {
    const int n = g.vertex_count();
    constexpr int kUncapped = std::numeric_limits<int>::max() / 2;
    Residual r(2 * n);  // x_in = 2x, x_out = 2x + 1
    for (int x = 0; x < n; ++x) {
        r.add(2 * x, 2 * x + 1, 1);
        for (const int y : g.out(x)) r.add(2 * x + 1, 2 * y, kUncapped);
    }
    return r.max_flow(2 * u + 1, 2 * v);
}

int oracle_edge_connectivity(const kadsim::graph::Digraph& g, int u, int v) {
    const int n = g.vertex_count();
    Residual r(n);
    for (int x = 0; x < n; ++x) {
        for (const int y : g.out(x)) r.add(x, y, 1);
    }
    return r.max_flow(u, v);
}

DegreeFloors degree_floors(const kadsim::graph::Digraph& g) {
    const int n = g.vertex_count();
    if (n == 0) return {};
    std::vector<int> in(static_cast<std::size_t>(n), 0);
    DegreeFloors floors{std::numeric_limits<int>::max(), 0};
    for (int x = 0; x < n; ++x) {
        floors.out = std::min(floors.out, static_cast<int>(g.out(x).size()));
        for (const int y : g.out(x)) ++in[static_cast<std::size_t>(y)];
    }
    floors.in = *std::min_element(in.begin(), in.end());
    return floors;
}

bool separates(const kadsim::graph::Digraph& g, int u, int v,
               std::span<const int> cut) {
    std::vector<char> blocked(static_cast<std::size_t>(g.vertex_count()), 0);
    for (const int c : cut) blocked[static_cast<std::size_t>(c)] = 1;
    if (blocked[static_cast<std::size_t>(u)] || blocked[static_cast<std::size_t>(v)]) {
        return false;  // a vertex cut never contains the endpoints
    }
    std::vector<char> seen(blocked.size(), 0);
    std::deque<int> queue{u};
    seen[static_cast<std::size_t>(u)] = 1;
    while (!queue.empty()) {
        const int x = queue.front();
        queue.pop_front();
        if (x == v) return false;
        for (const int y : g.out(x)) {
            const auto yi = static_cast<std::size_t>(y);
            if (!seen[yi] && !blocked[yi]) {
                seen[yi] = 1;
                queue.push_back(y);
            }
        }
    }
    return true;
}

}  // namespace perfbench
