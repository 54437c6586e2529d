#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <climits>
#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

namespace perfbench::trace {
namespace {

constexpr int kPhases = static_cast<int>(Phase::Count);
constexpr int kLayers = static_cast<int>(Layer::Count);
constexpr int kCounters = static_cast<int>(Counter::Count);
constexpr int kMaxDepth = 64;
/// Per-thread cap on kept span events; aggregates are always complete.
constexpr size_t kMaxEvents = 1u << 20;

struct Frame {
    Layer layer = Layer::Place;
    int64_t start = 0;
    int64_t child_ns = 0;
};

struct Event {
    int64_t start = 0;
    int64_t dur = 0;
    Layer layer = Layer::Place;
    Phase phase = Phase::Setup;
};

/// One thread's records. The stack is touched only by its owner; the
/// aggregates and events are guarded by `mu` so collect() can read them.
struct ThreadRec {
    int tid = 0;
    Frame stack[kMaxDepth];
    int depth = 0;

    std::mutex mu;
    LayerTotals layer[kPhases][kLayers];
    double counter[kPhases][kCounters] = {};
    std::vector<Event> events;
};

std::atomic<int> g_phase{static_cast<int>(Phase::Setup)};
std::mutex g_threads_mu;
std::vector<std::unique_ptr<ThreadRec>> g_threads;  // guarded by g_threads_mu
thread_local ThreadRec* t_rec = nullptr;

ThreadRec& self() {
    if (t_rec == nullptr) {
        auto rec = std::make_unique<ThreadRec>();
        const std::lock_guard<std::mutex> lock(g_threads_mu);
        rec->tid = static_cast<int>(g_threads.size()) + 1;
        t_rec = rec.get();
        g_threads.push_back(std::move(rec));
    }
    return *t_rec;
}

/// Per-call leaf layers are aggregated only: keeping one event per routed
/// connection would dwarf the rest of the trace file.
bool keep_event(Layer l) { return l != Layer::Pattern && l != Layer::Maze; }

Phase phase() {
    return static_cast<Phase>(g_phase.load(std::memory_order_relaxed));
}

/// Monotonic nanoseconds (steady clock).
int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

}  // namespace

bool enabled() { return PERFBENCH_TRACED != 0; }

void set_phase(Phase p) {
    g_phase.store(static_cast<int>(p), std::memory_order_relaxed);
}

Span::Span(Layer layer) : layer_(layer), start_(now_ns()) {
    ThreadRec& r = self();
    if (r.depth < kMaxDepth) r.stack[r.depth] = Frame{layer, start_, 0};
    ++r.depth;
}

Span::~Span() {
    const int64_t end = now_ns();
    ThreadRec& r = self();
    --r.depth;
    const int64_t dur = end - start_;
    int64_t child = 0;
    if (r.depth < kMaxDepth) child = r.stack[r.depth].child_ns;
    if (r.depth > 0 && r.depth - 1 < kMaxDepth)
        r.stack[r.depth - 1].child_ns += dur;
    const Phase p = phase();
    const std::lock_guard<std::mutex> lock(r.mu);
    LayerTotals& t = r.layer[static_cast<int>(p)][static_cast<int>(layer_)];
    t.total_s += 1e-9 * static_cast<double>(dur);
    t.self_s += 1e-9 * static_cast<double>(dur - child);
    ++t.calls;
    if (keep_event(layer_) && r.events.size() < kMaxEvents)
        r.events.push_back(Event{start_, dur, layer_, p});
}

void add(Counter c, double v) {
    ThreadRec& r = self();
    const std::lock_guard<std::mutex> lock(r.mu);
    r.counter[static_cast<int>(phase())][static_cast<int>(c)] += v;
}

Totals collect() {
    Totals out;
    const std::lock_guard<std::mutex> lock(g_threads_mu);
    for (const auto& rec : g_threads) {
        const std::lock_guard<std::mutex> rlock(rec->mu);
        for (int p = 0; p < kPhases; ++p) {
            for (int l = 0; l < kLayers; ++l) {
                out.layer[p][l].total_s += rec->layer[p][l].total_s;
                out.layer[p][l].self_s += rec->layer[p][l].self_s;
                out.layer[p][l].calls += rec->layer[p][l].calls;
            }
            for (int c = 0; c < kCounters; ++c)
                out.counter[p][c] += rec->counter[p][c];
        }
    }
    return out;
}

void reset() {
    const std::lock_guard<std::mutex> lock(g_threads_mu);
    for (const auto& rec : g_threads) {
        const std::lock_guard<std::mutex> rlock(rec->mu);
        for (int p = 0; p < kPhases; ++p) {
            for (int l = 0; l < kLayers; ++l) rec->layer[p][l] = LayerTotals{};
            for (int c = 0; c < kCounters; ++c) rec->counter[p][c] = 0.0;
        }
    }
}

const char* layer_name(Layer l) {
    static const char* const kNames[kLayers] = {
        "place",           "eval",          "router.route",
        "router.pattern",  "router.maze",   "router.layer_assign",
        "objective",       "wirelength.wa", "density.eval",
        "poisson.solve",   "nesterov.step", "congestion.netmove",
        "congestion.field_build",           "routability",
        "legal.tetris",    "legal.abacus",  "legal.dp",
        "audit.legalized", "audit.router",  "audit.other",
        "drv_proxy",
    };
    return kNames[static_cast<int>(l)];
}

const char* phase_name(Phase p) {
    static const char* const kNames[kPhases] = {"setup", "place", "eval"};
    return kNames[static_cast<int>(p)];
}

bool write_chrome_trace(const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::lock_guard<std::mutex> lock(g_threads_mu);
    int64_t t0 = INT64_MAX;
    for (const auto& rec : g_threads) {
        const std::lock_guard<std::mutex> rlock(rec->mu);
        for (const Event& e : rec->events) t0 = std::min(t0, e.start);
    }
    std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", f);
    bool first = true;
    for (const auto& rec : g_threads) {
        const std::lock_guard<std::mutex> rlock(rec->mu);
        for (const Event& e : rec->events) {
            std::fprintf(f,
                         "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                         "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d}",
                         first ? "" : ",", layer_name(e.layer),
                         phase_name(e.phase),
                         1e-3 * static_cast<double>(e.start - t0),
                         1e-3 * static_cast<double>(e.dur), rec->tid);
            first = false;
        }
    }
    std::fputs("\n]}\n", f);
    return std::fclose(f) == 0;
}

}  // namespace perfbench::trace
