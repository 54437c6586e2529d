#pragma once
// In-memory span recorder for the traced benchmark binary.
//
// Spans are opened around the library's public layer entry points by the
// link-time wrappers in wrap.cpp (and around place/evaluate by flow_main.cpp).
// Each thread keeps its own stack, so a span's self time is its duration
// minus the time its child spans on the same thread cover; spans that run on
// pool workers count toward their layer's busy time but are not subtracted
// from the caller's self time. Aggregates are kept per (phase, layer); span
// events of the coarse layers are kept for a Chrome trace-event file.

#include <cstdint>
#include <string>

namespace perfbench::trace {

/// Which part of a flow repetition is running (set by flow_main.cpp).
enum class Phase : int { Setup, Place, Eval, Count };

enum class Layer : int {
    Place,
    Eval,
    Route,
    Pattern,
    Maze,
    LayerAssign,
    Objective,
    Wirelength,
    Density,
    Poisson,
    NesterovStep,
    NetMove,
    FieldBuild,
    Routability,
    Tetris,
    Abacus,
    DetailedPlace,
    AuditLegalized,
    AuditRouter,
    AuditOther,
    DrvProxy,
    Count
};

/// Counters summed from wrapper arguments and results.
enum class Counter : int {
    MazeWindowCells,
    MazeCompared,
    MazeAdopted,
    RrrRounds,
    RrrStalled,
    CacheConns,
    CacheHits,
    Count
};

/// True in the traced binary (wrap.cpp linked in), false in the plain one.
bool enabled();

void set_phase(Phase p);

/// RAII span around one call into a layer.
class Span {
public:
    explicit Span(Layer layer);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

private:
    Layer layer_;
    int64_t start_;
};

void add(Counter c, double v);

struct LayerTotals {
    double total_s = 0.0;
    double self_s = 0.0;
    long long calls = 0;
};

/// Snapshot of everything recorded since the last reset().
struct Totals {
    LayerTotals layer[static_cast<int>(Phase::Count)]
                     [static_cast<int>(Layer::Count)];
    double counter[static_cast<int>(Phase::Count)]
                  [static_cast<int>(Counter::Count)] = {};

    const LayerTotals& at(Phase p, Layer l) const {
        return layer[static_cast<int>(p)][static_cast<int>(l)];
    }
    double count(Phase p, Counter c) const {
        return counter[static_cast<int>(p)][static_cast<int>(c)];
    }
};

/// Aggregate all threads' records. Call only while no span is open on a
/// worker thread (between flow repetitions).
Totals collect();
/// Clear the aggregates (span events for the trace file are kept).
void reset();

const char* layer_name(Layer l);
const char* phase_name(Phase p);

/// Write the kept span events as a Chrome trace-event JSON file.
/// Returns false when the file cannot be written.
bool write_chrome_trace(const std::string& path);

}  // namespace perfbench::trace
