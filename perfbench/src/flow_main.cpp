// flow_bench: the end-to-end flow program of the placement benchmark.
//
// Generates one ispd2015_suite design per seed, then runs the Table I flow
// -- GlobalPlacer::place followed by evaluate_placement -- on each design in
// turn (one pass), repeating the pass while another fits in the time budget,
// and checks every flow's output. Every stage is timed both in process CPU
// time and in wall time. The set-up is timed in slices spread over the run.
// Prints one JSON object on stdout with the raw per-flow figures;
// perfbench/run.py turns them into the benchmark's metrics. Built twice:
// plainly, and with the layer wrappers of wrap.cpp linked in
// (PERFBENCH_TRACED=1).
//
//   flow_bench_plain --scale 0.5 --mode ours --seeds 27,1000030
//                    --outer-iters 5 --seconds 55 [--max-passes 20]
//                    [--trace-out trace.json] [--corrupt-placement]

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "benchgen/generator.hpp"
#include "benchgen/ispd_suite.hpp"
#include "eval/route_metrics.hpp"
#include "legal/tetris.hpp"
#include "place/global_placer.hpp"
#include "trace.hpp"
#include "util/parallel.hpp"
#include "util/simd.hpp"

namespace {

using namespace rdp;
namespace tr = perfbench::trace;

/// The most congested design of the suite; every workload places it.
constexpr const char* kDesign = "superblue12";
/// Set-up is repeated in slices of at least this long (and this many
/// repetitions): one before the first flow, then one after every placement
/// and one after every evaluation. Each
/// slice records its fastest repetition (in process CPU time) and the median
/// over the slices is reported. On a shared host the speed of this allocation-heavy code flips
/// by up to 2x between repetitions and for seconds at a time; a median over
/// all repetitions lands on whichever speed held most of them, and so
/// jumped by a third between otherwise equal sets of runs.
constexpr double kSetupSliceS = 0.25;
constexpr int kMinSetupSliceReps = 3;

struct Options {
    double scale = 0.5;
    PlacerMode mode = PlacerMode::Ours;
    /// Generator seed of each design.
    std::vector<uint64_t> seeds;
    /// Routability outer iterations; the early stop is disabled so every
    /// seed runs the same number (0 keeps the placer's default schedule).
    int outer_iters = 0;
    /// A further pass starts only if it is expected to end within this.
    double seconds = 30.0;
    int max_passes = 20;
    std::string trace_out;
    bool corrupt_placement = false;
};

std::vector<uint64_t> parse_seeds(const std::string& csv) {
    std::vector<uint64_t> out;
    std::stringstream ss(csv);
    std::string tok;
    while (std::getline(ss, tok, ',')) out.push_back(std::stoull(tok));
    if (out.empty()) throw std::invalid_argument("empty --seeds");
    return out;
}

Options parse(int argc, char** argv) {
    Options o;
    auto value = [&](int& i) -> std::string {
        if (i + 1 >= argc)
            throw std::invalid_argument(std::string("missing value for ") +
                                        argv[i]);
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--scale") o.scale = std::stod(value(i));
        else if (a == "--seeds") o.seeds = parse_seeds(value(i));
        else if (a == "--outer-iters") o.outer_iters = std::stoi(value(i));
        else if (a == "--seconds") o.seconds = std::stod(value(i));
        else if (a == "--max-passes") o.max_passes = std::stoi(value(i));
        else if (a == "--trace-out") o.trace_out = value(i);
        else if (a == "--corrupt-placement") o.corrupt_placement = true;
        else if (a == "--mode") {
            const std::string m = value(i);
            if (m == "ours") o.mode = PlacerMode::Ours;
            else if (m == "xplace") o.mode = PlacerMode::WirelengthOnly;
            else throw std::invalid_argument("unknown --mode " + m);
        } else {
            throw std::invalid_argument("unknown argument " + a);
        }
    }
    if (o.seeds.empty())
        throw std::invalid_argument("--seeds is required");
    if (!(o.scale > 0.0) || !(o.seconds >= 0.0) || o.max_passes < 1 ||
        o.outer_iters < 0)
        throw std::invalid_argument("invalid numeric argument");
    return o;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
}

/// CPU time of the whole process (every thread, user and system).
double process_cpu_s() {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// FNV-1a 64 over the bytes of every final cell position.
uint64_t placement_hash(const Design& d) {
    uint64_t h = 1469598103934665603ULL;
    auto mix = [&](double v) {
        unsigned char b[sizeof(double)];
        std::memcpy(b, &v, sizeof(double));
        for (unsigned char c : b) {
            h ^= c;
            h *= 1099511628211ULL;
        }
    };
    for (const Cell& c : d.cells) {
        mix(c.pos.x);
        mix(c.pos.y);
    }
    return h;
}

std::string hex(uint64_t v) {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/// JSON number; a non-finite value is written as Python's json reads it, so
/// run.py's finiteness check can report it as a failed flow.
std::string num(double v) {
    if (std::isnan(v)) return "NaN";
    if (std::isinf(v)) return v > 0 ? "Infinity" : "-Infinity";
    std::ostringstream os;
    os.precision(17);
    os << v;
    return os.str();
}

std::string quoted(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        out += (c == '\n') ? ' ' : c;
    }
    return out + "\"";
}

/// Put two movable cells on top of each other (the benchmark's self-test
/// that a broken placement is reported as a failed run).
void corrupt(Design& d) {
    int first = -1;
    for (int i = 0; i < d.num_cells(); ++i) {
        if (!d.cells[static_cast<size_t>(i)].movable()) continue;
        if (first < 0) {
            first = i;
        } else {
            d.cells[static_cast<size_t>(i)].pos =
                d.cells[static_cast<size_t>(first)].pos;
            return;
        }
    }
}

/// Additive per-layer figures of one traced flow (names as in BENCHMARK.json).
std::map<std::string, double> layer_metrics(const tr::Totals& t,
                                            const PlaceResult& res) {
    using tr::Counter;
    using tr::Layer;
    using tr::Phase;
    const Phase P = Phase::Place;
    const Phase E = Phase::Eval;
    std::map<std::string, double> m;
    auto router = [&](const std::string& pre, Phase p) {
        m[pre + "route_s"] = t.at(p, Layer::Route).total_s;
        m[pre + "maze_s"] = t.at(p, Layer::Maze).total_s;
        m[pre + "maze_calls"] =
            static_cast<double>(t.at(p, Layer::Maze).calls);
        m[pre + "maze_window_cells"] = t.count(p, Counter::MazeWindowCells);
        m[pre + "pattern_calls"] =
            static_cast<double>(t.at(p, Layer::Pattern).calls);
    };
    router("place.router.", P);
    router("eval.router.", E);
    // Ratios are formed by run.py from these sums over all flows.
    m["place.router.maze_compared"] = t.count(P, Counter::MazeCompared);
    m["place.router.maze_adopted"] = t.count(P, Counter::MazeAdopted);
    m["place.router.route_calls"] =
        static_cast<double>(t.at(P, Layer::Route).calls);
    m["place.router.self_s"] = t.at(P, Layer::Route).self_s;
    m["place.router.pattern_s"] = t.at(P, Layer::Pattern).total_s;
    m["place.router.layer_assign_s"] = t.at(P, Layer::LayerAssign).total_s;
    m["place.router.rrr_rounds"] = t.count(P, Counter::RrrRounds);
    m["place.router.rrr_stalled"] = t.count(P, Counter::RrrStalled);
    m["place.router.cache_conns"] = t.count(P, Counter::CacheConns);
    m["place.router.cache_hits"] = t.count(P, Counter::CacheHits);
    m["eval.drv_proxy_s"] = t.at(E, Layer::DrvProxy).total_s;

    m["place.objective_s"] = t.at(P, Layer::Objective).total_s;
    m["place.objective_calls"] =
        static_cast<double>(t.at(P, Layer::Objective).calls);
    m["place.objective_self_s"] = t.at(P, Layer::Objective).self_s;
    m["wirelength.wa_s"] = t.at(P, Layer::Wirelength).total_s;
    m["density.eval_s"] = t.at(P, Layer::Density).total_s;
    m["poisson.solve_s"] = t.at(P, Layer::Poisson).total_s;
    m["poisson.solve_calls"] =
        static_cast<double>(t.at(P, Layer::Poisson).calls);
    m["place.nesterov_step_s"] = t.at(P, Layer::NesterovStep).total_s;
    m["congestion.netmove_s"] = t.at(P, Layer::NetMove).total_s;
    m["congestion.field_build_s"] = t.at(P, Layer::FieldBuild).total_s;

    const double legal_block = t.at(P, Layer::Tetris).total_s +
                               t.at(P, Layer::Abacus).total_s +
                               t.at(P, Layer::DetailedPlace).total_s +
                               t.at(P, Layer::AuditLegalized).total_s;
    m["place.routability_s"] = t.at(P, Layer::Routability).total_s;
    m["place.wl_gp_s"] = t.at(P, Layer::Place).total_s -
                         t.at(P, Layer::Routability).total_s - legal_block;
    m["place.wl_iters"] = res.wl_iters;
    m["place.route_outer_iters"] = res.route_outer_iters;
    m["legal.tetris_s"] = t.at(P, Layer::Tetris).total_s;
    m["legal.abacus_s"] = t.at(P, Layer::Abacus).total_s;
    m["legal.dp_s"] = t.at(P, Layer::DetailedPlace).total_s;
    m["legal.cells_failed"] = res.legal_stats.cells_failed;
    m["audit.legalized_s"] = t.at(P, Layer::AuditLegalized).total_s;
    m["audit.router_s"] = t.at(P, Layer::AuditRouter).total_s;
    m["audit.total_s"] = t.at(P, Layer::AuditLegalized).total_s +
                         t.at(P, Layer::AuditRouter).total_s +
                         t.at(P, Layer::AuditOther).total_s;
    m["recover.rollbacks"] = res.recovery.rollbacks;
    m["recover.degraded_stages"] = res.recovery.degraded_stages;
    return m;
}

/// Self time of every (phase, layer) that ran, for the ranked breakdown.
std::map<std::string, double> self_times(const tr::Totals& t) {
    std::map<std::string, double> m;
    for (int p = 0; p < static_cast<int>(tr::Phase::Count); ++p)
        for (int l = 0; l < static_cast<int>(tr::Layer::Count); ++l) {
            const tr::LayerTotals& lt =
                t.at(static_cast<tr::Phase>(p), static_cast<tr::Layer>(l));
            if (lt.calls > 0)
                m[std::string(tr::phase_name(static_cast<tr::Phase>(p))) +
                  "/" + tr::layer_name(static_cast<tr::Layer>(l))] = lt.self_s;
        }
    return m;
}

std::string json_map(const std::map<std::string, double>& m) {
    std::string out = "{";
    for (const auto& [k, v] : m) {
        if (out.size() > 1) out += ",";
        out += quoted(k) + ":" + num(v);
    }
    return out + "}";
}

/// Place `input` and route the result at evaluation resolution, calling
/// `between` after the placement is timed; checks the output and returns the
/// JSON record.
std::string run_flow(const GlobalPlacer& placer, const EvalConfig& ec,
                     const Design& input, uint64_t seed, bool corrupt_it,
                     const std::function<void()>& between) {
    tr::reset();
    std::vector<std::string> errors;

    tr::set_phase(tr::Phase::Place);
    auto t0 = std::chrono::steady_clock::now();
    double c0 = process_cpu_s();
    PlaceResult res = [&] {
        if (!tr::enabled()) return placer.place(input);
        const tr::Span s(tr::Layer::Place);
        return placer.place(input);
    }();
    const double place_cpu_s = process_cpu_s() - c0;
    const double place_s = seconds_since(t0);
    if (corrupt_it) corrupt(res.placed);
    between();

    tr::set_phase(tr::Phase::Eval);
    t0 = std::chrono::steady_clock::now();
    c0 = process_cpu_s();
    const EvalMetrics em = [&] {
        if (!tr::enabled()) return evaluate_placement(res.placed, ec);
        const tr::Span s(tr::Layer::Eval);
        return evaluate_placement(res.placed, ec);
    }();
    const double eval_cpu_s = process_cpu_s() - c0;
    const double eval_s = seconds_since(t0);
    tr::set_phase(tr::Phase::Setup);

    // ---- output checks ------------------------------------------------------
    if (!is_legal(res.placed)) errors.push_back("placement is not legal");
    if (res.placed.num_cells() != input.num_cells())
        errors.push_back("cell count changed");
    if (res.legal_stats.cells_failed != 0)
        errors.push_back("legalization left cells unplaced");
    if (res.recovery.degraded_stages != 0)
        errors.push_back("a stage finished degraded");
    for (const double v :
         {place_cpu_s, eval_cpu_s, place_s, eval_s, res.hpwl_final, em.drwl,
          static_cast<double>(em.vias), static_cast<double>(em.drvs)})
        if (!std::isfinite(v)) errors.push_back("non-finite metric");

    std::string r = "{\"seed\":" + std::to_string(seed);
    r += ",\"place_cpu_s\":" + num(place_cpu_s);
    r += ",\"eval_route_cpu_s\":" + num(eval_cpu_s);
    r += ",\"place_wall_s\":" + num(place_s);
    r += ",\"eval_route_wall_s\":" + num(eval_s);
    r += ",\"hpwl_final\":" + num(res.hpwl_final);
    r += ",\"drwl\":" + num(em.drwl);
    r += ",\"vias\":" + std::to_string(em.vias);
    r += ",\"drvs\":" + std::to_string(em.drvs);
    r += ",\"hash\":\"" + hex(placement_hash(res.placed)) + "\"";
    r += ",\"errors\":[";
    for (size_t i = 0; i < errors.size(); ++i)
        r += (i ? "," : "") + quoted(errors[i]);
    r += "]";
    if (tr::enabled()) {
        const tr::Totals t = tr::collect();
        r += ",\"layers\":" + json_map(layer_metrics(t, res));
        r += ",\"self_s\":" + json_map(self_times(t));
    }
    return r + "}";
}

/// Generates every design of the run (suite_entry + generate_circuit, which
/// builds the rows) repeatedly for one set-up slice and appends the fastest
/// repetition's time to `slices`; returns the designs of the last repetition.
std::vector<Design> set_up(const Options& o, std::vector<double>& slices) {
    std::vector<Design> designs(o.seeds.size());
    double best = std::numeric_limits<double>::infinity();
    const auto start = std::chrono::steady_clock::now();
    for (int r = 0;
         r < kMinSetupSliceReps || seconds_since(start) < kSetupSliceS; ++r) {
        const double c0 = process_cpu_s();
        for (size_t i = 0; i < o.seeds.size(); ++i) {
            SuiteEntry entry = suite_entry(kDesign, o.scale);
            entry.gen.seed = o.seeds[i];
            designs[i] = generate_circuit(entry.gen);
        }
        best = std::min(best, process_cpu_s() - c0);
    }
    slices.push_back(best);
    return designs;
}

int run(const Options& o) {
    tr::set_phase(tr::Phase::Setup);
    const std::vector<uint64_t>& seeds = o.seeds;
    std::vector<double> setup_s;
    const std::vector<Design> inputs = set_up(o, setup_s);
    const auto time_set_up = [&] {
        tr::set_phase(tr::Phase::Setup);
        set_up(o, setup_s);
    };
    const SuiteEntry entry = suite_entry(kDesign, o.scale);

    PlacerConfig pc;
    pc.mode = o.mode;
    pc.grid_bins = entry.grid_bins;
    if (o.outer_iters > 0) {
        pc.max_route_iters = o.outer_iters;
        pc.stop_patience = o.outer_iters;
    }
    const GlobalPlacer placer(pc);
    EvalConfig ec;
    ec.grid_bins = entry.grid_bins * 2;

    // ---- passes over all designs --------------------------------------------
    // Every pass places and evaluates every design. A further pass starts
    // while one more is expected to end within --seconds; run.py reports
    // medians over the passes.
    std::vector<std::string> passes;
    const auto start = std::chrono::steady_clock::now();
    double last_pass_s = 0.0;
    while (static_cast<int>(passes.size()) < o.max_passes) {
        if (!passes.empty() && seconds_since(start) + last_pass_s > o.seconds)
            break;
        const auto pass_start = std::chrono::steady_clock::now();
        std::string p = "[";
        for (size_t i = 0; i < inputs.size(); ++i) {
            if (i) p += ",";
            p += run_flow(placer, ec, inputs[i], seeds[i],
                          o.corrupt_placement && i == 0, time_set_up);
            time_set_up();
        }
        passes.push_back(p + "]");
        last_pass_s = seconds_since(pass_start);
    }

    if (!o.trace_out.empty() && !tr::write_chrome_trace(o.trace_out))
        std::cerr << "flow_bench: cannot write " << o.trace_out << "\n";

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);

    std::string out = "{\"context\":{";
    out += "\"design\":" + quoted(kDesign);
    out += ",\"scale\":" + num(o.scale);
    out += ",\"cells\":" + std::to_string(inputs.front().num_cells());
    out += ",\"nets\":" + std::to_string(inputs.front().num_nets());
    out += ",\"outer_iters\":" + std::to_string(pc.max_route_iters);
    out += ",\"threads\":" + std::to_string(par::max_threads());
    out += ",\"simd\":" + quoted(simd::backend_name());
    out += ",\"build_type\":" + quoted(PERFBENCH_BUILD_TYPE);
    out += ",\"traced\":" + std::string(tr::enabled() ? "true" : "false");
    out += "},\"setup_s\":[";
    for (size_t i = 0; i < setup_s.size(); ++i)
        out += (i ? "," : "") + num(setup_s[i]);
    out += "],\"peak_rss_mb\":" +
           num(static_cast<double>(ru.ru_maxrss) / 1024.0);
    out += ",\"passes\":[";
    for (size_t i = 0; i < passes.size(); ++i)
        out += (i ? "," : "") + passes[i];
    out += "]}";
    std::cout << out << std::endl;
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    try {
        return run(parse(argc, argv));
    } catch (const std::exception& e) {
        std::cerr << "flow_bench: " << e.what() << "\n";
        return 2;
    }
}
