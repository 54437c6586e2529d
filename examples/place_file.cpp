// File-based placement driver: read a design from the bookshelf-lite text
// format, place it with a chosen mode, write the placed design back, and
// print the quality metrics. The closest thing in this repo to a
// standalone placer binary.
//
//   ./examples/place_file <input> [output] [--mode=wl|route|ours]
//                         [--bins=N] [--seed=N] [--no-mci] [--no-dc]
//                         [--no-dpa] [--multi-pin-moving]
//                         [--budget-ms=N] [--no-recover]
//                         [--checkpoint-dir=PATH] [--checkpoint-every=N]
//                         [--resume[=auto|PATH]] [--wl-iters=N]
//                         [--route-iters=N] [--inner-iters=N] [--no-eval]
//
// --checkpoint-dir enables the durable checkpoint journal (DESIGN.md §16)
// and --resume continues a killed run from it; the resumed run finishes
// bitwise identical to the uninterrupted one. The RDP_CHECKPOINT_DIR /
// RDP_CHECKPOINT_EVERY / RDP_RESUME environment knobs override the flags.
//
// With no arguments, generates a demo design, saves it to
// /tmp/rdplace_demo.txt, and runs on that file.
//
// Exit status: 0 on success; 2 for a bad command line (an unknown mode or
// argument, a numeric flag value that does not parse in full or is out of
// range); 1 for an unreadable or invalid design, or for any failure in
// placement, evaluation or writing the output, running out of memory
// included.

#include <cstring>
#include <exception>
#include <iostream>
#include <stdexcept>
#include <string>

#include "benchgen/generator.hpp"
#include "db/design_stats.hpp"
#include "db/netlist_io.hpp"
#include "eval/route_metrics.hpp"
#include "fft/fft.hpp"
#include "place/global_placer.hpp"

namespace {

using namespace rdp;

/// A bad command line: main reports it and exits with status 2.
struct UsageError : std::runtime_error {
    using std::runtime_error::runtime_error;
};

/// The value of `flag`, parsed by `parse` (std::stoi and friends), which
/// must consume all of `text`: "--bins=12x" is refused, not read as 12.
template <class Parse>
auto flag_value(const std::string& flag, const std::string& text,
                Parse parse) {
    size_t used = 0;
    try {
        const auto v = parse(text, &used);
        if (used == text.size()) return v;
    } catch (const std::logic_error&) {  // invalid_argument, out_of_range
    }
    std::string msg = "bad value '";
    msg.append(text).append("' for ").append(flag);
    throw UsageError(msg);
}

int int_flag(const std::string& flag, const std::string& text) {
    return flag_value(flag, text, [](const std::string& t, size_t* n) {
        return std::stoi(t, n);
    });
}

int run(int argc, char** argv) {
    std::string input_path;
    std::string output_path;
    PlacerConfig cfg;
    cfg.mode = PlacerMode::Ours;
    int bins = 0;
    bool run_eval = true;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--mode=", 0) == 0) {
            const std::string m = arg.substr(7);
            if (m == "wl") cfg.mode = PlacerMode::WirelengthOnly;
            else if (m == "route") cfg.mode = PlacerMode::RouteBaseline;
            else if (m == "ours") cfg.mode = PlacerMode::Ours;
            else {
                std::cerr << "unknown mode " << m << "\n";
                return 2;
            }
        } else if (arg.rfind("--bins=", 0) == 0) {
            bins = int_flag("--bins", arg.substr(7));
            if (bins < 0) throw UsageError("--bins must not be negative");
        } else if (arg.rfind("--seed=", 0) == 0) {
            cfg.seed = flag_value("--seed", arg.substr(7),
                                  [](const std::string& t, size_t* n) {
                                      return std::stoull(t, n);
                                  });
        } else if (arg == "--no-mci") {
            cfg.enable_mci = false;
        } else if (arg == "--no-dc") {
            cfg.enable_dc = false;
        } else if (arg == "--no-dpa") {
            cfg.enable_dpa = false;
        } else if (arg == "--multi-pin-moving") {
            cfg.netmove.move_multi_pin_edges = true;  // paper extension
        } else if (arg.rfind("--budget-ms=", 0) == 0) {
            cfg.recover.stage_budget_ms =
                flag_value("--budget-ms", arg.substr(12),
                           [](const std::string& t, size_t* n) {
                               return std::stod(t, n);
                           });
        } else if (arg == "--no-recover") {
            cfg.recover.enabled = false;
        } else if (arg.rfind("--checkpoint-dir=", 0) == 0) {
            cfg.durable.dir = arg.substr(17);
        } else if (arg.rfind("--checkpoint-every=", 0) == 0) {
            cfg.durable.every = int_flag("--checkpoint-every", arg.substr(19));
        } else if (arg == "--resume" || arg.rfind("--resume=", 0) == 0) {
            cfg.durable.resume = arg.size() > 9 ? arg.substr(9) : "auto";
        } else if (arg.rfind("--wl-iters=", 0) == 0) {
            cfg.max_wl_iters = int_flag("--wl-iters", arg.substr(11));
        } else if (arg.rfind("--route-iters=", 0) == 0) {
            cfg.max_route_iters = int_flag("--route-iters", arg.substr(14));
        } else if (arg.rfind("--inner-iters=", 0) == 0) {
            cfg.inner_iters = int_flag("--inner-iters", arg.substr(14));
        } else if (arg == "--no-eval") {
            run_eval = false;
        } else if (input_path.empty()) {
            input_path = arg;
        } else if (output_path.empty()) {
            output_path = arg;
        } else {
            std::cerr << "unexpected argument " << arg << "\n";
            return 2;
        }
    }

    if (input_path.empty()) {
        input_path = "/tmp/rdplace_demo.txt";
        std::cout << "no input given: generating a demo design at "
                  << input_path << "\n";
        GeneratorConfig gen;
        gen.name = "demo";
        gen.num_cells = 2000;
        gen.num_macros = 3;
        gen.utilization = 0.75;
        write_design_file(generate_circuit(gen), input_path);
    }
    if (output_path.empty()) output_path = input_path + ".placed";

    Design design;
    try {
        design = read_design_file(input_path);
    } catch (const std::exception& e) {
        std::cerr << "failed to read " << input_path << ": " << e.what()
                  << "\n";
        return 1;
    }
    const auto problems = design.validate();
    if (!problems.empty()) {
        std::cerr << "design has " << problems.size()
                  << " consistency problems; first: " << problems[0] << "\n";
        return 1;
    }
    std::cout << "read " << input_path << ": " << compute_stats(design)
              << "\n";

    // Grid: explicit, or sized so a bin holds roughly one cell.
    if (bins == 0) {
        int movable = static_cast<int>(design.movable_cells().size());
        bins = std::clamp(next_pow2(static_cast<int>(std::sqrt(
                              std::max(movable, 1)))),
                          16, 256);
    }
    cfg.grid_bins = bins;
    std::cout << "placing (mode "
              << (cfg.mode == PlacerMode::WirelengthOnly ? "wirelength-only"
                  : cfg.mode == PlacerMode::RouteBaseline
                      ? "route-baseline"
                      : "ours")
              << ", grid " << bins << "x" << bins << ")...\n";

    const PlaceResult res = GlobalPlacer(cfg).place(design);
    std::cout << "placed in " << res.place_seconds << " s: HPWL "
              << res.hpwl_final << ", " << res.wl_iters
              << " wirelength iters + " << res.route_outer_iters
              << " routability iters\n";
    if (res.recovery.recovered_any()) {
        std::cout << "recovery: " << res.recovery.events.size()
                  << " events, " << res.recovery.rollbacks << " rollbacks, "
                  << res.recovery.degraded_stages << " degraded stages\n";
        for (const auto& e : res.recovery.events)
            std::cout << "  [" << e.stage << "] iter " << e.iter << " "
                      << recover::fault_kind_name(e.kind) << " -> "
                      << e.action << " (" << e.detail << ")\n";
    }

    if (run_eval) {
        const EvalMetrics m = evaluate_placement(res.placed);
        std::cout << "routed: DRWL " << m.drwl << ", #vias " << m.vias
                  << ", #DRVs " << m.drvs << "\n";
    }

    write_design_file(res.placed, output_path);
    std::cout << "wrote placed design to " << output_path << "\n";
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    // Every failure ends in a diagnostic, never in std::terminate.
    try {
        return run(argc, argv);
    } catch (const UsageError& e) {
        std::cerr << e.what() << "\n";
        return 2;
    } catch (const std::exception& e) {  // std::bad_alloc included
        std::cerr << "place_file failed: " << e.what() << "\n";
        return 1;
    }
}
