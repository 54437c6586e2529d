#pragma once
// Routability-driven global placement framework (paper Fig. 2).
//
// Stage 1 — wirelength-driven GP (the Xplace role): Nesterov on
//   min sum WA_e + lambda_1 D(x, y)
// with filler cells, a decaying WA gamma, and a growing lambda_1, until the
// density overflow target is met.
//
// Stage 2 — routability-driven GP (modes other than WirelengthOnly): the
// outer loop of Fig. 2 — route, build the Eq. (3) congestion map, update
// cell inflation (MCI or a baseline scheme), update the DPA density term,
// rebuild the congestion Poisson field, then run inner Nesterov iterations
// on Eq. (5); repeat until the congestion stops improving.
//
// Finally: Tetris legalization + Abacus refinement + greedy detailed
// placement (the Xplace-Route legalization/DP role).

#include <cstdint>
#include <vector>

#include "db/design.hpp"
#include "density/electro_density.hpp"
#include "congestion/net_moving.hpp"
#include "inflation/baseline_inflation.hpp"
#include "inflation/momentum_inflation.hpp"
#include "legal/detailed_place.hpp"
#include "legal/tetris.hpp"
#include "pinaccess/rail_select.hpp"
#include "recover/durable_checkpoint.hpp"
#include "recover/recover.hpp"
#include "router/global_router.hpp"

namespace rdp {

/// Which placer of Table I to emulate.
enum class PlacerMode {
    WirelengthOnly,  ///< "Xplace": no routability stage
    RouteBaseline,   ///< "Xplace-Route"-like: monotone inflation + static PG
    Ours,            ///< the paper's framework (MCI/DC/DPA per toggles)
};

struct PlacerConfig {
    PlacerMode mode = PlacerMode::Ours;
    // Technique toggles, honored in Ours mode (Table II ablation rows).
    bool enable_mci = true;
    bool enable_dc = true;
    bool enable_dpa = true;

    /// Bins per side for density, G-cells, and congestion (power of two;
    /// the paper keeps bins and G-cells the same size).
    int grid_bins = 64;
    DensityConfig density;
    /// Fraction of spare whitespace filled with filler cells.
    double filler_ratio = 0.8;

    /// WA gamma schedule, in units of max(bin_w, bin_h).
    double gamma_frac = 6.0;
    double gamma_min_frac = 0.5;
    double gamma_decay = 0.99;
    /// lambda_1 growth per Nesterov iteration (ePlace-style schedule).
    double lambda1_growth = 1.05;

    int max_wl_iters = 400;
    double stop_overflow = 0.08;

    // --- routability stage -------------------------------------------------
    int max_route_iters = 16;  ///< outer (route) iterations
    int inner_iters = 12;      ///< Nesterov steps per outer iteration
    /// Outer loop stops after this many consecutive non-improving
    /// iterations of the congestion penalty.
    int stop_patience = 3;
    /// Fraction of the filler area that inflation may consume (inflated
    /// cell area is taken from the fillers, keeping density feasible).
    double inflation_budget_frac = 1.2;
    /// A routability snapshot replaces the kept-best only when it improves
    /// the severity-weighted overflow by this relative margin; marginal
    /// "improvements" late in the loop usually just trade wirelength.
    double keep_best_margin = 0.03;
    /// Damping applied to the Eq. (10) lambda_2 (the congestion gradients
    /// act on a map that is frozen for a whole outer iteration; full
    /// strength overshoots between router calls).
    double dc_weight = 0.4;
    /// Damping applied to the Eq. (14) D^PG charge.
    double dpa_weight = 0.4;
    /// lambda_1 is re-initialized at the routability stage entry to this
    /// multiple of ||grad W||_1 / ||grad D||_1 (the stage-1 schedule has
    /// grown it far past what a converged placement needs).
    double route_lambda1_boost = 0.5;
    RouterConfig router;
    NetMovingConfig netmove;
    /// Congestion gradient model for the DC term: false = the paper's net
    /// moving (default), true = the prior bounding-box penalty [2]
    /// (compared in the ablation_dc_model bench).
    bool use_bbox_dc_model = false;
    /// Congestion source for the routability loop: false = global router
    /// in the loop (the paper), true = RUDY/PinRUDY estimation (as in
    /// DATE'21 [4]; compared in the ablation_congestion_source bench).
    bool use_rudy_congestion = false;
    /// EXTENSION: run the flip-based pin-access refinement after detailed
    /// placement (the DP-stage optimization of the paper's refs [11-13]).
    bool enable_pin_access_dp = false;
    MomentumInflationConfig mci;
    BaselineInflationConfig baseline_inflation;
    RailSelectConfig rail_select;
    /// Weight of the static (Xplace-Route style) PG density term.
    double static_pg_weight = 0.15;

    TetrisConfig tetris;
    DetailedPlaceConfig dp;

    /// Fault-tolerant pipeline runner knobs (DESIGN.md §11): divergence
    /// thresholds, bounded retries, stage budgets. With the defaults a
    /// clean run is bitwise identical to recovery disabled.
    recover::RecoverConfig recover;

    /// Durable checkpoint/resume layer (DESIGN.md §16): journal directory,
    /// the stage-1 checkpoint cadence (which recovery rollbacks share),
    /// and resume request. RDP_CHECKPOINT_DIR /
    /// RDP_CHECKPOINT_EVERY / RDP_RESUME override these; the layer stays
    /// off while the directory is empty, and a resumed run finishes
    /// bitwise identical to the uninterrupted one.
    recover::DurableOptions durable;

    uint64_t seed = 1;
    bool verbose = false;
};

struct PlaceResult {
    Design placed;  ///< final legal placement (fillers removed)
    double hpwl_gp = 0.0;
    double hpwl_final = 0.0;
    double place_seconds = 0.0;
    int wl_iters = 0;
    int route_outer_iters = 0;
    LegalizeStats legal_stats;
    DetailedPlaceStats dp_stats;
    std::vector<double> overflow_history;    ///< stage 1 density overflow
    std::vector<double> congestion_history;  ///< outer-loop total overflow
    std::vector<double> penalty_history;     ///< C(x, y) per outer iteration
    /// Outer iteration whose snapshot the routability stage restored
    /// (-1 = entry state; see RoutabilityStats::best_iter).
    int route_best_iter = -1;
    /// Recovery and degradation events across all guarded stages; empty on
    /// a clean run.
    recover::RecoveryReport recovery;
};

class GlobalPlacer {
public:
    explicit GlobalPlacer(PlacerConfig cfg = {}) : cfg_(std::move(cfg)) {}

    const PlacerConfig& config() const { return cfg_; }

    /// Place a design. The input is copied; the result contains the final
    /// legalized design with the original cell count (fillers stripped).
    PlaceResult place(const Design& input) const;

    /// Append filler cells to a working copy (exposed for tests).
    /// Returns the index of the first filler cell (== input num_cells).
    static int add_fillers(Design& d, const PlacerConfig& cfg, uint64_t seed);

private:
    PlacerConfig cfg_;
};

}  // namespace rdp
