#include "place/global_placer.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include <iomanip>
#include <limits>
#include <optional>
#include <sstream>
#include <string>

#include "audit/invariant_audit.hpp"
#include "db/netlist_io.hpp"
#include "fft/fft.hpp"
#include "legal/abacus.hpp"
#include "legal/pin_access_refine.hpp"
#include "place/nesterov.hpp"
#include "place/objective.hpp"
#include "place/routability_loop.hpp"
#include "recover/durable_checkpoint.hpp"
#include "recover/fault_injection.hpp"
#include "recover/kill_points.hpp"
#include "recover/stage_guard.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "wirelength/hpwl.hpp"

namespace rdp {

namespace {

/// Design + curated-config fingerprint stored in every durable snapshot
/// (DESIGN.md §16): a checkpoint must never resume a different design,
/// seed, or schedule — any of those silently breaks the bitwise-identity
/// contract of a resumed run.
uint64_t durable_fingerprint(const Design& d, const PlacerConfig& cfg) {
    std::ostringstream ss;
    write_design(d, ss);
    ss << std::setprecision(17) << "|mode=" << static_cast<int>(cfg.mode)
       << "|mci=" << cfg.enable_mci << "|dc=" << cfg.enable_dc
       << "|dpa=" << cfg.enable_dpa << "|bins=" << cfg.grid_bins
       << "|td=" << cfg.density.target_density
       << "|filler=" << cfg.filler_ratio << "|g=" << cfg.gamma_frac << ":"
       << cfg.gamma_min_frac << ":" << cfg.gamma_decay
       << "|l1=" << cfg.lambda1_growth << "|wl=" << cfg.max_wl_iters << ":"
       << cfg.stop_overflow << "|route=" << cfg.max_route_iters << ":"
       << cfg.inner_iters << ":" << cfg.stop_patience
       << "|infl=" << cfg.inflation_budget_frac << ":"
       << cfg.keep_best_margin << "|w=" << cfg.dc_weight << ":"
       << cfg.dpa_weight << ":" << cfg.route_lambda1_boost << ":"
       << cfg.static_pg_weight << "|bbox=" << cfg.use_bbox_dc_model
       << "|rudy=" << cfg.use_rudy_congestion
       << "|padp=" << cfg.enable_pin_access_dp
       << "|nm=" << cfg.netmove.multi_pin_congestion_threshold
       << "|seed=" << cfg.seed;
    const std::string text = ss.str();
    return recover::fnv1a64(text.data(), text.size());
}

}  // namespace

int GlobalPlacer::add_fillers(Design& d, const PlacerConfig& cfg,
                              uint64_t seed) {
    const int first = d.num_cells();
    const double free_area = d.region.area() - d.total_fixed_area();
    const double spare =
        cfg.density.target_density * free_area - d.total_movable_area();
    if (spare <= 0.0) return first;

    // Filler size: mean movable cell dimensions.
    double mean_w = 0.0, mean_h = d.row_height;
    int n_mov = 0;
    for (const Cell& c : d.cells) {
        if (!c.movable()) continue;
        mean_w += c.width;
        ++n_mov;
    }
    if (n_mov == 0) return first;
    mean_w /= n_mov;
    const double fa = mean_w * mean_h;
    const int count =
        static_cast<int>(std::floor(cfg.filler_ratio * spare / fa));

    Rng rng(seed ^ 0xF117E55ull);
    for (int i = 0; i < count; ++i) {
        const Vec2 p{rng.uniform(d.region.lx + mean_w / 2,
                                 d.region.hx - mean_w / 2),
                     rng.uniform(d.region.ly + mean_h / 2,
                                 d.region.hy - mean_h / 2)};
        d.add_cell("__filler_" + std::to_string(i), mean_w, mean_h,
                   CellKind::Movable, p);
    }
    return first;
}

PlaceResult GlobalPlacer::place(const Design& input) const {
    const auto t0 = std::chrono::steady_clock::now();
    RDP_LOG_INFO() << "simd backend: " << simd::backend_name()
                   << (simd::fma_enabled() ? " (fma)" : "");
    PlaceResult res;

    Design d = input;
    if (d.rows.empty()) d.build_rows();

    // Durable checkpoint/resume layer (DESIGN.md §16). The fingerprint is
    // computed on the pre-placement design (movable input positions are
    // overwritten below either way), so the same input file and config
    // always fingerprint identically.
    const recover::DurableOptions dopts =
        recover::resolve_durable_options(cfg_.durable);
    uint64_t fingerprint = 0;
    if (!dopts.dir.empty() || !dopts.resume.empty())
        fingerprint = durable_fingerprint(d, cfg_);
    recover::DurableCheckpointer durable(dopts, fingerprint);

    // The pipeline state (DESIGN.md §11, §16): resumed from the journal or
    // started fresh, captured as each stage's rollback point and journal
    // entry, and carried from stage 1 into stage 2.
    const std::optional<recover::PipelineSnapshot> resume =
        durable.load_resume();
    recover::PipelineSnapshot st;
    if (resume) {
        st = *resume;
    } else {
        st.stage = recover::kStageWirelength;
        st.lambda1_growth = cfg_.lambda1_growth;
        st.initial_step = NesterovConfig{}.initial_step;
    }

    // Initial positions: movable cells near the centroid of fixed pins
    // (or the region center), with a small deterministic spread.
    {
        Vec2 centroid = d.region.center();
        Rng rng(cfg_.seed);
        const double sx = d.region.width() * 0.08;
        const double sy = d.region.height() * 0.08;
        for (Cell& c : d.cells) {
            if (!c.movable()) continue;
            c.pos = {centroid.x + rng.normal(0.0, sx),
                     centroid.y + rng.normal(0.0, sy)};
        }
        d.clamp_movables_to_region();
    }

    const int first_filler = add_fillers(d, cfg_, cfg_.seed);
    std::vector<int> movable = d.movable_cells();

    // Shared grid for density, G-cells, and congestion (paper II-B).
    const int bins = next_pow2(cfg_.grid_bins);
    const BinGrid grid(d.region, bins, bins);
    PlacementObjective obj(grid, cfg_.density, cfg_.netmove,
                           cfg_.gamma_frac *
                               std::max(grid.bin_w(), grid.bin_h()));

    // ---- Stage 1: wirelength-driven GP ------------------------------------
    // Skipped entirely when resuming from a routability-stage snapshot:
    // everything it would compute is superseded by the snapshot state.
    if (st.stage == recover::kStageWirelength) {
        const AuditStageScope audit_scope("wirelength-gp");
        recover::StageGuard sguard("wirelength-gp", cfg_.recover,
                                   &res.recovery);
        // The solver holds the positions and momentum, the objective
        // holds lambda_1/gamma; `st` holds the iteration cursor, the
        // recovery-adjustable knobs (identical to the configured values
        // on a clean run — the recovery ladder is their only writer) and
        // the history.
        NesterovConfig nes_cfg;
        nes_cfg.initial_step = st.initial_step;
        std::vector<Vec2> pos = std::move(st.pos);
        if (!resume) {
            pos.resize(movable.size());
            for (size_t i = 0; i < movable.size(); ++i)
                pos[i] = d.cells[static_cast<size_t>(movable[i])].pos;
        }
        NesterovSolver solver(std::move(pos), nes_cfg);
        std::vector<Vec2> grad;
        if (resume) {
            // Rebuild the optimizer exactly as serialized: positions plus
            // the full momentum state, under the snapshot's (possibly
            // recovery-adjusted) step and schedule knobs. The iterations
            // from here on are bitwise identical to the uninterrupted run.
            solver.restore(st.opt);
            st.opt = {};  // the solver owns the momentum from here on
            obj.set_lambda1(st.lambda1);
            obj.set_gamma(st.gamma);
            RDP_LOG_INFO() << "resumed wirelength-gp at iteration "
                           << st.iter;
        } else {
            // lambda_1 initialization: ||grad W||_1 / ||grad D||_1.
            obj.set_lambda1(0.0);
            const ObjectiveTerms t0terms =
                obj.evaluate(d, movable, solver.reference(), grad);
            const double l1 =
                t0terms.density_grad_l1 > 0.0
                    ? t0terms.wl_grad_l1 / t0terms.density_grad_l1
                    : 1.0;
            obj.set_lambda1(l1);
        }

        const double gamma_min =
            cfg_.gamma_min_frac * std::max(grid.bin_w(), grid.bin_h());
        const auto project = region_clamp(d, movable);
        const double die_bound = die_wirelength_bound(d);
        int& it = st.iter;

        // Rollback point: the newest capture, taken every durable.every()
        // iterations while recovery is active or the journal is enabled —
        // so it is always the newest journal entry. The first iteration
        // always captures (iter -1 = none yet; a run resumed under another
        // cadence may start between multiples), so a recovery, which only
        // runs while the guard is active, always has a point to restore.
        recover::PipelineSnapshot ckpt;
        ckpt.iter = -1;
        double explosion_bound = 0.0;
        auto capture = [&] {
            ckpt = st;
            ckpt.pos = solver.solution();
            ckpt.opt = solver.snapshot();
            ckpt.lambda1 = obj.lambda1();
            ckpt.gamma = obj.gamma();
            explosion_bound = cfg_.recover.hpwl_explosion_factor *
                              std::max(ckpt.last_wl, die_bound);
            durable.save(ckpt);
        };
        // Recovery ladder for the wirelength stage: roll back to the last
        // checkpoint with a halved step and a tightened lambda schedule.
        // Returns false once retries are exhausted (stage degrades to the
        // checkpoint state).
        auto apply_recovery = [&](recover::FaultKind kind,
                                  const std::string& what) -> bool {
            const int failed_at = it;
            const bool retry = sguard.allow_retry(kind, failed_at, what);
            if (retry) {
                st.initial_step *= cfg_.recover.step_shrink;
                st.lambda1_growth = 1.0 + (st.lambda1_growth - 1.0) *
                                              cfg_.recover.lambda_tighten;
            }
            nes_cfg.initial_step = st.initial_step;
            solver = NesterovSolver(ckpt.pos, nes_cfg);
            obj.set_lambda1(ckpt.lambda1);
            obj.set_gamma(ckpt.gamma);
            it = ckpt.iter;
            st.last_wl = ckpt.last_wl;
            st.overflow_history = ckpt.overflow_history;
            if (!retry) {
                sguard.degrade(kind, failed_at,
                               "retries exhausted; finishing on the last"
                               " checkpoint");
                return false;
            }
            ++res.recovery.rollbacks;
            std::ostringstream oss;
            oss << "restored checkpoint of iteration " << ckpt.iter
                << "; step x" << cfg_.recover.step_shrink
                << ", lambda1 growth -> " << st.lambda1_growth;
            sguard.record(kind, failed_at, "rollback", oss.str());
            return true;
        };

        while (it < cfg_.max_wl_iters) {
            if (sguard.over_budget(it)) break;
            if ((sguard.active() || durable.enabled()) &&
                (it % durable.every() == 0 || ckpt.iter < 0))
                capture();
            recover::crash::maybe_kill("wl-mid");
            try {
                fling_fault(sguard, it, d, solver, nes_cfg);
                const ObjectiveTerms terms =
                    obj.evaluate(d, movable, solver.reference(), grad);
                if (sguard.active() && !grad.empty() &&
                    recover::fault::fire("wirelength-gp",
                                         recover::FaultKind::GradientNaN,
                                         it))
                    grad[0].x = std::numeric_limits<double>::quiet_NaN();
                check_evaluation(sguard, it, terms, grad, explosion_bound);
                st.overflow_history.push_back(terms.overflow);
                solver.step(grad, project);
                obj.set_lambda1(obj.lambda1() * st.lambda1_growth);
                obj.set_gamma(
                    std::max(obj.gamma() * cfg_.gamma_decay, gamma_min));
                st.last_wl = terms.wirelength;
                if (cfg_.verbose && it % 50 == 0) {
                    RDP_LOG_INFO()
                        << "[wl-iter " << it << "] overflow="
                        << terms.overflow << " WA=" << terms.wirelength;
                }
                const bool done =
                    terms.overflow < cfg_.stop_overflow && it > 20;
                ++it;
                if (done) break;
            } catch (...) {
                std::string what;
                const recover::FaultKind kind =
                    recover::classify_in_flight(sguard.active(), what);
                if (!apply_recovery(kind, what)) break;
            }
        }
        st.wl_iters = it;
        const std::vector<Vec2>& sol = solver.solution();
        for (size_t i = 0; i < movable.size(); ++i)
            d.cells[static_cast<size_t>(movable[i])].pos = sol[i];
    }
    res.wl_iters = st.wl_iters;
    res.overflow_history = st.overflow_history;

    // ---- Stage 2: routability-driven GP ------------------------------------
    if (cfg_.mode != PlacerMode::WirelengthOnly) {
        // PG rail selection from macro positions (Fig. 2 pre-process).
        const std::vector<PGRail> rails = select_pg_rails(d, cfg_.rail_select);
        recover::StageGuard sguard("routability-gp", cfg_.recover,
                                   &res.recovery);
        try {
            const RoutabilityStats rs = run_routability_stage(
                d, movable, obj, cfg_, rails, first_filler, &durable, &st);
            res.route_outer_iters = rs.outer_iters;
            res.congestion_history = rs.total_overflow;
            res.penalty_history = rs.penalty;
            res.route_best_iter = rs.best_iter;
            res.recovery.events.insert(res.recovery.events.end(),
                                       rs.recovery.events.begin(),
                                       rs.recovery.events.end());
            res.recovery.rollbacks += rs.recovery.rollbacks;
            res.recovery.degraded_stages += rs.recovery.degraded_stages;
        } catch (...) {
            // The stage handles in-loop failures itself; anything escaping
            // (entry/exit audits) skips the optional stage: the stage-1
            // placement continues into legalization.
            std::string what;
            const recover::FaultKind kind =
                recover::classify_in_flight(sguard.active(), what);
            obj.set_congestion(nullptr, nullptr);
            obj.set_extra_density(nullptr);
            obj.set_inflation(nullptr);
            sguard.degrade(kind, -1, "routability stage skipped: " + what);
        }
    }

    // ---- Legalization + detailed placement ---------------------------------
    // Strip fillers (they were appended last and own no pins).
    d.cells.resize(static_cast<size_t>(first_filler));
    d.clamp_movables_to_region();
    res.hpwl_gp = total_hpwl(d);

    std::vector<Vec2> desired(static_cast<size_t>(d.num_cells()));
    for (int i = 0; i < d.num_cells(); ++i)
        desired[static_cast<size_t>(i)] = d.cells[static_cast<size_t>(i)].pos;

    {
        const AuditStageScope audit_scope("legalize");
        recover::StageGuard sguard("legalize", cfg_.recover, &res.recovery);
        try {
            res.legal_stats = tetris_legalize(d, cfg_.tetris);
            abacus_refine(d, desired);
            res.dp_stats = detailed_place(d, cfg_.dp);
            if (cfg_.enable_pin_access_dp) {
                const std::vector<PGRail> rails =
                    select_pg_rails(d, cfg_.rail_select);
                pin_access_refine(d, rails);
            }
            // Invariant audit: the legalization pipeline must leave every
            // cell row/site-aligned and overlap-free. Skipped when Tetris
            // reported unplaceable cells (pathological utilization) — the
            // failure is already visible in legal_stats.
            if (audit_enabled() && res.legal_stats.cells_failed == 0)
                audit::check_legalized(d);
        } catch (const AuditFailure& e) {
            // A tripped legalization audit degrades to the best-effort
            // placement instead of ending the run; the violation stays
            // visible in the recovery report.
            if (!sguard.active()) throw;
            sguard.degrade(recover::classify_audit_failure(e), -1,
                           std::string("returning best-effort"
                                       " legalization: ") +
                               e.what());
        }
    }
    res.hpwl_final = total_hpwl(d);

    res.placed = std::move(d);
    const auto t1 = std::chrono::steady_clock::now();
    res.place_seconds =
        std::chrono::duration<double>(t1 - t0).count();
    return res;
}

}  // namespace rdp
