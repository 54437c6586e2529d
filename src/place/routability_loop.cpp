#include "place/routability_loop.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <sstream>
#include <utility>

#include "audit/invariant_audit.hpp"
#include "congestion/rudy.hpp"
#include "pinaccess/dynamic_density.hpp"
#include "recover/durable_checkpoint.hpp"
#include "recover/fault_injection.hpp"
#include "recover/kill_points.hpp"
#include "recover/stage_guard.hpp"
#include "util/env.hpp"
#include "util/log.hpp"

namespace rdp {

std::unique_ptr<InflationScheme> make_inflation_scheme(const PlacerConfig& cfg,
                                                       int num_cells) {
    if (cfg.mode == PlacerMode::Ours && cfg.enable_mci)
        return std::make_unique<MomentumInflation>(num_cells, cfg.mci);
    // Baseline framework (Xplace-Route-like) and the no-MCI ablation rows
    // use the monotone historical scheme the paper attributes to [8]/[9].
    return std::make_unique<MonotoneInflation>(num_cells,
                                               cfg.baseline_inflation);
}

double budget_inflation(const Design& d, int first_filler,
                        std::vector<double>& ratios,
                        double usable_filler_frac, double extra_area) {
    double raw_extra = 0.0;
    for (int i = 0; i < first_filler; ++i) {
        const Cell& c = d.cells[static_cast<size_t>(i)];
        if (!c.movable()) continue;
        raw_extra += c.area() * (ratios[static_cast<size_t>(i)] - 1.0);
    }
    double filler_area = 0.0;
    for (int i = first_filler; i < d.num_cells(); ++i)
        filler_area += d.cells[static_cast<size_t>(i)].area();

    // The PG density charge comes off the top of the budget.
    const double budget = std::max(
        usable_filler_frac * filler_area - extra_area, 0.0);
    if (raw_extra > budget && raw_extra > 0.0) {
        const double scale = budget / raw_extra;
        for (int i = 0; i < first_filler; ++i) {
            const Cell& c = d.cells[static_cast<size_t>(i)];
            if (!c.movable()) continue;
            auto& r = ratios[static_cast<size_t>(i)];
            r = 1.0 + scale * (r - 1.0);
        }
    }
    // Fillers shrink by exactly the area the real cells and the PG charge
    // gained (never below a small floor).
    const double consumed =
        std::min(std::max(raw_extra, 0.0), budget) +
        std::min(extra_area, usable_filler_frac * filler_area);
    const double filler_ratio =
        filler_area > 0.0
            ? std::max(1.0 - consumed / filler_area, 0.05)
            : 1.0;
    for (int i = first_filler; i < d.num_cells(); ++i)
        ratios[static_cast<size_t>(i)] = filler_ratio;
    return filler_ratio;
}

std::function<Vec2(size_t, Vec2)> region_clamp(
    const Design& d, const std::vector<int>& movable) {
    return [&d, &movable](size_t slot, Vec2 p) {
        const Cell& c = d.cells[static_cast<size_t>(movable[slot])];
        const Rect r = d.region;
        return Vec2{std::clamp(p.x, r.lx + c.width / 2, r.hx - c.width / 2),
                    std::clamp(p.y, r.ly + c.height / 2, r.hy - c.height / 2)};
    };
}

double die_wirelength_bound(const Design& d) {
    int nets = 0;
    for (const Net& n : d.nets)
        if (n.degree() >= 2) ++nets;
    return (d.region.width() + d.region.height()) *
           static_cast<double>(std::max(nets, 1));
}

void check_evaluation(const recover::StageGuard& guard, int iter,
                      const ObjectiveTerms& terms,
                      const std::vector<Vec2>& grad, double explosion_bound) {
    if (!guard.active()) return;
    using recover::FaultKind;
    const double tsum = terms.wirelength + terms.density + terms.overflow +
                        terms.congestion;
    if (!std::isfinite(tsum)) {
        std::ostringstream oss;
        oss << "non-finite objective terms at Nesterov iteration " << iter;
        throw recover::RecoverableError(FaultKind::GradientNaN, guard.stage(),
                                        oss.str());
    }
    if (terms.wirelength > explosion_bound) {
        std::ostringstream oss;
        oss << "WA wirelength " << terms.wirelength
            << " exceeds the explosion bound " << explosion_bound;
        throw recover::RecoverableError(FaultKind::HpwlExplosion,
                                        guard.stage(), oss.str());
    }
    for (size_t gi = 0; gi < grad.size(); ++gi) {
        if (std::isfinite(grad[gi].x) && std::isfinite(grad[gi].y)) continue;
        std::ostringstream oss;
        oss << "non-finite gradient of slot " << gi
            << " at Nesterov iteration " << iter;
        throw recover::RecoverableError(FaultKind::GradientNaN, guard.stage(),
                                        oss.str());
    }
}

void fling_fault(const recover::StageGuard& guard, int iter, const Design& d,
                 NesterovSolver& solver, const NesterovConfig& cfg) {
    if (!guard.active() ||
        !recover::fault::fire(guard.stage(), recover::FaultKind::HpwlExplosion,
                              iter))
        return;
    std::vector<Vec2> blown = solver.solution();
    const Vec2 c = d.region.center();
    for (Vec2& p : blown)
        p = {c.x + (p.x - c.x) * 1e4, c.y + (p.y - c.y) * 1e4};
    solver = NesterovSolver(std::move(blown), cfg);
}

namespace {

constexpr const char* kStage = "routability-gp";

/// Recovery-side mirror of audit::check_congestion_map for runs with the
/// audits compiled out or disabled: same predicate, RecoverableError
/// instead of AuditFailure.
bool find_invalid_gcell(const CongestionMap& cmap, std::string& msg) {
    const GridF& dmd = cmap.demand();
    const GridF& cap = cmap.capacity();
    for (int y = 0; y < dmd.height(); ++y) {
        for (int x = 0; x < dmd.width(); ++x) {
            const double dv = dmd.at(x, y);
            const double cv = cap.at(x, y);
            if (std::isfinite(dv) && dv >= 0.0 && std::isfinite(cv) &&
                cv >= 0.0)
                continue;
            std::ostringstream oss;
            oss << "demand/capacity at G-cell (" << x << ", " << y
                << ") is invalid: " << dv << " / " << cv;
            msg = oss.str();
            return true;
        }
    }
    return false;
}

/// True when the last `flips` deltas of `window` alternate in sign and
/// each swings by at least `amplitude` of the smaller endpoint — the
/// outer-loop overflow is bouncing instead of converging.
bool overflow_oscillates(const std::vector<double>& window, int flips,
                         double amplitude) {
    if (static_cast<int>(window.size()) < flips + 1) return false;
    const size_t n = window.size();
    double prev_sign = 0.0;
    for (int i = 0; i < flips; ++i) {
        const double a = window[n - 2 - static_cast<size_t>(i)];
        const double b = window[n - 1 - static_cast<size_t>(i)];
        const double delta = b - a;
        const double base = std::max(std::min(a, b), 1e-12);
        if (!(std::abs(delta) >= amplitude * base)) return false;
        const double sign = delta > 0.0 ? 1.0 : -1.0;
        if (i > 0 && sign == prev_sign) return false;
        prev_sign = sign;
    }
    return true;
}

}  // namespace

RoutabilityStats run_routability_stage(
    Design& d, const std::vector<int>& movable, PlacementObjective& obj,
    const PlacerConfig& cfg, const std::vector<PGRail>& selected_rails,
    int first_filler, recover::DurableCheckpointer* durable,
    const recover::PipelineSnapshot* entry) {
    const bool resuming =
        entry != nullptr && entry->stage == recover::kStageRoutability;
    const AuditStageScope audit_scope(kStage);
    RoutabilityStats stats;
    recover::StageGuard guard(kStage, cfg.recover, &stats.recovery);
    const bool journal = durable != nullptr && durable->enabled();
    const BinGrid& grid = obj.grid();

    // Incremental congestion estimation (RDP_INCREMENTAL, default on):
    // persistent router / RUDY caches threaded through every estimation of
    // this stage. Pure performance: route(d, &state) and the incremental
    // RUDY maps are bitwise identical to their from-scratch counterparts,
    // so the knob changes wall clock only, never results (DESIGN.md §12).
    const bool incremental = env::flag_or("RDP_INCREMENTAL", true);
    IncrementalRouteState inc_route;
    IncrementalRudyState inc_rudy;
    CongestionField field(grid);
    auto scheme = make_inflation_scheme(cfg, d.num_cells());
    const GridF rail_area = rail_area_per_bin(selected_rails, grid);

    // The carried loop state lives in the value the journal serializes
    // (DESIGN.md §11, §16). A capture is a copy of it plus the pieces
    // held elsewhere — lambda_1/gamma in the objective, the inflation
    // scheme's history, the congestion map — and a resume is one
    // assignment plus pushing those pieces back. On a clean run the
    // recovery-adjustable knobs in it (step, lambda_1 growth, router
    // relaxation, dc/dpa) keep their configured values for the whole
    // stage; the recovery ladder below is their only writer.
    recover::PipelineSnapshot st;
    int& outer = st.iter;
    CongestionMap cmap;
    if (resuming) {
        st = *entry;
    } else {
        st.stage = recover::kStageRoutability;
        st.lambda1_growth = cfg.lambda1_growth;
        st.initial_step = NesterovConfig{}.initial_step;
        // Optimizer state: continue from the stage-1 result.
        st.pos.resize(movable.size());
        for (size_t i = 0; i < movable.size(); ++i)
            st.pos[i] = d.cells[static_cast<size_t>(movable[i])].pos;
        st.ratios.assign(static_cast<size_t>(d.num_cells()), 1.0);
        // Static PG density (Xplace-Route style): fixed before the loop.
        st.extra = static_pg_density(rail_area, cfg.static_pg_weight);
        // Best-so-far snapshot, paired with its bookkeeping: it is taken
        // before the iteration's inflation update, so the state it was
        // scored with is the *current* ratios/extra charge — restored
        // together at stage end.
        st.best_metric = std::numeric_limits<double>::max();
        st.best_overflow = std::numeric_limits<double>::max();
        st.best_pos = st.pos;
        st.best_ratios = st.ratios;
        st.best_extra_area = grid_sum(st.extra);
        st.best_inflation = scheme->snapshot();
        st.dc = cfg.mode == PlacerMode::Ours && cfg.enable_dc;
        st.dpa = cfg.mode == PlacerMode::Ours && cfg.enable_dpa;
        st.router_overflow_penalty = cfg.router.overflow_penalty;
        for (const LayerSpec& l : cfg.router.layers)
            st.router_layer_capacity.push_back(l.capacity);
        if (entry != nullptr) {
            st.wl_iters = entry->wl_iters;
            st.overflow_history = entry->overflow_history;
        }
    }
    obj.set_inflation(&st.ratios);
    obj.set_extra_density(&st.extra);
    obj.set_lambda2_scale(cfg.dc_weight);

    std::unique_ptr<GlobalRouter> router;
    auto rebuild_router = [&] {
        RouterConfig router_cfg = cfg.router;
        router_cfg.overflow_penalty = st.router_overflow_penalty;
        if (st.router_layer_capacity.size() == router_cfg.layers.size())
            for (size_t i = 0; i < router_cfg.layers.size(); ++i)
                router_cfg.layers[i].capacity = st.router_layer_capacity[i];
        router = std::make_unique<GlobalRouter>(grid, router_cfg);
    };
    rebuild_router();

    if (resuming) {
        // Durable resume (DESIGN.md §16): push back the pieces held outside
        // the state. The incremental caches start empty, exactly as after
        // a recovery rollback, so the remaining iterations are bitwise
        // identical to the uninterrupted run.
        for (size_t i = 0; i < movable.size(); ++i)
            d.cells[static_cast<size_t>(movable[i])].pos = st.pos[i];
        obj.set_lambda1(st.lambda1);
        // Stage 1 was skipped, so the objective still carries its
        // construction-time gamma, not the decayed stage-1 result.
        obj.set_gamma(st.gamma);
        scheme->restore(st.inflation);
        if (st.cmap_demand.width() > 0)
            cmap = CongestionMap(grid, st.cmap_demand, st.cmap_capacity);
        RDP_LOG_INFO() << "resumed " << kStage << " at outer iteration "
                       << outer;
    } else {
        // Fresh lambda_1 for the stage: the stage-1 schedule leaves it
        // orders of magnitude above the gradient balance a converged
        // placement needs.
        std::vector<Vec2> grad0;
        obj.set_lambda1(0.0);
        const ObjectiveTerms t0 = obj.evaluate(d, movable, st.pos, grad0);
        const double ratio = t0.density_grad_l1 > 0.0
                                 ? t0.wl_grad_l1 / t0.density_grad_l1
                                 : 1.0;
        obj.set_lambda1(cfg.route_lambda1_boost * ratio);
    }

    // Keep the best-routed snapshot under the severity-weighted overflow
    // (the quantity detailed-routing violations track), paired with the
    // bookkeeping it was scored with: the stage must never end worse than
    // it started.
    auto keep_if_best = [&](double severe) {
        if (!(severe < st.best_overflow * (1.0 - cfg.keep_best_margin)))
            return;
        st.best_overflow = severe;
        st.best_pos = st.pos;
        st.best_ratios = st.ratios;
        st.best_extra_area = grid_sum(st.extra);
        st.best_inflation = scheme->snapshot();
        st.best_iter = outer;
    };
    const auto project = region_clamp(d, movable);
    const double die_bound = die_wirelength_bound(d);
    // Rollback point: the newest capture, taken at every outer-iteration
    // boundary while recovery is active or the journal is enabled.
    recover::PipelineSnapshot ckpt;

    // Recovery ladder. Returns false once retries are exhausted: the loop
    // then stops and the stage finishes on its best snapshot.
    auto apply_recovery = [&](recover::FaultKind kind,
                              const std::string& what) -> bool {
        using recover::FaultKind;
        if (!guard.allow_retry(kind, outer, what)) {
            guard.degrade(kind, outer,
                          "retries exhausted; finishing on the best"
                          " snapshot");
            return false;
        }
        switch (kind) {
            case FaultKind::RouterNoProgress: {
                // Relax the router capacity model: cheaper overflow and
                // more effective tracks let the negotiation move again.
                st.router_overflow_penalty *= cfg.recover.router_relax;
                for (double& cap : st.router_layer_capacity)
                    cap /= cfg.recover.router_relax;
                rebuild_router();
                // The relaxed config changes the cached routes' cost model;
                // the config key would force the rebuild anyway, but drop
                // the cache explicitly.
                inc_route.invalidate();
                std::ostringstream oss;
                oss << "overflow penalty -> " << st.router_overflow_penalty
                    << ", capacity factors x"
                    << 1.0 / cfg.recover.router_relax;
                guard.record(kind, outer, "relax-router", oss.str());
                break;
            }
            case FaultKind::CorruptedDemand: {
                // The corruption may live in the persistent incremental
                // caches (that is exactly what the incremental-route
                // auditor detects), so the retry must never reuse them.
                inc_route.invalidate();
                inc_rudy.invalidate();
                // First retry re-routes (transient corruption); further
                // ones fall back to the last-good checkpointed map.
                if (guard.retries_used() > 1 &&
                    ckpt.cmap_demand.width() > 0) {
                    st.use_ckpt_cmap = true;
                    guard.record(kind, outer, "fallback-demand",
                                 "using the last-good congestion map of"
                                 " iteration " + std::to_string(ckpt.iter));
                } else {
                    guard.record(kind, outer, "reroute",
                                 "re-running congestion estimation");
                }
                break;
            }
            case FaultKind::CorruptedBudget: {
                st.ratios = ckpt.ratios;
                scheme->restore(ckpt.inflation);
                guard.record(kind, outer, "reset-inflation",
                             "restored checkpoint inflation bookkeeping");
                break;
            }
            default: {
                // GradientNaN / HpwlExplosion / OverflowOscillation /
                // AuditViolation: roll back to the checkpoint and damp the
                // schedule that drove the divergence. The incremental
                // caches were reconciled against the *failed* positions;
                // a restored checkpoint must never be scored against them.
                inc_route.invalidate();
                inc_rudy.invalidate();
                st.pos = ckpt.pos;
                for (size_t i = 0; i < movable.size(); ++i)
                    d.cells[static_cast<size_t>(movable[i])].pos = st.pos[i];
                obj.set_lambda1(ckpt.lambda1);
                st.ratios = ckpt.ratios;
                scheme->restore(ckpt.inflation);
                st.initial_step *= cfg.recover.step_shrink;
                st.lambda1_growth = 1.0 + (st.lambda1_growth - 1.0) *
                                              cfg.recover.lambda_tighten;
                ++stats.recovery.rollbacks;
                std::ostringstream oss;
                oss << "restored checkpoint of outer iteration " << ckpt.iter
                    << "; step x" << cfg.recover.step_shrink
                    << ", lambda1 growth -> " << st.lambda1_growth;
                guard.record(kind, outer, "rollback", oss.str());
                if (guard.retries_used() >= cfg.recover.max_retries &&
                    (st.dc || st.dpa)) {
                    // Last rung: skip the optional congestion-directed
                    // terms for the rest of the stage.
                    st.dc = false;
                    st.dpa = false;
                    obj.set_congestion(nullptr, nullptr);
                    st.extra = static_pg_density(rail_area,
                                                 cfg.static_pg_weight);
                    guard.record(kind, outer, "skip-optional",
                                 "disabled net-moving DC and DPA for the"
                                 " rest of the stage");
                }
                break;
            }
        }
        return true;
    };

    while (outer < cfg.max_route_iters) {
        if (guard.over_budget(outer)) break;

        // Capture the outer boundary. An outer iteration routes the whole
        // design, so the copy and the journal write are noise against the
        // body they front.
        if (guard.active() || journal) {
            ckpt = st;
            ckpt.lambda1 = obj.lambda1();
            ckpt.gamma = obj.gamma();
            ckpt.inflation = scheme->snapshot();
            ckpt.cmap_demand = cmap.demand();  // empty before iteration 0
            ckpt.cmap_capacity = cmap.capacity();
            if (journal) durable->save(ckpt);
        }
        recover::crash::maybe_kill("route-mid");
        // History entries of a failed attempt are rolled back with it.
        const size_t mark_overflow = st.congestion_history.size();
        const size_t mark_inflation = stats.mean_inflation.size();
        const size_t mark_penalty = st.penalty_history.size();

        try {
            // 1. Congestion estimation on current positions -> map (Eq. 3):
            //    a full global route (the paper) or RUDY (router-free).
            int rrr_executed = 0;
            int rrr_stalled = 0;
            if (st.use_ckpt_cmap && ckpt.cmap_demand.width() > 0) {
                st.use_ckpt_cmap = false;
                cmap = CongestionMap(grid, ckpt.cmap_demand,
                                     ckpt.cmap_capacity);
            } else if (cfg.use_rudy_congestion) {
                cmap = rudy_congestion(d, grid, cfg.router, {},
                                       incremental ? &inc_rudy : nullptr);
            } else {
                const RouteResult rr =
                    router->route(d, incremental ? &inc_route : nullptr);
                cmap = rr.congestion;
                rrr_executed = rr.rrr_rounds_executed;
                rrr_stalled = rr.rrr_rounds_stalled;
                stats.route_conns_total += rr.inc_conns_total;
                stats.route_conns_rerouted += rr.inc_conns_rerouted;
                // Fault-injection site (stage "global-route", distinct
                // from the kStage sites below): corrupt the *persistent*
                // phase-A demand after a successful route. The next
                // route() call's incremental-route auditor must trip on
                // the stale cache and recovery must invalidate it.
                if (guard.active() && incremental &&
                    recover::fault::fire("global-route",
                                         recover::FaultKind::CorruptedDemand,
                                         outer) &&
                    inc_route.dem_h.width() > 0) {
                    inc_route.dem_h.at(0, 0) += 1.0;
                }
            }

            // Fault-injection sites (inert unless a matching spec is
            // armed): the site corrupts its own state, detection below
            // must catch it.
            if (guard.active()) {
                using recover::FaultKind;
                namespace fault = recover::fault;
                if (fault::fire(kStage, FaultKind::CorruptedDemand, outer)) {
                    GridF dmd = cmap.demand();
                    dmd.at(0, 0) =
                        std::numeric_limits<double>::quiet_NaN();
                    cmap = CongestionMap(grid, std::move(dmd),
                                         cmap.capacity());
                }
                if (fault::fire(kStage, FaultKind::RouterNoProgress,
                                outer)) {
                    // Simulate the livelock symptom: absurd demand that
                    // every RRR round failed to improve.
                    GridF dmd = cmap.demand();
                    grid_scale(dmd, 1e9);
                    cmap = CongestionMap(grid, std::move(dmd),
                                         cmap.capacity());
                    rrr_executed = std::max(rrr_executed, 1);
                    rrr_stalled = rrr_executed;
                }
                if (fault::fire(kStage, FaultKind::OverflowOscillation,
                                outer) &&
                    outer % 2 == 0) {
                    // Every other iteration sees 64x demand: the overflow
                    // window alternates huge/normal until detected.
                    GridF dmd = cmap.demand();
                    grid_scale(dmd, 64.0);
                    cmap = CongestionMap(grid, std::move(dmd),
                                         cmap.capacity());
                }
            }

            // Divergence detection: corrupted demand. The auditor throws
            // AuditFailure (classified below); when audits are off the
            // recovery layer runs the same predicate itself.
            audit::check_congestion_map(cmap);
            if (guard.active() && !audit_enabled()) {
                std::string msg;
                if (find_invalid_gcell(cmap, msg))
                    throw recover::RecoverableError(
                        recover::FaultKind::CorruptedDemand, kStage, msg);
            }

            st.congestion_history.push_back(cmap.total_overflow());
            const double severe = cmap.weighted_overflow();

            // Divergence detection: router livelock — every RRR round
            // stalled while the overflow is beyond anything a healthy run
            // produces.
            if (guard.active() && rrr_executed > 0 &&
                rrr_stalled == rrr_executed &&
                severe > cfg.recover.router_livelock_overflow) {
                std::ostringstream oss;
                oss << "all " << rrr_executed
                    << " RRR rounds stalled at weighted overflow " << severe;
                throw recover::RecoverableError(
                    recover::FaultKind::RouterNoProgress, kStage, oss.str());
            }
            // Divergence detection: outer-loop overflow oscillation.
            if (guard.active()) {
                st.osc_window.push_back(severe);
                if (overflow_oscillates(st.osc_window, cfg.recover.osc_flips,
                                        cfg.recover.osc_amplitude)) {
                    std::ostringstream oss;
                    oss << "weighted overflow alternated "
                        << cfg.recover.osc_flips
                        << " times (last " << severe << ")";
                    throw recover::RecoverableError(
                        recover::FaultKind::OverflowOscillation, kStage,
                        oss.str());
                }
            }

            keep_if_best(severe);

            // 3'. Dynamic pin-accessibility density adjustment (Eq. 13-15)
            //     is refreshed first so its charge is known to the budget.
            if (st.dpa) {
                st.extra = dynamic_pg_density(rail_area, cmap);
                grid_scale(st.extra, cfg.dpa_weight);
            }

            // 2. Momentum-based (or baseline) cell inflation update,
            //    budgeted (together with the PG charge) against the filler
            //    whitespace so the density stays feasible.
            scheme->update(d, cmap);
            st.ratios = scheme->ratios();
            const double extra_area = grid_sum(st.extra);
            budget_inflation(d, first_filler, st.ratios,
                             cfg.inflation_budget_frac, extra_area);
            if (guard.active() &&
                recover::fault::fire(kStage,
                                     recover::FaultKind::CorruptedBudget,
                                     outer) &&
                !st.ratios.empty()) {
                st.ratios[0] = -1.0;
            }
            // Invariant audit: the budgeted ratios must balance —
            // real-cell area growth inside the filler budget, uniform
            // filler shrink.
            if (audit_enabled())
                audit::check_inflation_budget(d, first_filler, st.ratios,
                                              cfg.inflation_budget_frac,
                                              extra_area);
            else if (guard.active()) {
                for (size_t i = 0; i < st.ratios.size(); ++i) {
                    const double r = st.ratios[i];
                    if (std::isfinite(r) && r > 0.0) continue;
                    std::ostringstream oss;
                    oss << "inflation ratio of cell " << i
                        << " is invalid: " << r;
                    throw recover::RecoverableError(
                        recover::FaultKind::CorruptedBudget, kStage,
                        oss.str());
                }
            }
            {
                double acc = 0.0;
                int n = 0;
                for (int ci : movable) {
                    if (ci >= first_filler) continue;
                    acc += st.ratios[static_cast<size_t>(ci)];
                    ++n;
                }
                stats.mean_inflation.push_back(n > 0 ? acc / n : 1.0);
            }

            // 4. Congestion potential field for the DC term (the
            //    bounding-box baseline model needs only the map, not the
            //    field).
            if (st.dc) {
                obj.set_dc_model(cfg.use_bbox_dc_model
                                     ? DcModel::BoundingBox
                                     : DcModel::NetMoving);
                if (!cfg.use_bbox_dc_model) field.build(cmap);
                obj.set_congestion(
                    &cmap, cfg.use_bbox_dc_model ? nullptr : &field);
            }

            // 5. Inner Nesterov iterations on Eq. (5).
            NesterovConfig nes_cfg;
            nes_cfg.initial_step = st.initial_step;
            NesterovSolver solver(st.pos, nes_cfg);
            fling_fault(guard, outer, d, solver, nes_cfg);
            const double explosion_bound =
                cfg.recover.hpwl_explosion_factor *
                std::max(ckpt.last_wl, die_bound);
            std::vector<Vec2> grad;
            double penalty = 0.0;
            double attempt_wl = st.last_wl;
            for (int it = 0; it < cfg.inner_iters; ++it) {
                const ObjectiveTerms terms =
                    obj.evaluate(d, movable, solver.reference(), grad);
                if (guard.active() && it == 0 && !grad.empty() &&
                    recover::fault::fire(kStage,
                                         recover::FaultKind::GradientNaN,
                                         outer))
                    grad[0].x = std::numeric_limits<double>::quiet_NaN();
                check_evaluation(guard, it, terms, grad, explosion_bound);
                penalty = terms.congestion;
                solver.step(grad, project);
                // Keep the ePlace lambda_1 schedule only while the density
                // target is not met; once spread, wirelength/congestion
                // lead.
                if (terms.overflow > cfg.stop_overflow)
                    obj.set_lambda1(obj.lambda1() * st.lambda1_growth);
                attempt_wl = terms.wirelength;
            }
            {
                // Last line of defense before NaN positions reach the
                // design: scan the solution once (observe-only).
                const std::vector<Vec2>& sol = solver.solution();
                if (guard.active()) {
                    for (size_t i = 0; i < sol.size(); ++i) {
                        if (std::isfinite(sol[i].x) &&
                            std::isfinite(sol[i].y))
                            continue;
                        std::ostringstream oss;
                        oss << "non-finite solution position of slot " << i;
                        throw recover::RecoverableError(
                            recover::FaultKind::GradientNaN, kStage,
                            oss.str());
                    }
                }
                st.pos = sol;
            }
            for (size_t i = 0; i < movable.size(); ++i)
                d.cells[static_cast<size_t>(movable[i])].pos = st.pos[i];
            st.last_wl = attempt_wl;
            st.penalty_history.push_back(penalty);

            if (cfg.verbose) {
                RDP_LOG_INFO() << "[route-iter " << outer << "] overflow="
                               << cmap.total_overflow()
                               << " C(x,y)=" << penalty
                               << " inflation=" << stats.mean_inflation.back();
            }

            // 6. Stop when the congestion metric no longer decreases
            //    (paper: "until C(x,y) no longer decreases or the given
            //    number of iterations is reached"). When DC is off the
            //    router overflow serves as the metric.
            const double metric = st.dc ? penalty : cmap.weighted_overflow();
            ++outer;
            if (metric < st.best_metric - 1e-9) {
                st.best_metric = metric;
                st.stall = 0;
            } else if (++st.stall >= cfg.stop_patience) {
                break;
            }
        } catch (...) {
            std::string what;
            const recover::FaultKind kind =
                recover::classify_in_flight(guard.active(), what);
            st.congestion_history.resize(mark_overflow);
            stats.mean_inflation.resize(mark_inflation);
            st.penalty_history.resize(mark_penalty);
            st.osc_window.clear();
            if (!apply_recovery(kind, what)) break;
        }
    }
    stats.outer_iters = outer;

    // Score the final positions too, then restore the best snapshot seen —
    // positions together with the inflation bookkeeping they were scored
    // with (ratios, extra charge, scheme history), so downstream consumers
    // never see a mixed state.
    {
        const double severe =
            cfg.use_rudy_congestion
                ? rudy_congestion(d, grid, cfg.router, {},
                                  incremental ? &inc_rudy : nullptr)
                      .weighted_overflow()
                : router->route(d, incremental ? &inc_route : nullptr)
                      .congestion.weighted_overflow();
        keep_if_best(severe);
        for (size_t i = 0; i < movable.size(); ++i)
            d.cells[static_cast<size_t>(movable[i])].pos = st.best_pos[i];
        st.ratios = st.best_ratios;
        scheme->restore(st.best_inflation);
        stats.best_iter = st.best_iter;
        stats.final_ratios = st.best_ratios;
        stats.final_extra_area = st.best_extra_area;
        stats.total_overflow = std::move(st.congestion_history);
        stats.penalty = std::move(st.penalty_history);
        // Re-audit the restored pairing: the bookkeeping must balance for
        // the snapshot exactly as it did when the snapshot was scored.
        if (audit_enabled())
            audit::check_inflation_budget(d, first_filler, st.ratios,
                                          cfg.inflation_budget_frac,
                                          st.best_extra_area);
    }

    // Detach caller-owned state before `st`/`scheme` go out of scope.
    obj.set_congestion(nullptr, nullptr);
    obj.set_extra_density(nullptr);
    obj.set_inflation(nullptr);
    return stats;
}

}  // namespace rdp
