// Link-time interposers for the traced benchmark binary.
//
// The traced executable links with -Wl,--wrap=<symbol> for every symbol
// named in a PB_SYM("...") marker below (CMakeLists.txt scans this file for
// them). The linker then resolves each cross-object call to <symbol> to
// __wrap_<symbol>, which opens a span and calls __real_<symbol>, the
// original definition. Calls inside the defining object file are not
// redirected, which is why every wrapped function here is an entry point
// called from another translation unit of the library.
//
// A member function is wrapped by a free function whose first parameter is
// the object pointer: under the Itanium C++ ABI both have the same calling
// sequence (hidden return slot first, then `this`). If a signature in the
// library changes, its mangled name changes and the link fails on the
// unresolved __real_ reference, so a stale wrapper cannot go unnoticed.
//
// No wrapper changes an argument or a result; the only extra work (costing
// paths for the maze adoption ratio) happens outside the timed span.

#include <algorithm>
#include <functional>
#include <vector>

#include "audit/invariant_audit.hpp"
#include "congestion/congestion_field.hpp"
#include "congestion/net_moving.hpp"
#include "density/electro_density.hpp"
#include "eval/drv_proxy.hpp"
#include "legal/abacus.hpp"
#include "legal/detailed_place.hpp"
#include "legal/tetris.hpp"
#include "place/nesterov.hpp"
#include "place/objective.hpp"
#include "place/routability_loop.hpp"
#include "poisson/poisson.hpp"
#include "router/global_router.hpp"
#include "router/layer_assign.hpp"
#include "router/maze_route.hpp"
#include "router/pattern_route.hpp"
#include "trace.hpp"
#include "wirelength/wa_model.hpp"

#define PB_SYM(s) s
#define PB_REAL(s) __asm__("__real_" s)
#define PB_WRAP(s) __asm__("__wrap_" s)

using namespace rdp;
using perfbench::trace::Counter;
using perfbench::trace::Layer;
using perfbench::trace::Span;

namespace {

/// Run `f` inside a span; the result is returned without a copy.
template <class F>
decltype(auto) timed(Layer l, F&& f) {
    const Span s(l);
    return f();
}

/// The last pattern route on this thread: the maze search the router
/// escalates to is compared against it (same endpoints, same cost model).
struct LastPattern {
    int x0 = -1, y0 = -1, x1 = -1, y1 = -1;
    const RouteCostModel* model = nullptr;
    const RoutePath* out = nullptr;
};
thread_local LastPattern t_last_pattern;

void count_route(const RouteResult& r) {
    perfbench::trace::add(Counter::RrrRounds, r.rrr_rounds_executed);
    perfbench::trace::add(Counter::RrrStalled, r.rrr_rounds_stalled);
    perfbench::trace::add(Counter::CacheConns, r.inc_conns_total);
    perfbench::trace::add(Counter::CacheHits,
                          r.inc_conns_total - r.inc_conns_rerouted);
}

}  // namespace

namespace perfbench::wrap {

// ---- router -----------------------------------------------------------------

#define SYM_ROUTE1 PB_SYM("_ZNK3rdp12GlobalRouter5routeERKNS_6DesignE")
RouteResult real_route1(const GlobalRouter*, const Design&) PB_REAL(SYM_ROUTE1);
RouteResult wrap_route1(const GlobalRouter*, const Design&) PB_WRAP(SYM_ROUTE1);
RouteResult wrap_route1(const GlobalRouter* self, const Design& d) {
    RouteResult r = timed(Layer::Route, [&] { return real_route1(self, d); });
    count_route(r);
    return r;
}

#define SYM_ROUTE2 \
    PB_SYM("_ZNK3rdp12GlobalRouter5routeERKNS_6DesignEPNS_21IncrementalRouteStateE")
RouteResult real_route2(const GlobalRouter*, const Design&,
                        IncrementalRouteState*) PB_REAL(SYM_ROUTE2);
RouteResult wrap_route2(const GlobalRouter*, const Design&,
                        IncrementalRouteState*) PB_WRAP(SYM_ROUTE2);
RouteResult wrap_route2(const GlobalRouter* self, const Design& d,
                        IncrementalRouteState* state) {
    RouteResult r =
        timed(Layer::Route, [&] { return real_route2(self, d, state); });
    count_route(r);
    return r;
}

#define SYM_PATTERN \
    PB_SYM("_ZN3rdp18pattern_route_intoEiiiiRKNS_14RouteCostModelEiRNS_14PatternScratchERNS_9RoutePathE")
void real_pattern(int, int, int, int, const RouteCostModel&, int,
                  PatternScratch&, RoutePath&) PB_REAL(SYM_PATTERN);
void wrap_pattern(int, int, int, int, const RouteCostModel&, int,
                  PatternScratch&, RoutePath&) PB_WRAP(SYM_PATTERN);
void wrap_pattern(int x0, int y0, int x1, int y1, const RouteCostModel& m,
                  int max_bend_candidates, PatternScratch& scratch,
                  RoutePath& out) {
    {
        const Span s(Layer::Pattern);
        real_pattern(x0, y0, x1, y1, m, max_bend_candidates, scratch, out);
    }
    t_last_pattern = LastPattern{x0, y0, x1, y1, &m, &out};
}

#define SYM_MAZE \
    PB_SYM("_ZN3rdp10maze_routeEiiiiRKNS_14RouteCostModelERKNS_10MazeConfigE")
RoutePath real_maze(int, int, int, int, const RouteCostModel&,
                    const MazeConfig&) PB_REAL(SYM_MAZE);
RoutePath wrap_maze(int, int, int, int, const RouteCostModel&,
                    const MazeConfig&) PB_WRAP(SYM_MAZE);
RoutePath wrap_maze(int x0, int y0, int x1, int y1, const RouteCostModel& m,
                    const MazeConfig& cfg) {
    RoutePath mz = timed(Layer::Maze,
                         [&] { return real_maze(x0, y0, x1, y1, m, cfg); });
    // Search window, clipped to the grid exactly as maze_route clips it.
    const int wx0 = std::max(std::min(x0, x1) - cfg.window_margin, 0);
    const int wy0 = std::max(std::min(y0, y1) - cfg.window_margin, 0);
    const int wx1 = std::min(std::max(x0, x1) + cfg.window_margin,
                             m.cost_h->width() - 1);
    const int wy1 = std::min(std::max(y0, y1) + cfg.window_margin,
                             m.cost_h->height() - 1);
    perfbench::trace::add(Counter::MazeWindowCells,
                          static_cast<double>(wx1 - wx0 + 1) *
                              static_cast<double>(wy1 - wy0 + 1));
    const LastPattern& lp = t_last_pattern;
    if (lp.out != nullptr && lp.model == &m && lp.x0 == x0 && lp.y0 == y0 &&
        lp.x1 == x1 && lp.y1 == y1) {
        perfbench::trace::add(Counter::MazeCompared, 1.0);
        if (!mz.segs.empty() && path_cost(mz, m) < path_cost(*lp.out, m))
            perfbench::trace::add(Counter::MazeAdopted, 1.0);
    }
    return mz;
}

#define SYM_LAYERS \
    PB_SYM("_ZN3rdp13assign_layersERKSt6vectorINS_9LayerSpecESaIS1_EERKNS_6Grid2DIdEES9_S9_S9_")
LayerAssignment real_layers(const std::vector<LayerSpec>&, const GridF&,
                            const GridF&, const GridF&,
                            const GridF&) PB_REAL(SYM_LAYERS);
LayerAssignment wrap_layers(const std::vector<LayerSpec>&, const GridF&,
                            const GridF&, const GridF&,
                            const GridF&) PB_WRAP(SYM_LAYERS);
LayerAssignment wrap_layers(const std::vector<LayerSpec>& specs,
                            const GridF& dem_h, const GridF& dem_v,
                            const GridF& bend_vias, const GridF& pin_vias) {
    return timed(Layer::LayerAssign, [&] {
        return real_layers(specs, dem_h, dem_v, bend_vias, pin_vias);
    });
}

#define SYM_DRV \
    PB_SYM("_ZN3rdp9drv_proxyERKNS_6DesignERKNS_11RouteResultERKNS_14DrvProxyConfigE")
DrvReport real_drv(const Design&, const RouteResult&,
                   const DrvProxyConfig&) PB_REAL(SYM_DRV);
DrvReport wrap_drv(const Design&, const RouteResult&,
                   const DrvProxyConfig&) PB_WRAP(SYM_DRV);
DrvReport wrap_drv(const Design& d, const RouteResult& rr,
                   const DrvProxyConfig& cfg) {
    return timed(Layer::DrvProxy, [&] { return real_drv(d, rr, cfg); });
}

// ---- objective and its terms ------------------------------------------------

#define SYM_OBJECTIVE \
    PB_SYM("_ZNK3rdp18PlacementObjective8evaluateERNS_6DesignERKSt6vectorIiSaIiEERKS3_INS_4Vec2ESaIS8_EERSA_")
ObjectiveTerms real_objective(const PlacementObjective*, Design&,
                              const std::vector<int>&,
                              const std::vector<Vec2>&,
                              std::vector<Vec2>&) PB_REAL(SYM_OBJECTIVE);
ObjectiveTerms wrap_objective(const PlacementObjective*, Design&,
                              const std::vector<int>&,
                              const std::vector<Vec2>&,
                              std::vector<Vec2>&) PB_WRAP(SYM_OBJECTIVE);
ObjectiveTerms wrap_objective(const PlacementObjective* self, Design& d,
                              const std::vector<int>& movable,
                              const std::vector<Vec2>& pos,
                              std::vector<Vec2>& grad) {
    return timed(Layer::Objective, [&] {
        return real_objective(self, d, movable, pos, grad);
    });
}

#define SYM_WA PB_SYM("_ZNK3rdp12WAWirelength8evaluateERKNS_6DesignE")
WirelengthResult real_wa(const WAWirelength*, const Design&) PB_REAL(SYM_WA);
WirelengthResult wrap_wa(const WAWirelength*, const Design&) PB_WRAP(SYM_WA);
WirelengthResult wrap_wa(const WAWirelength* self, const Design& d) {
    return timed(Layer::Wirelength, [&] { return real_wa(self, d); });
}

#define SYM_DENSITY \
    PB_SYM("_ZNK3rdp14ElectroDensity8evaluateERKNS_6DesignEPKSt6vectorIdSaIdEEPKNS_6Grid2DIdEE")
DensityResult real_density(const ElectroDensity*, const Design&,
                           const std::vector<double>*,
                           const GridF*) PB_REAL(SYM_DENSITY);
DensityResult wrap_density(const ElectroDensity*, const Design&,
                           const std::vector<double>*,
                           const GridF*) PB_WRAP(SYM_DENSITY);
DensityResult wrap_density(const ElectroDensity* self, const Design& d,
                           const std::vector<double>* inflation,
                           const GridF* extra) {
    return timed(Layer::Density,
                 [&] { return real_density(self, d, inflation, extra); });
}

#define SYM_POISSON1 PB_SYM("_ZNK3rdp13PoissonSolver5solveERKNS_6Grid2DIdEE")
PoissonSolution real_poisson1(const PoissonSolver*,
                              const GridF&) PB_REAL(SYM_POISSON1);
PoissonSolution wrap_poisson1(const PoissonSolver*,
                              const GridF&) PB_WRAP(SYM_POISSON1);
PoissonSolution wrap_poisson1(const PoissonSolver* self, const GridF& rho) {
    return timed(Layer::Poisson, [&] { return real_poisson1(self, rho); });
}

#define SYM_POISSON2 \
    PB_SYM("_ZNK3rdp13PoissonSolver5solveERKNS_6Grid2DIdEERNS_16PoissonWorkspaceEd")
const PoissonSolution& real_poisson2(const PoissonSolver*, const GridF&,
                                     PoissonWorkspace&,
                                     double) PB_REAL(SYM_POISSON2);
const PoissonSolution& wrap_poisson2(const PoissonSolver*, const GridF&,
                                     PoissonWorkspace&,
                                     double) PB_WRAP(SYM_POISSON2);
const PoissonSolution& wrap_poisson2(const PoissonSolver* self,
                                     const GridF& rho, PoissonWorkspace& ws,
                                     double charge_scale) {
    const Span s(Layer::Poisson);
    return real_poisson2(self, rho, ws, charge_scale);
}

#define SYM_STEP \
    PB_SYM("_ZN3rdp14NesterovSolver4stepERKSt6vectorINS_4Vec2ESaIS2_EERKSt8functionIFS2_mS2_EE")
using Project = std::function<Vec2(size_t, Vec2)>;
void real_step(NesterovSolver*, const std::vector<Vec2>&,
               const Project&) PB_REAL(SYM_STEP);
void wrap_step(NesterovSolver*, const std::vector<Vec2>&,
               const Project&) PB_WRAP(SYM_STEP);
void wrap_step(NesterovSolver* self, const std::vector<Vec2>& grad,
               const Project& project) {
    const Span s(Layer::NesterovStep);
    real_step(self, grad, project);
}

#define SYM_NETMOVE \
    PB_SYM("_ZNK3rdp17NetMovingGradient7computeERKNS_6DesignERKNS_13CongestionMapERKNS_15CongestionFieldE")
NetMovingResult real_netmove(const NetMovingGradient*, const Design&,
                             const CongestionMap&,
                             const CongestionField&) PB_REAL(SYM_NETMOVE);
NetMovingResult wrap_netmove(const NetMovingGradient*, const Design&,
                             const CongestionMap&,
                             const CongestionField&) PB_WRAP(SYM_NETMOVE);
NetMovingResult wrap_netmove(const NetMovingGradient* self, const Design& d,
                             const CongestionMap& cmap,
                             const CongestionField& field) {
    return timed(Layer::NetMove,
                 [&] { return real_netmove(self, d, cmap, field); });
}

#define SYM_FIELD PB_SYM("_ZN3rdp15CongestionField5buildERKNS_13CongestionMapE")
void real_field(CongestionField*, const CongestionMap&) PB_REAL(SYM_FIELD);
void wrap_field(CongestionField*, const CongestionMap&) PB_WRAP(SYM_FIELD);
void wrap_field(CongestionField* self, const CongestionMap& cmap) {
    const Span s(Layer::FieldBuild);
    real_field(self, cmap);
}

// ---- placement stages -------------------------------------------------------

#define SYM_ROUTABILITY \
    PB_SYM("_ZN3rdp21run_routability_stageERNS_6DesignERKSt6vectorIiSaIiEERNS_18PlacementObjectiveERKNS_12PlacerConfigERKS2_INS_6PGRailESaISC_EEiPNS_7recover19DurableCheckpointerEPKNSH_16PipelineSnapshotE")
RoutabilityStats real_routability(
    Design&, const std::vector<int>&, PlacementObjective&, const PlacerConfig&,
    const std::vector<PGRail>&, int, recover::DurableCheckpointer*,
    const recover::PipelineSnapshot*) PB_REAL(SYM_ROUTABILITY);
RoutabilityStats wrap_routability(
    Design&, const std::vector<int>&, PlacementObjective&, const PlacerConfig&,
    const std::vector<PGRail>&, int, recover::DurableCheckpointer*,
    const recover::PipelineSnapshot*) PB_WRAP(SYM_ROUTABILITY);
RoutabilityStats wrap_routability(Design& d, const std::vector<int>& movable,
                                  PlacementObjective& obj,
                                  const PlacerConfig& cfg,
                                  const std::vector<PGRail>& rails,
                                  int first_filler,
                                  recover::DurableCheckpointer* durable,
                                  const recover::PipelineSnapshot* resume) {
    return timed(Layer::Routability, [&] {
        return real_routability(d, movable, obj, cfg, rails, first_filler,
                                durable, resume);
    });
}

#define SYM_TETRIS \
    PB_SYM("_ZN3rdp15tetris_legalizeERNS_6DesignERKNS_12TetrisConfigE")
LegalizeStats real_tetris(Design&, const TetrisConfig&) PB_REAL(SYM_TETRIS);
LegalizeStats wrap_tetris(Design&, const TetrisConfig&) PB_WRAP(SYM_TETRIS);
LegalizeStats wrap_tetris(Design& d, const TetrisConfig& cfg) {
    return timed(Layer::Tetris, [&] { return real_tetris(d, cfg); });
}

#define SYM_ABACUS \
    PB_SYM("_ZN3rdp13abacus_refineERNS_6DesignERKSt6vectorINS_4Vec2ESaIS3_EE")
double real_abacus(Design&, const std::vector<Vec2>&) PB_REAL(SYM_ABACUS);
double wrap_abacus(Design&, const std::vector<Vec2>&) PB_WRAP(SYM_ABACUS);
double wrap_abacus(Design& d, const std::vector<Vec2>& desired) {
    return timed(Layer::Abacus, [&] { return real_abacus(d, desired); });
}

#define SYM_DP \
    PB_SYM("_ZN3rdp14detailed_placeERNS_6DesignERKNS_19DetailedPlaceConfigE")
DetailedPlaceStats real_dp(Design&, const DetailedPlaceConfig&) PB_REAL(SYM_DP);
DetailedPlaceStats wrap_dp(Design&, const DetailedPlaceConfig&) PB_WRAP(SYM_DP);
DetailedPlaceStats wrap_dp(Design& d, const DetailedPlaceConfig& cfg) {
    return timed(Layer::DetailedPlace, [&] { return real_dp(d, cfg); });
}

// ---- invariant audits -------------------------------------------------------

#define SYM_A_LEGAL PB_SYM("_ZN3rdp5audit15check_legalizedERKNS_6DesignEd")
void real_a_legal(const Design&, double) PB_REAL(SYM_A_LEGAL);
void wrap_a_legal(const Design&, double) PB_WRAP(SYM_A_LEGAL);
void wrap_a_legal(const Design& d, double eps) {
    const Span s(Layer::AuditLegalized);
    real_a_legal(d, eps);
}

#define SYM_A_ACCOUNT \
    PB_SYM("_ZN3rdp5audit23check_router_accountingERKNS_6Grid2DIdEES4_S4_RKSt6vectorINS_9RoutePathESaIS6_EES4_S4_")
void real_a_account(const GridF&, const GridF&, const GridF&,
                    const std::vector<RoutePath>&, const GridF&,
                    const GridF&) PB_REAL(SYM_A_ACCOUNT);
void wrap_a_account(const GridF&, const GridF&, const GridF&,
                    const std::vector<RoutePath>&, const GridF&,
                    const GridF&) PB_WRAP(SYM_A_ACCOUNT);
void wrap_a_account(const GridF& dem_h, const GridF& dem_v,
                    const GridF& bend_vias, const std::vector<RoutePath>& paths,
                    const GridF& hist_h, const GridF& hist_v) {
    const Span s(Layer::AuditRouter);
    real_a_account(dem_h, dem_v, bend_vias, paths, hist_h, hist_v);
}

#define SYM_A_INCR \
    PB_SYM("_ZN3rdp5audit23check_incremental_routeERKNS_6Grid2DIdEES4_S4_RKSt6vectorINS_9RoutePathESaIS6_EE")
void real_a_incr(const GridF&, const GridF&, const GridF&,
                 const std::vector<RoutePath>&) PB_REAL(SYM_A_INCR);
void wrap_a_incr(const GridF&, const GridF&, const GridF&,
                 const std::vector<RoutePath>&) PB_WRAP(SYM_A_INCR);
void wrap_a_incr(const GridF& dem_h, const GridF& dem_v,
                 const GridF& bend_vias, const std::vector<RoutePath>& paths) {
    const Span s(Layer::AuditRouter);
    real_a_incr(dem_h, dem_v, bend_vias, paths);
}

#define SYM_A_MASS PB_SYM("_ZN3rdp5audit18check_density_massERKNS_6Grid2DIdEEdd")
void real_a_mass(const GridF&, double, double) PB_REAL(SYM_A_MASS);
void wrap_a_mass(const GridF&, double, double) PB_WRAP(SYM_A_MASS);
void wrap_a_mass(const GridF& density, double expected, double rel_tol) {
    const Span s(Layer::AuditOther);
    real_a_mass(density, expected, rel_tol);
}

#define SYM_A_CMAP PB_SYM("_ZN3rdp5audit20check_congestion_mapERKNS_13CongestionMapE")
void real_a_cmap(const CongestionMap&) PB_REAL(SYM_A_CMAP);
void wrap_a_cmap(const CongestionMap&) PB_WRAP(SYM_A_CMAP);
void wrap_a_cmap(const CongestionMap& cmap) {
    const Span s(Layer::AuditOther);
    real_a_cmap(cmap);
}

#define SYM_A_SPECTRAL \
    PB_SYM("_ZN3rdp5audit21check_spectral_finiteEPKcRKNS_6Grid2DIdEES6_S6_")
void real_a_spectral(const char*, const GridF&, const GridF&,
                     const GridF&) PB_REAL(SYM_A_SPECTRAL);
void wrap_a_spectral(const char*, const GridF&, const GridF&,
                     const GridF&) PB_WRAP(SYM_A_SPECTRAL);
void wrap_a_spectral(const char* what, const GridF& potential,
                     const GridF& field_x, const GridF& field_y) {
    const Span s(Layer::AuditOther);
    real_a_spectral(what, potential, field_x, field_y);
}

#define SYM_A_GRAD \
    PB_SYM("_ZN3rdp5audit22check_gradients_finiteEPKcRKSt6vectorINS_4Vec2ESaIS4_EE")
void real_a_grad(const char*, const std::vector<Vec2>&) PB_REAL(SYM_A_GRAD);
void wrap_a_grad(const char*, const std::vector<Vec2>&) PB_WRAP(SYM_A_GRAD);
void wrap_a_grad(const char* what, const std::vector<Vec2>& grad) {
    const Span s(Layer::AuditOther);
    real_a_grad(what, grad);
}

#define SYM_A_BUDGET \
    PB_SYM("_ZN3rdp5audit22check_inflation_budgetERKNS_6DesignEiRKSt6vectorIdSaIdEEdd")
void real_a_budget(const Design&, int, const std::vector<double>&, double,
                   double) PB_REAL(SYM_A_BUDGET);
void wrap_a_budget(const Design&, int, const std::vector<double>&, double,
                   double) PB_WRAP(SYM_A_BUDGET);
void wrap_a_budget(const Design& d, int first_filler,
                   const std::vector<double>& ratios, double budget,
                   double rel_tol) {
    const Span s(Layer::AuditOther);
    real_a_budget(d, first_filler, ratios, budget, rel_tol);
}

}  // namespace perfbench::wrap
