#include "router/maze_route.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <ostream>
#include <vector>

namespace rdp {

void write_fingerprint(std::ostream& os, const MazeConfig& c) {
    os << "maze=" << c.window_margin;
}

namespace {

/// Relative shrink of the lower bound, so that rounding in the bound or in
/// f = g + h can never make it inconsistent.
constexpr double kShrink = 1.0 - 1e-6;
/// Distance of a state no relaxation has reached.
constexpr double kUnreached = std::numeric_limits<double>::max();

/// Search state: cell within the window plus the direction of entry
/// (0 = horizontal, 1 = vertical); turns pay the via cost.
struct QEntry {
    double f;  ///< g + lower bound
    double g;
    int key;  ///< (dir * wh + y * w + x) within the window
};

/// Min-heap order on (f, g, key). A state is pushed again only with a
/// smaller g, so the order is total and the pop sequence does not depend
/// on the heap implementation.
bool pops_after(const QEntry& a, const QEntry& b) {
    if (a.f != b.f) return a.f > b.f;
    if (a.g != b.g) return a.g > b.g;
    return a.key > b.key;
}

struct Step {
    GridIndex cell;
    int dir;
};

/// Search window: the endpoints' bounding box grown by the margin (a
/// negative margin would exclude them, so it counts as 0) and clipped to
/// the grid, with the endpoints in window coordinates.
struct Window {
    int x0, y0, w, h;
    int sx, sy, gx, gy;
};

Window window_of(int x0, int y0, int x1, int y1, const GridF& g,
                 const MazeConfig& cfg) {
    const int margin = std::max(cfg.window_margin, 0);
    Window win;
    win.x0 = std::max(std::min(x0, x1) - margin, 0);
    win.y0 = std::max(std::min(y0, y1) - margin, 0);
    win.w = std::min(std::max(x0, x1) + margin, g.width() - 1) - win.x0 + 1;
    win.h = std::min(std::max(y0, y1) + margin, g.height() - 1) - win.y0 + 1;
    win.sx = x0 - win.x0;
    win.sy = y0 - win.y0;
    win.gx = x1 - win.x0;
    win.gy = y1 - win.y0;
    return win;
}

/// Per-thread search buffers, grown to the largest window seen (at most
/// two states per grid cell) and never shrunk. `mark` stamps the states of
/// the current search: below `open` = unreached, `open` = reached,
/// `open + 1` = settled. Older stamps are all below `open`, so a search
/// starts without refilling `dist`.
struct MazeScratch {
    std::vector<double> dist;
    std::vector<uint32_t> mark;
    uint32_t open = 0;
    std::vector<QEntry> heap;
    std::vector<Step> steps;
    /// Unshrunk relaxed distance to the goal per state, stored line by
    /// line across the exact axis: state (x, y, dir) of a w*h window is at
    /// dir * w * h + x * bound_sx + y * bound_sy.
    std::vector<double> bound;
    int bound_sx = 0, bound_sy = 0;
    std::vector<double> run, run_up, run_down;  ///< fill_bound's line buffers

    void begin(size_t states) {
        if (mark.size() < states) {
            mark.resize(states, 0);
            dist.resize(states);
            bound.resize(states);
        }
        if (open >= std::numeric_limits<uint32_t>::max() - 2) {
            std::fill(mark.begin(), mark.end(), 0u);
            open = 0;
        }
        open += 2;
        heap.clear();
    }

    /// The A* lower bound of state (x, y, dir), in window coordinates.
    double h_of(int x, int y, int dir, size_t wh) const {
        return kShrink *
               bound[dir * wh + static_cast<size_t>(x * bound_sx + y * bound_sy)];
    }
};

/// Fill `s.bound` with each state's exact distance to the goal in the
/// relaxed graph of the file comment. The lines across the exact axis are
/// filled outward from the goal's line; each takes its exact-axis step
/// toward the goal (cell cost plus the neighbour line's distance), then one
/// 1D distance transform along the line: a cross-axis run pays the cross
/// minima of the positions it enters, plus a via to turn onto or off it.
void fill_bound(const RouteCostModel& m, const Window& win, MazeScratch& s) {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    const int w = win.w, h = win.h;
    const size_t wh = static_cast<size_t>(w) * static_cast<size_t>(h);
    const double via = m.via_cost;
    const bool along_x =
        std::abs(win.gx - win.sx) >= std::abs(win.gy - win.sy);
    const int lines = along_x ? w : h;  // lines across the exact axis
    const int n = along_x ? h : w;      // states per line
    const int ga = along_x ? win.gx : win.gy;
    const int gc = along_x ? win.gy : win.gx;
    const int along = along_x ? 0 : 1;  // entry dir of an exact-axis step

    // Exact-axis cell cost of (line a, position c): exact[a * ea + c * ec].
    const GridF& exact_grid = along_x ? *m.cost_h : *m.cost_v;
    const double* exact = &exact_grid.at(win.x0, win.y0);
    const ptrdiff_t ea = along_x ? 1 : exact_grid.width();
    const ptrdiff_t ec = along_x ? exact_grid.width() : 1;

    // Cross minima: the window minimum of the cross-axis cost per position
    // (per row of cost_v, or per column of cost_h), read row by row; then
    // their prefix sums run[k] = min[0] + ... + min[k - 1], so a run from
    // position c up to b costs run[b + 1] - run[c + 1] and one down to b
    // costs run[c] - run[b].
    const GridF& cross_grid = along_x ? *m.cost_v : *m.cost_h;
    s.run.assign(static_cast<size_t>(n) + 1, kInf);
    double* run = s.run.data();
    for (int ly = 0; ly < h; ++ly) {
        const double* row = &cross_grid.at(win.x0, win.y0 + ly);
        if (along_x) {
            double mn = kInf;
            for (int lx = 0; lx < w; ++lx) mn = std::min(mn, row[lx]);
            run[ly + 1] = mn;
        } else {
            for (int lx = 0; lx < w; ++lx)
                run[lx + 1] = std::min(run[lx + 1], row[lx]);
        }
    }
    run[0] = 0.0;
    for (int k = 1; k <= n; ++k) run[k] += run[k - 1];

    double* along_tab = s.bound.data() + static_cast<size_t>(along) * wh;
    double* cross_tab = s.bound.data() + static_cast<size_t>(1 - along) * wh;
    s.run_up.resize(static_cast<size_t>(n));
    s.run_down.resize(static_cast<size_t>(n));
    double* up = s.run_up.data();
    double* down = s.run_down.data();
    // Cross-entered states: the cheapest of leaving the line here (already
    // in v), a run up and a run down; a run that reverses never helps. The
    // two running minima are independent, so one loop carries both.
    auto transform = [&](double* v) {
        double best_up = kInf, best_down = kInf;
        for (int i = 0, c = n - 1; i < n; ++i, --c) {
            best_up = std::min(best_up, v[c] + run[c + 1]);
            best_down = std::min(best_down, v[i] - run[i]);
            up[c] = best_up;
            down[i] = best_down;
        }
        for (int c = 0; c < n; ++c)
            v[c] = std::min(up[c] - run[c + 1], down[c] + run[c]);
    };

    // The goal's line: a cross-axis run to the goal, plus a via for a
    // state entered along the exact axis.
    {
        double* va = along_tab + static_cast<size_t>(ga) * n;
        double* vc = cross_tab + static_cast<size_t>(ga) * n;
        for (int c = 0; c < n; ++c) vc[c] = c == gc ? 0.0 : kInf;
        transform(vc);
        for (int c = 0; c < n; ++c) va[c] = c == gc ? 0.0 : vc[c] + via;
    }
    // Every other line steps toward the goal's line along the exact axis:
    // within the relaxed graph the cross-axis costs do not depend on the
    // line, so a path that steps away from the goal's line never helps.
    auto fill_line = [&](int a, int toward) {
        const double* next = along_tab + static_cast<size_t>(toward) * n;
        const double* cost = exact + toward * ea;
        double* va = along_tab + static_cast<size_t>(a) * n;
        double* vc = cross_tab + static_cast<size_t>(a) * n;
        for (int c = 0; c < n; ++c) {
            va[c] = cost[c * ec] + next[c];
            vc[c] = va[c] + via;
        }
        transform(vc);
        for (int c = 0; c < n; ++c) va[c] = std::min(va[c], vc[c] + via);
    };
    for (int a = ga - 1; a >= 0; --a) fill_line(a, a + 1);
    for (int a = ga + 1; a < lines; ++a) fill_line(a, a - 1);

    s.bound_sx = along_x ? h : 1;
    s.bound_sy = along_x ? 1 : w;
}

}  // namespace

MazeBound maze_lower_bound(int x0, int y0, int x1, int y1,
                           const RouteCostModel& m, const MazeConfig& cfg) {
    const Window win = window_of(x0, y0, x1, y1, *m.cost_h, cfg);
    const size_t wh = static_cast<size_t>(win.w) * static_cast<size_t>(win.h);
    MazeScratch s;
    s.begin(2 * wh);
    fill_bound(m, win, s);
    MazeBound out;
    out.x0 = win.x0;
    out.y0 = win.y0;
    out.width = win.w;
    out.height = win.h;
    out.h.resize(2 * wh);
    for (int dir = 0; dir < 2; ++dir)
        for (int ly = 0; ly < win.h; ++ly)
            for (int lx = 0; lx < win.w; ++lx)
                out.h[dir * wh + static_cast<size_t>(ly * win.w + lx)] =
                    s.h_of(lx, ly, dir, wh);
    return out;
}

RoutePath maze_route(int x0, int y0, int x1, int y1, const RouteCostModel& m,
                     const MazeConfig& cfg) {
    const GridF& ch = *m.cost_h;
    const GridF& cv = *m.cost_v;
    const double via = m.via_cost;

    const Window win = window_of(x0, y0, x1, y1, ch, cfg);
    const int wx0 = win.x0, wy0 = win.y0;
    const int w = win.w, h = win.h;
    const int wh = w * h;
    const int sx = win.sx, sy = win.sy;
    const int gx = win.gx, gy = win.gy;

    thread_local MazeScratch s;
    s.begin(static_cast<size_t>(2 * wh));
    const uint32_t open = s.open, settled = s.open + 1;

    auto cell_cost = [&](int lx, int ly, int dir) {
        return dir == 0 ? ch.at(wx0 + lx, wy0 + ly) : cv.at(wx0 + lx, wy0 + ly);
    };

    fill_bound(m, win, s);

    auto push = [&](int key, double g, int lx, int ly, int dir) {
        s.dist[static_cast<size_t>(key)] = g;
        s.mark[static_cast<size_t>(key)] = open;
        s.heap.push_back(
            {g + s.h_of(lx, ly, dir, static_cast<size_t>(wh)), g, key});
        std::push_heap(s.heap.begin(), s.heap.end(), pops_after);
    };
    for (int dir = 0; dir < 2; ++dir)
        push(dir * wh + sy * w + sx, cell_cost(sx, sy, dir), sx, sy, dir);

    int goal = -1;
    while (!s.heap.empty()) {
        std::pop_heap(s.heap.begin(), s.heap.end(), pops_after);
        const QEntry top = s.heap.back();
        s.heap.pop_back();
        uint32_t& top_mark = s.mark[static_cast<size_t>(top.key)];
        if (top_mark == settled) continue;
        top_mark = settled;
        const int dir = top.key >= wh ? 1 : 0;
        const int rem = top.key - dir * wh;
        const int ly = rem / w, lx = rem % w;
        if (lx == gx && ly == gy) {
            goal = top.key;
            break;
        }
        auto relax = [&](int nx, int ny, int ndir) {
            const int nn = ndir * wh + ny * w + nx;
            const uint32_t mk = s.mark[static_cast<size_t>(nn)];
            if (mk == settled) return;
            const double nd =
                top.g + (cell_cost(nx, ny, ndir) + (ndir != dir ? via : 0.0));
            const double cur =
                mk == open ? s.dist[static_cast<size_t>(nn)] : kUnreached;
            if (nd < cur) push(nn, nd, nx, ny, ndir);
        };
        if (lx + 1 < w) relax(lx + 1, ly, 0);
        if (lx > 0) relax(lx - 1, ly, 0);
        if (ly + 1 < h) relax(lx, ly + 1, 1);
        if (ly > 0) relax(lx, ly - 1, 1);
    }

    RoutePath path;
    if (goal < 0) return path;  // unreachable (cannot happen in-window)

    // Walk back from the goal over settled states. The predecessor is the
    // smallest-key settled neighbour whose distance plus the step cost
    // (summed exactly as the forward pass sums it) gives this state's
    // distance; the candidates are visited in ascending key order. The
    // direction each cell was entered with defines which track it uses.
    s.steps.clear();
    for (int cur = goal;;) {
        const int dir = cur >= wh ? 1 : 0;
        const int rem = cur - dir * wh;
        const int ly = rem / w, lx = rem % w;
        s.steps.push_back({{wx0 + lx, wy0 + ly}, dir});
        if (lx == sx && ly == sy) break;
        // Positive costs make every chain end at the source; the bound only
        // guards against a zero-cost cycle.
        if (s.steps.size() > static_cast<size_t>(2 * wh)) return path;
        const double c = cell_cost(lx, ly, dir);
        const double d = s.dist[static_cast<size_t>(cur)];
        int pred = -1;
        for (int pdir = 0; pdir < 2 && pred < 0; ++pdir) {
            const double step = c + (pdir != dir ? via : 0.0);
            for (const int side : {-1, 1}) {
                const int px = dir == 0 ? lx + side : lx;
                const int py = dir == 0 ? ly : ly + side;
                if (px < 0 || px >= w || py < 0 || py >= h) continue;
                const int pk = pdir * wh + py * w + px;
                if (s.mark[static_cast<size_t>(pk)] == settled &&
                    s.dist[static_cast<size_t>(pk)] + step == d) {
                    pred = pk;
                    break;
                }
            }
        }
        if (pred < 0) return path;  // cannot happen: cur was relaxed
        cur = pred;
    }
    std::reverse(s.steps.begin(), s.steps.end());

    // Merge maximal same-direction runs into spans (single-cell runs keep
    // their direction through RouteSeg::dir).
    const std::vector<Step>& steps = s.steps;
    size_t i = 0;
    while (i < steps.size()) {
        size_t j = i;
        while (j + 1 < steps.size() && steps[j + 1].dir == steps[i].dir) ++j;
        RouteSeg seg;
        seg.x0 = steps[i].cell.ix;
        seg.y0 = steps[i].cell.iy;
        seg.x1 = steps[j].cell.ix;
        seg.y1 = steps[j].cell.iy;
        seg.dir = steps[i].dir == 0 ? Orient::Horizontal : Orient::Vertical;
        path.segs.push_back(seg);
        i = j + 1;
    }
    return path;
}

}  // namespace rdp
