#include "router/maze_route.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <ostream>
#include <vector>

namespace rdp {

void write_fingerprint(std::ostream& os, const MazeConfig& c) {
    os << "maze=" << c.window_margin;
}

namespace {

/// Relative shrink of every lower-bound term, so that rounding in the
/// bound or in f = g + h can never make the bound inconsistent.
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
    std::vector<double> hx, hy;  ///< per-column / per-row bound terms
    std::vector<Step> steps;

    void begin(size_t states) {
        if (mark.size() < states) {
            mark.resize(states, 0);
            dist.resize(states);
        }
        if (open >= std::numeric_limits<uint32_t>::max() - 2) {
            std::fill(mark.begin(), mark.end(), 0u);
            open = 0;
        }
        open += 2;
        heap.clear();
    }
};

/// Turn per-line cost minima `v` into shrunk sums of the minima strictly
/// between each line and `goal`, goal line included: v[i] becomes
/// kShrink * sum(v[i+1..goal]) below the goal, kShrink * sum(v[goal..i-1])
/// above it, and 0 at the goal. Each sum accumulates outward from the goal.
void bound_sums(std::vector<double>& v, int goal) {
    const int n = static_cast<int>(v.size());
    for (const int step : {-1, 1}) {
        double acc = 0.0;
        double prev = v[static_cast<size_t>(goal)];
        for (int i = goal + step; i >= 0 && i < n; i += step) {
            acc += prev;
            prev = v[static_cast<size_t>(i)];
            v[static_cast<size_t>(i)] = acc * kShrink;
        }
    }
    v[static_cast<size_t>(goal)] = 0.0;
}

}  // namespace

RoutePath maze_route(int x0, int y0, int x1, int y1, const RouteCostModel& m,
                     const MazeConfig& cfg) {
    const GridF& ch = *m.cost_h;
    const GridF& cv = *m.cost_v;
    const double via = m.via_cost;

    // Window around the endpoints; a negative margin would exclude them.
    const int margin = std::max(cfg.window_margin, 0);
    const int wx0 = std::max(std::min(x0, x1) - margin, 0);
    const int wy0 = std::max(std::min(y0, y1) - margin, 0);
    const int wx1 = std::min(std::max(x0, x1) + margin, ch.width() - 1);
    const int wy1 = std::min(std::max(y0, y1) + margin, ch.height() - 1);
    const int w = wx1 - wx0 + 1;
    const int h = wy1 - wy0 + 1;
    const int wh = w * h;
    // Endpoints in window coordinates.
    const int sx = x0 - wx0, sy = y0 - wy0;
    const int gx = x1 - wx0, gy = y1 - wy0;

    thread_local MazeScratch s;
    s.begin(static_cast<size_t>(2 * wh));
    const uint32_t open = s.open, settled = s.open + 1;

    auto cell_cost = [&](int lx, int ly, int dir) {
        return dir == 0 ? ch.at(wx0 + lx, wy0 + ly) : cv.at(wx0 + lx, wy0 + ly);
    };

    // Lower bound: every remaining column is entered by some horizontal
    // step and every remaining row by some vertical step, each costing at
    // least that line's window minimum; a turn is unavoidable while the
    // cell is off the goal line of its entry direction.
    s.hx.assign(static_cast<size_t>(w), kUnreached);
    s.hy.resize(static_cast<size_t>(h));
    for (int ly = 0; ly < h; ++ly) {
        double row_min = kUnreached;
        for (int lx = 0; lx < w; ++lx) {
            double& col_min = s.hx[static_cast<size_t>(lx)];
            col_min = std::min(col_min, ch.at(wx0 + lx, wy0 + ly));
            row_min = std::min(row_min, cv.at(wx0 + lx, wy0 + ly));
        }
        s.hy[static_cast<size_t>(ly)] = row_min;
    }
    bound_sums(s.hx, gx);
    bound_sums(s.hy, gy);
    const double via_bound = via * kShrink;
    auto bound = [&](int lx, int ly, int dir) {
        const bool turn = dir == 0 ? ly != gy : lx != gx;
        return s.hx[static_cast<size_t>(lx)] + s.hy[static_cast<size_t>(ly)] +
               (turn ? via_bound : 0.0);
    };

    auto push = [&](int key, double g, int lx, int ly, int dir) {
        s.dist[static_cast<size_t>(key)] = g;
        s.mark[static_cast<size_t>(key)] = open;
        s.heap.push_back({g + bound(lx, ly, dir), g, key});
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
