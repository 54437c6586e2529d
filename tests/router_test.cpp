// Tests for the global routing substrate: net decomposition, pattern
// routing, layer assignment, and the full router's accounting invariants.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <functional>
#include <limits>
#include <queue>
#include <string>
#include <thread>
#include <vector>

#include "benchgen/generator.hpp"
#include "eval/route_metrics.hpp"
#include "place/global_placer.hpp"
#include "router/global_router.hpp"
#include "router/layer_assign.hpp"
#include "router/maze_route.hpp"
#include "router/net_decompose.hpp"
#include "router/pattern_route.hpp"
#include "util/rng.hpp"

namespace rdp {
namespace {

TEST(MstTest, EdgeCountAndConnectivity) {
    Rng rng(5);
    for (int trial = 0; trial < 20; ++trial) {
        const int n = rng.uniform_int(2, 30);
        std::vector<Vec2> pts(static_cast<size_t>(n));
        for (auto& p : pts) p = {rng.uniform(0, 100), rng.uniform(0, 100)};
        const auto edges = manhattan_mst(pts);
        ASSERT_EQ(edges.size(), static_cast<size_t>(n - 1));
        // Union-find connectivity check.
        std::vector<int> parent(static_cast<size_t>(n));
        for (int i = 0; i < n; ++i) parent[i] = i;
        std::function<int(int)> find = [&](int x) {
            return parent[x] == x ? x : parent[x] = find(parent[x]);
        };
        for (const auto& [a, b] : edges) parent[find(a)] = find(b);
        for (int i = 1; i < n; ++i) EXPECT_EQ(find(0), find(i));
    }
}

TEST(MstTest, TrivialCases) {
    EXPECT_TRUE(manhattan_mst({}).empty());
    EXPECT_TRUE(manhattan_mst({{1, 1}}).empty());
    const auto e = manhattan_mst({{0, 0}, {3, 4}});
    ASSERT_EQ(e.size(), 1u);
    EXPECT_DOUBLE_EQ(mst_length({{0, 0}, {3, 4}}), 7.0);
}

TEST(MstTest, ShorterThanStar) {
    // MST length <= star topology from any hub.
    Rng rng(8);
    for (int trial = 0; trial < 10; ++trial) {
        std::vector<Vec2> pts;
        for (int i = 0; i < 12; ++i)
            pts.push_back({rng.uniform(0, 50), rng.uniform(0, 50)});
        double star = 0.0;
        for (size_t i = 1; i < pts.size(); ++i)
            star += std::abs(pts[i].x - pts[0].x) +
                    std::abs(pts[i].y - pts[0].y);
        EXPECT_LE(mst_length(pts), star + 1e-9);
    }
}

TEST(MstTest, CollinearChain) {
    const std::vector<Vec2> pts = {{0, 0}, {10, 0}, {20, 0}, {30, 0}};
    EXPECT_DOUBLE_EQ(mst_length(pts), 30.0);
}

class PatternRouteTest : public ::testing::Test {
protected:
    void SetUp() override {
        cost_h_ = GridF(16, 16, 1.0);
        cost_v_ = GridF(16, 16, 1.0);
        model_ = {&cost_h_, &cost_v_, 1.0};
    }
    GridF cost_h_, cost_v_;
    RouteCostModel model_;
};

/// Every consecutive pair of spans must share a corner: the first span ends
/// where the next begins (offset by one cell in the new direction).
void expect_contiguous(const RoutePath& p, int x0, int y0, int x1, int y1) {
    ASSERT_FALSE(p.segs.empty());
    EXPECT_EQ(p.segs.front().x0, x0);
    EXPECT_EQ(p.segs.front().y0, y0);
    EXPECT_EQ(p.segs.back().x1, x1);
    EXPECT_EQ(p.segs.back().y1, y1);
    for (size_t i = 0; i + 1 < p.segs.size(); ++i) {
        const RouteSeg& a = p.segs[i];
        const RouteSeg& b = p.segs[i + 1];
        const int dx = std::abs(b.x0 - a.x1);
        const int dy = std::abs(b.y0 - a.y1);
        EXPECT_EQ(dx + dy, 1) << "gap between spans " << i << " and " << i + 1;
    }
}

TEST_F(PatternRouteTest, DegenerateSameCell) {
    const RoutePath p = pattern_route(3, 3, 3, 3, model_);
    ASSERT_EQ(p.segs.size(), 1u);
    EXPECT_EQ(p.num_bends(), 0);
    EXPECT_EQ(p.total_cells(), 1);
}

TEST_F(PatternRouteTest, StraightLines) {
    const RoutePath h = pattern_route(2, 5, 9, 5, model_);
    ASSERT_EQ(h.segs.size(), 1u);
    EXPECT_TRUE(h.segs[0].horizontal());
    EXPECT_EQ(h.total_cells(), 8);
    const RoutePath v = pattern_route(4, 1, 4, 12, model_);
    ASSERT_EQ(v.segs.size(), 1u);
    EXPECT_FALSE(v.segs[0].horizontal());
}

TEST_F(PatternRouteTest, LShapeWhenUniform) {
    const RoutePath p = pattern_route(1, 1, 8, 6, model_);
    expect_contiguous(p, 1, 1, 8, 6);
    // With uniform costs an L (one bend) is optimal (fewer via costs).
    EXPECT_EQ(p.num_bends(), 1);
    // Cells covered exactly once: 8 in the horizontal span (x=1..8) plus
    // 5 in the vertical span (y=2..6; the corner is not double-counted).
    EXPECT_EQ(p.total_cells(), 8 + 5);
}

TEST_F(PatternRouteTest, ZShapeAvoidsExpensiveCorner) {
    // Make both L corners very expensive; a Z through the middle wins.
    for (int x = 0; x < 16; ++x) {
        cost_h_.at(x, 1) = 50.0;  // first row horizontal expensive
        cost_h_.at(x, 6) = 50.0;  // last row horizontal expensive
    }
    const RoutePath p = pattern_route(1, 1, 8, 6, model_, 16);
    expect_contiguous(p, 1, 1, 8, 6);
    EXPECT_EQ(p.num_bends(), 2);  // HVH or VHV
}

TEST_F(PatternRouteTest, PicksCheaperL) {
    // Block the horizontal-first corridor; vertical-first L must win.
    for (int x = 0; x < 16; ++x) cost_h_.at(x, 2) = 100.0;
    const RoutePath p = pattern_route(1, 2, 10, 9, model_, 0);
    ASSERT_EQ(p.segs.size(), 2u);
    EXPECT_FALSE(p.segs[0].horizontal());  // vertical first
}

TEST_F(PatternRouteTest, PathCostAccounting) {
    RoutePath p;
    p.segs.push_back(hseg(0, 0, 3));
    p.segs.push_back(vseg(3, 1, 4));
    cost_h_.fill(2.0);
    cost_v_.fill(3.0);
    // 4 horizontal cells * 2 + 4 vertical cells * 3 + 1 bend * via.
    EXPECT_DOUBLE_EQ(path_cost(p, model_), 8.0 + 12.0 + 1.0);
}

TEST(LayerAssignTest, WaterFillingAndOverflowConservation) {
    const std::vector<LayerSpec> specs = {
        {Orient::Horizontal, 4.0},
        {Orient::Vertical, 4.0},
        {Orient::Horizontal, 2.0},
        {Orient::Vertical, 2.0},
    };
    GridF dh(2, 1), dv(2, 1), bv(2, 1), pv(2, 1);
    dh.at(0, 0) = 3.0;   // fits on the first H layer
    dh.at(1, 0) = 10.0;  // overflows the stack: 4 + 6 (rest on top H layer)
    dv.at(0, 0) = 5.0;   // 4 + 1
    const LayerAssignment la = assign_layers(specs, dh, dv, bv, pv);
    EXPECT_DOUBLE_EQ(la.demand[0].at(0, 0), 3.0);
    EXPECT_DOUBLE_EQ(la.demand[2].at(0, 0), 0.0);
    EXPECT_DOUBLE_EQ(la.demand[0].at(1, 0), 4.0);
    EXPECT_DOUBLE_EQ(la.demand[2].at(1, 0), 6.0);
    EXPECT_DOUBLE_EQ(la.demand[1].at(0, 0), 4.0);
    EXPECT_DOUBLE_EQ(la.demand[3].at(0, 0), 1.0);
    // Layer-summed demand equals the 2D input everywhere.
    const GridF sum = la.demand_2d();
    EXPECT_DOUBLE_EQ(sum.at(0, 0), 8.0);
    EXPECT_DOUBLE_EQ(sum.at(1, 0), 10.0);
}

TEST(LayerAssignTest, ViaCounting) {
    const std::vector<LayerSpec> specs = {{Orient::Horizontal, 8.0},
                                          {Orient::Vertical, 8.0}};
    GridF dh(1, 1), dv(1, 1), bv(1, 1), pv(1, 1);
    bv.at(0, 0) = 3.0;
    pv.at(0, 0) = 7.0;
    const LayerAssignment la = assign_layers(specs, dh, dv, bv, pv);
    EXPECT_EQ(la.total_vias, 10);
}


class MazeRouteTest : public ::testing::Test {
protected:
    void SetUp() override {
        cost_h_ = GridF(24, 24, 1.0);
        cost_v_ = GridF(24, 24, 1.0);
        model_ = {&cost_h_, &cost_v_, 1.0};
    }
    GridF cost_h_, cost_v_;
    RouteCostModel model_;
};

TEST_F(MazeRouteTest, StraightLineOnUniformCosts) {
    const RoutePath p = maze_route(2, 5, 9, 5, model_);
    EXPECT_DOUBLE_EQ(path_cost(p, model_),
                     path_cost(pattern_route(2, 5, 9, 5, model_), model_));
    expect_contiguous(p, 2, 5, 9, 5);
}

TEST_F(MazeRouteTest, DetoursAroundWall) {
    // A near-impassable wall with one gap, placed so that every L and Z
    // between the endpoints crosses it except through the gap at y = 17
    // (outside the endpoints' bounding box -> patterns cannot use it, but
    // inside the maze window of margin 8).
    for (int y = 0; y < 24; ++y) {
        if (y == 17) continue;
        cost_h_.at(12, y) = 1000.0;
        cost_v_.at(12, y) = 1000.0;
    }
    const RoutePath pattern = pattern_route(4, 10, 20, 10, model_, 16);
    const RoutePath maze = maze_route(4, 10, 20, 10, model_);
    expect_contiguous(maze, 4, 10, 20, 10);
    EXPECT_LT(path_cost(maze, model_), path_cost(pattern, model_));
    EXPECT_LT(path_cost(maze, model_), 100.0);  // through the gap
}

TEST_F(MazeRouteTest, NeverWorseThanPatterns) {
    // Property: the maze search space contains every L/Z, so its cost is
    // never higher.
    Rng rng(17);
    for (int trial = 0; trial < 25; ++trial) {
        for (auto& v : cost_h_) v = rng.uniform(0.5, 8.0);
        for (auto& v : cost_v_) v = rng.uniform(0.5, 8.0);
        const int x0 = rng.uniform_int(0, 23), y0 = rng.uniform_int(0, 23);
        const int x1 = rng.uniform_int(0, 23), y1 = rng.uniform_int(0, 23);
        const RoutePath pat = pattern_route(x0, y0, x1, y1, model_, 16);
        const RoutePath mz = maze_route(x0, y0, x1, y1, model_);
        EXPECT_LE(path_cost(mz, model_), path_cost(pat, model_) + 1e-9)
            << "(" << x0 << "," << y0 << ")->(" << x1 << "," << y1 << ")";
        expect_contiguous(mz, x0, y0, x1, y1);
    }
}

TEST_F(MazeRouteTest, WindowClampsSearch) {
    MazeConfig cfg;
    cfg.window_margin = 0;  // search restricted to the endpoints' bbox
    const RoutePath p = maze_route(3, 3, 10, 8, model_, cfg);
    expect_contiguous(p, 3, 3, 10, 8);
    for (const RouteSeg& s : p.segs) {
        EXPECT_GE(std::min(s.x0, s.x1), 3);
        EXPECT_LE(std::max(s.x0, s.x1), 10);
        EXPECT_GE(std::min(s.y0, s.y1), 3);
        EXPECT_LE(std::max(s.y0, s.y1), 8);
    }
}

/// Reference for maze_route: a plain Dijkstra over the same window and
/// (cell, entry direction) states with the documented tie rule. It pops in
/// (distance, key) order with key = (dir, y, x) in window coordinates, ends
/// at the first goal state popped, and rebuilds the path backwards from the
/// smallest-key settled predecessor whose distance plus the step cost gives
/// the state's distance exactly.
RoutePath dijkstra_oracle(int x0, int y0, int x1, int y1,
                          const RouteCostModel& m, int margin) {
    const GridF& ch = *m.cost_h;
    const GridF& cv = *m.cost_v;
    margin = std::max(margin, 0);
    const int wx0 = std::max(std::min(x0, x1) - margin, 0);
    const int wy0 = std::max(std::min(y0, y1) - margin, 0);
    const int wx1 = std::min(std::max(x0, x1) + margin, ch.width() - 1);
    const int wy1 = std::min(std::max(y0, y1) + margin, ch.height() - 1);
    const int w = wx1 - wx0 + 1;
    const int wh = w * (wy1 - wy0 + 1);
    auto key = [&](int x, int y, int dir) {
        return dir * wh + (y - wy0) * w + (x - wx0);
    };
    auto inside = [&](int x, int y) {
        return x >= wx0 && x <= wx1 && y >= wy0 && y <= wy1;
    };
    auto cost = [&](int x, int y, int dir) {
        return dir == 0 ? ch.at(x, y) : cv.at(x, y);
    };
    auto step_cost = [&](int from_dir, int x, int y, int dir) {
        return cost(x, y, dir) + (from_dir != dir ? m.via_cost : 0.0);
    };

    std::vector<double> dist(static_cast<size_t>(2 * wh),
                             std::numeric_limits<double>::max());
    std::vector<char> done(static_cast<size_t>(2 * wh), 0);
    using Item = std::pair<double, int>;
    std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
    for (int dir = 0; dir < 2; ++dir) {
        const int k = key(x0, y0, dir);
        dist[static_cast<size_t>(k)] = cost(x0, y0, dir);
        pq.push({dist[static_cast<size_t>(k)], k});
    }
    int goal = -1;
    while (!pq.empty()) {
        const auto [g, k] = pq.top();
        pq.pop();
        if (done[static_cast<size_t>(k)]) continue;
        done[static_cast<size_t>(k)] = 1;
        const int dir = k / wh;
        const int x = wx0 + k % wh % w, y = wy0 + k % wh / w;
        if (x == x1 && y == y1) {
            goal = k;
            break;
        }
        const int moves[4][2] = {{1, 0}, {-1, 0}, {0, 1}, {0, -1}};
        for (const auto& mv : moves) {
            const int nx = x + mv[0], ny = y + mv[1];
            if (!inside(nx, ny)) continue;
            const int ndir = mv[1] != 0 ? 1 : 0;
            const int nk = key(nx, ny, ndir);
            const double nd = g + step_cost(dir, nx, ny, ndir);
            if (!done[static_cast<size_t>(nk)] &&
                nd < dist[static_cast<size_t>(nk)]) {
                dist[static_cast<size_t>(nk)] = nd;
                pq.push({nd, nk});
            }
        }
    }

    RoutePath path;
    std::vector<std::array<int, 3>> cells;  // (x, y, dir), goal first
    for (int k = goal; k >= 0;) {
        const int dir = k / wh;
        const int x = wx0 + k % wh % w, y = wy0 + k % wh / w;
        cells.push_back({x, y, dir});
        if (x == x0 && y == y0) break;
        int pred = -1;
        for (int pdir = 0; pdir < 2; ++pdir) {
            for (const int side : {-1, 1}) {
                const int px = dir == 0 ? x + side : x;
                const int py = dir == 0 ? y : y + side;
                if (!inside(px, py)) continue;
                const int pk = key(px, py, pdir);
                if (done[static_cast<size_t>(pk)] &&
                    dist[static_cast<size_t>(pk)] +
                            step_cost(pdir, x, y, dir) ==
                        dist[static_cast<size_t>(k)] &&
                    (pred < 0 || pk < pred))
                    pred = pk;
            }
        }
        if (pred < 0) return path;
        k = pred;
    }
    std::reverse(cells.begin(), cells.end());
    for (size_t i = 0; i < cells.size(); ++i) {
        if (i > 0 && cells[i][2] == cells[i - 1][2]) {
            path.segs.back().x1 = cells[i][0];
            path.segs.back().y1 = cells[i][1];
            continue;
        }
        path.segs.push_back({cells[i][0], cells[i][1], cells[i][0],
                             cells[i][1],
                             cells[i][2] == 0 ? Orient::Horizontal
                                              : Orient::Vertical});
    }
    return path;
}

void expect_same_path(const RoutePath& a, const RoutePath& b,
                      const std::string& what) {
    ASSERT_EQ(a.segs.size(), b.segs.size()) << what;
    for (size_t i = 0; i < a.segs.size(); ++i) {
        const RouteSeg& p = a.segs[i];
        const RouteSeg& q = b.segs[i];
        EXPECT_TRUE(p.x0 == q.x0 && p.y0 == q.y0 && p.x1 == q.x1 &&
                    p.y1 == q.y1 && p.dir == q.dir)
            << what << ": span " << i << " (" << p.x0 << "," << p.y0
            << ")-(" << p.x1 << "," << p.y1 << ") vs (" << q.x0 << ","
            << q.y0 << ")-(" << q.x1 << "," << q.y1 << ")";
    }
}

/// Resize the cost grids to a w x h die shaped like the evaluation RRR's
/// history costs: base costs, a congested band three G-cells wide across
/// the x axis (`across_x`, so the band is vertical) or the y axis, open at
/// two gaps, and history spikes up to 1e3 on about 3% of the cells.
/// Integer costs make exact ties common.
void history_field(Rng& rng, int w, int h, bool across_x, bool integer,
                   GridF& ch, GridF& cv) {
    ch = GridF(w, h);
    cv = GridF(w, h);
    auto draw = [&](double lo, double hi) {
        return integer ? static_cast<double>(rng.uniform_int(
                             static_cast<int>(lo), static_cast<int>(hi)))
                       : rng.uniform(lo, hi);
    };
    for (GridF* g : {&ch, &cv})
        for (double& v : *g) v = draw(1.0, 3.0);
    const int len = across_x ? w : h;  // the band's position runs along this
    const int span = across_x ? h : w;
    const int at = len / 2 - 1;
    const int gap1 = rng.uniform_int(0, std::max(span / 2 - 3, 0));
    const int gap2 = rng.uniform_int(span / 2, std::max(span - 3, span / 2));
    for (int i = std::max(at, 0); i < std::min(at + 3, len); ++i) {
        for (int j = 0; j < span; ++j) {
            if ((j >= gap1 && j < gap1 + 3) || (j >= gap2 && j < gap2 + 3))
                continue;
            const int x = across_x ? i : j, y = across_x ? j : i;
            ch.at(x, y) += draw(20.0, 60.0);
            cv.at(x, y) += draw(20.0, 60.0);
        }
    }
    for (GridF* g : {&ch, &cv})
        for (double& v : *g)
            if (rng.uniform(0.0, 1.0) < 0.03) v += draw(100.0, 1000.0);
}

/// Remaining cost from every (cell, entry direction) state of a w x h
/// window to the goal (gx, gy): a Dijkstra from both goal states over the
/// reversed edges. `cost(x, y, dir)` prices entering window cell (x, y) in
/// direction dir; a turn adds `via`. Keys are dir * w * h + y * w + x.
std::vector<double> cost_to_goal(
    int w, int h, int gx, int gy, double via,
    const std::function<double(int, int, int)>& cost) {
    const size_t wh = static_cast<size_t>(w) * h;
    std::vector<double> dist(2 * wh, std::numeric_limits<double>::max());
    std::vector<char> done(2 * wh, 0);
    using Item = std::pair<double, size_t>;
    std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
    for (int dir = 0; dir < 2; ++dir) {
        const size_t k = dir * wh + static_cast<size_t>(gy) * w + gx;
        dist[k] = 0.0;
        pq.push({0.0, k});
    }
    while (!pq.empty()) {
        const auto [d, k] = pq.top();
        pq.pop();
        if (done[k]) continue;
        done[k] = 1;
        // State k = (x, y, dir) was entered from the neighbour behind it
        // along dir, in either direction.
        const int dir = k >= wh ? 1 : 0;
        const int x = static_cast<int>(k % wh % w);
        const int y = static_cast<int>(k % wh / w);
        const double step = cost(x, y, dir);
        for (const int side : {-1, 1}) {
            const int px = dir == 0 ? x + side : x;
            const int py = dir == 0 ? y : y + side;
            if (px < 0 || px >= w || py < 0 || py >= h) continue;
            for (int pdir = 0; pdir < 2; ++pdir) {
                const size_t pk = pdir * wh + static_cast<size_t>(py) * w + px;
                const double nd = d + (step + (pdir != dir ? via : 0.0));
                if (!done[pk] && nd < dist[pk]) {
                    dist[pk] = nd;
                    pq.push({nd, pk});
                }
            }
        }
    }
    return dist;
}

TEST_F(MazeRouteTest, AStarMatchesDijkstraOracle) {
    // Integer-valued costs make exact ties common, so the tie rule (not
    // just the optimal cost) is checked; costs below 1 exercise the bound
    // when it is small against the via cost. Endpoints near the 21x17 die
    // edge clip the margin-8 window.
    const int W = 21, H = 17;
    cost_h_ = GridF(W, H);
    cost_v_ = GridF(W, H);
    Rng rng(2025);
    int compared = 0;
    auto check = [&](int x0, int y0, int x1, int y1, int margin) {
        MazeConfig cfg;
        cfg.window_margin = margin;
        const RoutePath want = dijkstra_oracle(x0, y0, x1, y1, model_, margin);
        ASSERT_FALSE(want.segs.empty());
        expect_same_path(maze_route(x0, y0, x1, y1, model_, cfg), want,
                         "(" + std::to_string(x0) + "," + std::to_string(y0) +
                             ")->(" + std::to_string(x1) + "," +
                             std::to_string(y1) + ") via " +
                             std::to_string(model_.via_cost) + " margin " +
                             std::to_string(margin));
        ++compared;
    };
    for (const bool integer_costs : {true, false}) {
        for (const double via : {0.0, 1.0, 3.0}) {
            model_.via_cost = via;
            for (const int margin : {0, 8}) {
                for (int trial = 0; trial < 40; ++trial) {
                    for (GridF* g : {&cost_h_, &cost_v_})
                        for (double& v : *g)
                            v = integer_costs ? rng.uniform_int(1, 4)
                                              : rng.uniform(0.05, 1.0);
                    int x0 = rng.uniform_int(0, W - 1);
                    int y0 = rng.uniform_int(0, H - 1);
                    int x1 = rng.uniform_int(0, W - 1);
                    int y1 = rng.uniform_int(0, H - 1);
                    const int kind = trial % 5;
                    if (kind == 1 || kind == 3) x1 = x0;  // same cell / column
                    if (kind == 1 || kind == 2) y1 = y0;  // same cell / row
                    if (kind == 4) {  // opposite die corners
                        x0 = 0;
                        y0 = H - 1;
                        x1 = W - 1;
                        y1 = 0;
                    }
                    check(x0, y0, x1, y1, margin);
                }
            }
        }
    }
    // History-shaped fields: long connections (windows of 48+ G-cells)
    // across a congested band open at two gaps, with history spikes, where
    // the bound's cross-axis runs and its turns matter.
    const int LW = 64, LH = 56;
    for (const bool integer_costs : {true, false}) {
        for (const double via : {0.0, 1.0, 3.0}) {
            model_.via_cost = via;
            for (int trial = 0; trial < 10; ++trial) {
                const bool across_x = trial % 2 == 0;
                history_field(rng, LW, LH, across_x, integer_costs, cost_h_,
                              cost_v_);
                const int lo = rng.uniform_int(0, 8);
                const int hi = (across_x ? LW : LH) - 1 - rng.uniform_int(0, 8);
                const int a = rng.uniform_int(0, (across_x ? LH : LW) - 1);
                const int b = rng.uniform_int(0, (across_x ? LH : LW) - 1);
                // Alternate the direction of travel across the band.
                const int from = trial % 4 < 2 ? lo : hi;
                const int to = trial % 4 < 2 ? hi : lo;
                if (across_x)
                    check(from, a, to, b, 8);
                else
                    check(a, from, b, to, 8);
            }
        }
    }
    EXPECT_EQ(compared, 540);
}

TEST_F(MazeRouteTest, BoundIsAdmissibleAndConsistent) {
    // The bound must never exceed the true remaining cost (reverse Dijkstra
    // from the goal over the window) and must be consistent on every edge,
    // h(u) <= c(u,v) + h(v); it must also equal the relaxed graph's exact
    // distance, or the DP has lost the tightness the search relies on.
    Rng rng(1602);
    int checked = 0;
    auto check = [&](int x0, int y0, int x1, int y1, int margin) {
        MazeConfig cfg;
        cfg.window_margin = margin;
        const MazeBound b = maze_lower_bound(x0, y0, x1, y1, model_, cfg);
        const int w = b.width, h = b.height;
        const size_t wh = static_cast<size_t>(w) * h;
        ASSERT_EQ(b.h.size(), 2 * wh);
        const int gx = x1 - b.x0, gy = y1 - b.y0;
        const double via = model_.via_cost;
        auto real = [&](int x, int y, int dir) {
            return dir == 0 ? cost_h_.at(b.x0 + x, b.y0 + y)
                            : cost_v_.at(b.x0 + x, b.y0 + y);
        };
        // Relaxed graph: the dominant axis keeps its costs, a cross-axis
        // step costs the window minimum over the line it enters.
        const bool along_x = std::abs(x1 - x0) >= std::abs(y1 - y0);
        auto relaxed = [&](int x, int y, int dir) {
            if ((dir == 0) == along_x) return real(x, y, dir);
            double mn = std::numeric_limits<double>::max();
            for (int i = 0; i < (along_x ? w : h); ++i)
                mn = std::min(mn, along_x ? real(i, y, 1) : real(x, i, 0));
            return mn;
        };
        const std::vector<double> rem = cost_to_goal(w, h, gx, gy, via, real);
        const std::vector<double> rel =
            cost_to_goal(w, h, gx, gy, via, relaxed);
        const std::string what =
            "(" + std::to_string(x0) + "," + std::to_string(y0) + ")->(" +
            std::to_string(x1) + "," + std::to_string(y1) + ") via " +
            std::to_string(via) + " margin " + std::to_string(margin);
        int bad = 0;
        for (int dir = 0; dir < 2 && bad < 3; ++dir) {
            for (int y = 0; y < h; ++y) {
                for (int x = 0; x < w; ++x) {
                    const size_t u = dir * wh + static_cast<size_t>(y) * w + x;
                    if (!(b.h[u] <= rem[u])) {
                        ADD_FAILURE() << what << ": h(" << x << "," << y
                                      << "," << dir << ") = " << b.h[u]
                                      << " > remaining cost " << rem[u];
                        ++bad;
                    }
                    if (std::abs(b.h[u] - rel[u] * (1.0 - 1e-6)) >
                        1e-9 * rel[u]) {
                        ADD_FAILURE() << what << ": h(" << x << "," << y
                                      << "," << dir << ") = " << b.h[u]
                                      << ", relaxed distance " << rel[u];
                        ++bad;
                    }
                    const int moves[4][2] = {{1, 0}, {-1, 0}, {0, 1}, {0, -1}};
                    for (const auto& mv : moves) {
                        const int nx = x + mv[0], ny = y + mv[1];
                        if (nx < 0 || nx >= w || ny < 0 || ny >= h) continue;
                        const int ndir = mv[1] != 0 ? 1 : 0;
                        const size_t v =
                            ndir * wh + static_cast<size_t>(ny) * w + nx;
                        const double c =
                            real(nx, ny, ndir) + (ndir != dir ? via : 0.0);
                        if (!(b.h[u] <= c + b.h[v])) {
                            ADD_FAILURE()
                                << what << ": h(" << x << "," << y << ","
                                << dir << ") = " << b.h[u] << " > " << c
                                << " + h(" << nx << "," << ny << "," << ndir
                                << ") = " << b.h[v];
                            ++bad;
                        }
                    }
                }
            }
        }
        EXPECT_EQ(b.h[static_cast<size_t>(gy) * w + gx], 0.0) << what;
        EXPECT_EQ(b.h[wh + static_cast<size_t>(gy) * w + gx], 0.0) << what;
        ++checked;
    };
    const int W = 40, H = 32;
    for (const double via : {0.0, 1.0, 3.0}) {
        model_.via_cost = via;
        for (int trial = 0; trial < 12; ++trial) {
            const bool integer_costs = trial % 3 != 0;
            history_field(rng, W, H, trial % 2 == 0, integer_costs, cost_h_,
                          cost_v_);
            // Random and long connections with a margin.
            check(rng.uniform_int(0, W - 1), rng.uniform_int(0, H - 1),
                  rng.uniform_int(0, W - 1), rng.uniform_int(0, H - 1), 8);
            check(rng.uniform_int(0, 5), rng.uniform_int(0, H - 1),
                  rng.uniform_int(W - 6, W - 1), rng.uniform_int(0, H - 1), 8);
            check(rng.uniform_int(0, W - 1), rng.uniform_int(0, 5),
                  rng.uniform_int(0, W - 1), rng.uniform_int(H - 6, H - 1), 8);
            // Goal on the window edge: margin 0 puts it on the bounding
            // box's corner or side; a die-edge goal clips the margin.
            check(rng.uniform_int(0, W - 1), rng.uniform_int(0, H - 1),
                  rng.uniform_int(0, W - 1), rng.uniform_int(0, H - 1), 0);
            check(rng.uniform_int(5, W - 6), rng.uniform_int(5, H - 6),
                  W - 1, rng.uniform_int(0, H - 1), 8);
            check(rng.uniform_int(5, W - 6), rng.uniform_int(5, H - 6),
                  rng.uniform_int(0, W - 1), 0, 3);
            // 1 x n and n x 1 windows.
            const int y = rng.uniform_int(0, H - 1);
            const int x = rng.uniform_int(0, W - 1);
            check(rng.uniform_int(0, W - 1), y, rng.uniform_int(0, W - 1), y,
                  0);
            check(x, rng.uniform_int(0, H - 1), x, rng.uniform_int(0, H - 1),
                  0);
        }
    }
    // A 1-wide and a 1-tall die: windows of one line whatever the margin.
    for (const auto& [dw, dh] : {std::pair{1, 30}, std::pair{30, 1}}) {
        for (const double via : {0.0, 1.0, 3.0}) {
            model_.via_cost = via;
            history_field(rng, dw, dh, true, true, cost_h_, cost_v_);
            check(0, 0, dw - 1, dh - 1, 8);
            check(dw - 1, dh - 1, (dw - 1) / 2, (dh - 1) / 2, 8);
        }
    }
    EXPECT_EQ(checked, 3 * 12 * 8 + 2 * 3 * 2);
}

TEST_F(MazeRouteTest, ScratchReuseIsStateless) {
    // The search buffers are reused per thread: a small window after a
    // large one must not see stale marks or distances, and a large one
    // after a small one must regrow cleanly.
    const int n = 64;
    cost_h_ = GridF(n, n);
    cost_v_ = GridF(n, n);
    Rng rng(404);
    for (GridF* g : {&cost_h_, &cost_v_})
        for (double& v : *g) v = rng.uniform_int(1, 6);
    struct Call {
        int x0, y0, x1, y1;
    };
    const std::vector<Call> calls = {
        {2, 3, 60, 58}, {30, 30, 33, 31}, {61, 5, 4, 57}, {7, 7, 7, 7}};
    auto run = [&](const Call& c) {
        return maze_route(c.x0, c.y0, c.x1, c.y1, model_);
    };
    std::vector<RoutePath> forward;
    for (const Call& c : calls) forward.push_back(run(c));
    for (size_t i = calls.size(); i-- > 0;)
        expect_same_path(run(calls[i]), forward[i],
                         "reversed order, call " + std::to_string(i));
    std::vector<RoutePath> fresh(calls.size());
    std::thread t([&] {
        for (const size_t i : {1u, 3u, 0u, 2u}) fresh[i] = run(calls[i]);
    });
    t.join();
    for (size_t i = 0; i < calls.size(); ++i) {
        expect_same_path(fresh[i], forward[i],
                         "new thread, call " + std::to_string(i));
        expect_same_path(forward[i],
                         dijkstra_oracle(calls[i].x0, calls[i].y0, calls[i].x1,
                                         calls[i].y1, model_, 8),
                         "oracle, call " + std::to_string(i));
    }
}

TEST_F(MazeRouteTest, NegativeMarginClampsToBoundingBox) {
    // A negative margin once built a window that excluded an endpoint (or
    // had a negative size); it now means margin 0.
    Rng rng(9);
    for (auto& v : cost_h_) v = rng.uniform(0.5, 4.0);
    for (auto& v : cost_v_) v = rng.uniform(0.5, 4.0);
    MazeConfig neg, zero;
    neg.window_margin = -5;
    zero.window_margin = 0;
    const int ends[][4] = {{3, 3, 10, 8},
                           {10, 8, 3, 3},
                           {5, 5, 5, 5},
                           {0, 0, 23, 0},
                           {4, 20, 4, 2}};
    for (const auto& e : ends) {
        const RoutePath p = maze_route(e[0], e[1], e[2], e[3], model_, neg);
        expect_contiguous(p, e[0], e[1], e[2], e[3]);
        expect_same_path(p, maze_route(e[0], e[1], e[2], e[3], model_, zero),
                         "margin -5 vs 0");
    }
}

TEST(GlobalRouterTest, MazeFallbackReducesOverflow) {
    GeneratorConfig cfg;
    cfg.name = "congested";
    cfg.seed = 77;
    cfg.num_cells = 800;
    cfg.utilization = 0.85;
    const Design d = generate_circuit(cfg);
    const BinGrid grid(d.region, 32, 32);
    RouterConfig with, without;
    with.maze_fallback = true;
    without.maze_fallback = false;
    const RouteResult a = GlobalRouter(grid, with).route(d);
    const RouteResult b = GlobalRouter(grid, without).route(d);
    // Maze escalation is locally optimal per connection; on a uniformly
    // overloaded design the global overflow lands within a whisker of the
    // pattern-only result (and usually below). Guard against regressions.
    EXPECT_LE(a.total_overflow, b.total_overflow * 1.01 + 1e-9);
    EXPECT_LE(a.wirelength_dbu, b.wirelength_dbu * 1.05);
}

TEST(GlobalRouterTest, PlacerRoutesPatternOnlyEvaluationKeepsMaze) {
    // The congestion estimate inside the placement loop is pattern-only
    // (L/Z plus history-cost RRR), like the paper's estimator; the
    // evaluation route keeps the maze fallback for DRWL/#vias/#DRVs.
    EXPECT_FALSE(PlacerConfig{}.router.maze_fallback);
    EXPECT_TRUE(EvalConfig{}.router.maze_fallback);
    EXPECT_TRUE(RouterConfig{}.maze_fallback);
}

Design routed_design(int cells, uint64_t seed) {
    GeneratorConfig cfg;
    cfg.name = "route-test";
    cfg.seed = seed;
    cfg.num_cells = cells;
    cfg.num_macros = 2;
    cfg.utilization = 0.7;
    return generate_circuit(cfg);
}

TEST(GlobalRouterTest, CapacityMapsRespectBlockages) {
    const Design d = routed_design(600, 21);
    const BinGrid grid(d.region, 32, 32);
    GlobalRouter router(grid);
    GridF cap_h, cap_v;
    router.build_capacity(d, cap_h, cap_v);
    double base_h = 0.0;
    for (const LayerSpec& l : router.effective_layers())
        if (l.dir == Orient::Horizontal) base_h += l.capacity;
    for (int y = 0; y < 32; ++y) {
        for (int x = 0; x < 32; ++x) {
            EXPECT_GE(cap_h.at(x, y), router.config().min_capacity);
            EXPECT_LE(cap_h.at(x, y), base_h + 1e-9);
        }
    }
    // Bins over a macro have reduced capacity.
    const auto macros = d.macro_cells();
    ASSERT_FALSE(macros.empty());
    const GridIndex g = grid.index_of(d.cells[macros[0]].pos);
    EXPECT_LT(cap_v.at(g.ix, g.iy), 0.9 * base_h);
}

TEST(GlobalRouterTest, DemandAccountingConsistent) {
    const Design d = routed_design(500, 22);
    const BinGrid grid(d.region, 32, 32);
    GlobalRouter router(grid);
    const RouteResult rr = router.route(d);
    // Total 2D demand = wire demand + weighted via events.
    const double wire = grid_sum(rr.demand_h) + grid_sum(rr.demand_v);
    const double vias =
        grid_sum(rr.bend_vias) + grid_sum(rr.pin_vias);
    EXPECT_NEAR(grid_sum(rr.congestion.demand()),
                wire + router.config().via_demand_weight * vias, 1e-6);
    // Every pin contributes one pin via.
    EXPECT_NEAR(grid_sum(rr.pin_vias), d.num_pins(), 1e-9);
    // Wirelength is positive and bounded below by MST length scale.
    EXPECT_GT(rr.wirelength_dbu, 0.0);
    EXPECT_GT(rr.num_vias, 0);
}


TEST(GlobalRouterTest, RoutingBlockagesReduceCapacity) {
    Design d = routed_design(200, 33);
    const BinGrid grid(d.region, 16, 16);
    GlobalRouter router(grid);
    GridF ch0, cv0;
    router.build_capacity(d, ch0, cv0);
    // Fully cover one G-cell with a blockage.
    d.routing_blockages.push_back(grid.bin_box(5, 5));
    GridF ch1, cv1;
    router.build_capacity(d, ch1, cv1);
    EXPECT_LT(ch1.at(5, 5), 0.5 * ch0.at(5, 5));
    EXPECT_LT(cv1.at(5, 5), 0.5 * cv0.at(5, 5));
    // Far-away cells unchanged.
    EXPECT_DOUBLE_EQ(ch1.at(12, 12), ch0.at(12, 12));
}

TEST(GlobalRouterTest, Deterministic) {
    const Design d = routed_design(400, 23);
    const BinGrid grid(d.region, 32, 32);
    GlobalRouter router(grid);
    const RouteResult a = router.route(d);
    const RouteResult b = router.route(d);
    EXPECT_EQ(a.wirelength_dbu, b.wirelength_dbu);
    EXPECT_EQ(a.num_vias, b.num_vias);
    EXPECT_EQ(a.total_overflow, b.total_overflow);
    EXPECT_TRUE(a.demand_h == b.demand_h);
}

TEST(GlobalRouterTest, RrrReducesOverflow) {
    // Congested design: rip-up-and-reroute should not increase overflow.
    GeneratorConfig cfg;
    cfg.name = "congested";
    cfg.seed = 77;
    cfg.num_cells = 800;
    cfg.utilization = 0.85;
    const Design d = generate_circuit(cfg);
    const BinGrid grid(d.region, 32, 32);
    RouterConfig rc0;
    rc0.rrr_rounds = 0;
    RouterConfig rc3;
    rc3.rrr_rounds = 3;
    const RouteResult r0 = GlobalRouter(grid, rc0).route(d);
    const RouteResult r3 = GlobalRouter(grid, rc3).route(d);
    EXPECT_LE(r3.total_overflow, r0.total_overflow * 1.001 + 1e-9);
}

TEST(GlobalRouterTest, ClusteredPlacementHasHotterPeak) {
    // The same netlist clustered into a small box concentrates pin and
    // wire demand: the peak G-cell utilization must far exceed the spread
    // placement's (this is the "local congestion" of paper Fig. 1, even
    // though clustering also shortens nets and may lower total demand).
    GeneratorConfig cfg;
    cfg.seed = 31;
    cfg.num_cells = 600;
    Design spread = generate_circuit(cfg);
    Design clustered = spread;
    Rng rng(99);
    const Vec2 c = clustered.region.center();
    for (Cell& cell : clustered.cells) {
        if (!cell.movable()) continue;
        cell.pos = {c.x + rng.uniform(-20, 20), c.y + rng.uniform(-20, 20)};
    }
    const BinGrid grid(spread.region, 32, 32);
    GlobalRouter router(grid);
    const RouteResult rc = router.route(clustered);
    const RouteResult rs = router.route(spread);
    EXPECT_GT(rc.congestion.peak_utilization(),
              1.5 * rs.congestion.peak_utilization());
}

}  // namespace
}  // namespace rdp
