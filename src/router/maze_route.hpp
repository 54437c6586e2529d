#pragma once
// Maze (A*) routing fallback. Pattern routing explores only L and Z
// shapes; when a connection still overflows after rip-up-and-reroute, the
// router escalates to a full shortest-path search on the same directional
// cost grids (plus the via cost at every turn), restricted to a window
// around the connection. This mirrors the pattern→maze escalation of
// production global routers.
//
// The search is an exact A* whose result is the path a canonical Dijkstra
// returns, so the path is a function of the cost grids, the via cost and
// the window alone:
//
//  - Nodes are (cell, entry direction) states, keyed (dir, y, x) in window
//    coordinates. The queue pops in (f, g, key) order and the first goal
//    state popped ends the search, so on a tie the path enters the goal
//    horizontally.
//  - The path is rebuilt backwards from the settled distances: each node's
//    predecessor is the settled neighbour with the smallest key whose
//    distance plus the step cost (cell cost + via on a turn) equals the
//    node's distance exactly.
//  - The lower bound h(x,y,dir) is, over the window, the sum of the
//    per-column minima of cost_h between x (exclusive) and the goal column
//    (inclusive), plus the sum of the per-row minima of cost_v between y
//    and the goal row, plus the via cost when a turn is still unavoidable.
//    Every term is shrunk by a relative 1e-6 so floating-point rounding
//    cannot make the bound inconsistent.

#include <iosfwd>

#include "router/pattern_route.hpp"
#include "util/geometry.hpp"

namespace rdp {

struct MazeConfig {
    /// Window margin around the endpoints' bounding box, in G-cells. A
    /// negative margin is treated as 0 (the window is the bounding box).
    int window_margin = 8;
};

/// Write every field of `c` to `os`, at the stream's precision, for the
/// durable-checkpoint fingerprint (DESIGN.md §16). A new field is added
/// here too.
void write_fingerprint(std::ostream& os, const MazeConfig& c);

/// Shortest path from (x0,y0) to (x1,y1) under the cost model, restricted
/// to the window (see the file comment for the tie rule). Cell costs must
/// be positive; the router's are at least 1. Returns an empty path only if
/// the window somehow disconnects the endpoints (cannot happen: the window
/// always contains both endpoints and is rectangular). Search buffers are
/// reused across calls on the same thread, so steady-state calls allocate
/// only the returned path.
RoutePath maze_route(int x0, int y0, int x1, int y1, const RouteCostModel& m,
                     const MazeConfig& cfg = {});

}  // namespace rdp
