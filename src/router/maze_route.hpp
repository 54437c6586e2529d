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
//  - The lower bound h is the exact distance to the goal in a relaxed
//    graph, times 1 - 1e-6. The connection's dominant axis (x when
//    |dx| >= |dy|, else y), the exact axis, keeps its real cell costs; a
//    step along the cross axis costs the window minimum of the cross-axis
//    cost over the line it enters; turns pay the via cost. Every relaxed
//    edge costs no more than the real one, so h is admissible and
//    consistent. The cross-axis costs do not depend on the position along
//    the exact axis, so a relaxed path never steps away from the goal's
//    line, and one pass over the lines outward from the goal (each a 1D
//    distance transform along the line) computes the distance exactly.
//    The shrink keeps rounding from breaking consistency, and it makes
//    every state on an optimal path settle, with its Dijkstra distance,
//    before the goal pops. The bound therefore changes how many states
//    settle, never the path.

#include <iosfwd>
#include <vector>

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

/// The lower bound maze_route(x0, y0, x1, y1, m, cfg) searches with (see
/// the file comment), for tests: the window origin and size, and h per
/// state at key dir * width * height + (y - y0) * width + (x - x0).
struct MazeBound {
    int x0 = 0, y0 = 0, width = 0, height = 0;
    std::vector<double> h;
};
MazeBound maze_lower_bound(int x0, int y0, int x1, int y1,
                           const RouteCostModel& m, const MazeConfig& cfg = {});

}  // namespace rdp
