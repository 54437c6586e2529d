#pragma once
// Tetris-style legalization: movable standard cells are processed in
// ascending x order and greedily packed into nearby rows at the first legal
// site at or right of their global-placement position, avoiding fixed cells
// and macros. This is the classic fast legalizer used after electrostatic
// global placement; Abacus (abacus.hpp) then refines each row.

#include <optional>
#include <string>
#include <vector>

#include "db/design.hpp"

namespace rdp {

struct TetrisConfig {
    /// Rows examined around the cell's desired row on each side.
    int row_search_radius = 12;
    /// Weight of vertical displacement vs horizontal in the row-choice cost.
    double vertical_weight = 1.0;
};

struct LegalizeStats {
    int cells_placed = 0;
    int cells_failed = 0;     ///< could not fit (pathological utilization)
    double total_displacement = 0.0;
    double max_displacement = 0.0;
};

/// Legalize all movable cells of `d` in place. A cell taller than a row is
/// placed first, at an x that is free in every row it spans, and counted
/// in `cells_failed` (left where it was) when no such x exists. Returns
/// displacement statistics.
LegalizeStats tetris_legalize(Design& d, const TetrisConfig& cfg = {});

/// The first legality violation of the movable cells, as a message naming
/// the offending cell(s), or nullopt when the placement is legal. Checks,
/// in order: per cell, region containment and row and site alignment; that
/// every cell's bottom row exists; then per row, bottom-up, overlaps
/// between neighbours in x order and overlaps with fixed cells (through
/// the per-row blockage index). A cell taller than a row is checked in
/// every row it spans. Overlaps and misalignments up to `eps` are allowed.
std::optional<std::string> legality_violation(const Design& d,
                                              double eps = 1e-6);

/// True if legality_violation finds nothing: no two movable cells overlap,
/// no movable cell overlaps a fixed cell, and every movable cell sits on a
/// row and site boundary inside the region (tolerance `eps`).
bool is_legal(const Design& d, double eps = 1e-6);

}  // namespace rdp
