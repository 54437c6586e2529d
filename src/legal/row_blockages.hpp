#pragma once
// Per-row index of the fixed cells (macros, IO pads, fixed standard cells)
// that block placement rows: the one source of row blockages for Tetris,
// Abacus and detailed placement, and of the fixed-overlap test in the
// legality scan (legality_violation, tetris.hpp). Built in one pass over
// the fixed cells, each visiting only the rows its bbox spans; a row's list
// equals, entry for entry and in order, a scan of every cell for fixed
// cells whose bbox intersects the row box.

#include <cstddef>
#include <vector>

#include "db/design.hpp"

namespace rdp {

/// One fixed cell cutting a row: its index and its bbox.
struct RowBlockage {
    int cell = -1;
    Rect box;
};

class RowBlockages {
public:
    /// Index the fixed cells of `d` against `d.rows`, which must be sorted
    /// bottom-up with non-decreasing tops, as Design::build_rows makes them.
    explicit RowBlockages(const Design& d);

    /// Fixed cells whose bbox intersects row `r`'s box, in cell-index order.
    const std::vector<RowBlockage>& row(size_t r) const { return rows_[r]; }

    /// Row `r`'s blockages as [lx, hx] intervals, in the same order (the
    /// cuts handed to subtract_intervals).
    std::vector<Interval> cuts(size_t r) const;

    /// Smallest index of a fixed cell whose bbox intersects `b`, or -1.
    /// Consults only the rows `b` spans (plus the fixed cells that touch no
    /// row when `b` reaches above the top row). Equal to a scan of every
    /// fixed cell when the rows tile one rectangle (build_rows), `b` lies
    /// inside the rows' x-extent and its bottom edge inside their y-extent;
    /// a cell that passes the legality scan's region and row checks does.
    int first_overlap(const Rect& b) const;

private:
    std::vector<Row> row_defs_;
    std::vector<std::vector<RowBlockage>> rows_;
    std::vector<RowBlockage> unrowed_;  ///< fixed cells in no row
};

/// Rows a movable cell occupies: 1 for a standard cell, more for a cell
/// taller than a row. Its top edge may reach up to 2e-4 row heights into
/// the next row without occupying it, the tolerance legality_violation
/// (tetris.hpp) uses.
int spanned_rows(const Cell& c, double row_height);

/// Per row, every [lx, hx] interval a single-row movable cell must stay
/// out of: the fixed blockages (RowBlockages::cuts, in its order), then the
/// movable cells that span more than one row, each listed in every row it
/// spans from the bottom row its current position rounds to, in cell-index
/// order. Abacus and detailed placement keep such cells where Tetris put
/// them and refine the single-row cells around them.
std::vector<std::vector<Interval>> refiner_row_cuts(const Design& d);

}  // namespace rdp
