#include "legal/row_blockages.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace rdp {

namespace {

/// The rows whose vertical extent meets the open span (lo, hi), as the
/// index range [first, last) of rows with top > lo and bottom < hi; binary
/// search, relying on the row order RowBlockages requires.
std::pair<size_t, size_t> rows_overlapping(const std::vector<Row>& rows,
                                           double lo, double hi) {
    const auto first = std::partition_point(
        rows.begin(), rows.end(),
        [lo](const Row& r) { return r.y + r.height <= lo; });
    const auto last = std::partition_point(
        first, rows.end(), [hi](const Row& r) { return r.y < hi; });
    return {static_cast<size_t>(first - rows.begin()),
            static_cast<size_t>(last - rows.begin())};
}

}  // namespace

RowBlockages::RowBlockages(const Design& d)
    : row_defs_(d.rows), rows_(d.rows.size()) {
    for (int i = 0; i < d.num_cells(); ++i) {
        const Cell& c = d.cells[static_cast<size_t>(i)];
        if (c.movable()) continue;
        const Rect b = c.bbox();
        bool listed = false;
        const auto [first, last] = rows_overlapping(row_defs_, b.ly, b.hy);
        for (size_t r = first; r < last; ++r) {
            const Row& row = row_defs_[r];
            const Rect row_box{row.lx, row.y, row.hx, row.y + row.height};
            if (!b.intersects(row_box)) continue;
            rows_[r].push_back({i, b});
            listed = true;
        }
        if (!listed) unrowed_.push_back({i, b});
    }
}

std::vector<Interval> RowBlockages::cuts(size_t r) const {
    std::vector<Interval> out;
    out.reserve(rows_[r].size());
    for (const RowBlockage& f : rows_[r]) out.push_back({f.box.lx, f.box.hx});
    return out;
}

int RowBlockages::first_overlap(const Rect& b) const {
    int best = -1;
    // Lists are in cell-index order: the first hit is the list's smallest.
    auto scan = [&](const std::vector<RowBlockage>& list) {
        for (const RowBlockage& f : list) {
            if (best >= 0 && f.cell >= best) return;
            if (!b.intersects(f.box)) continue;
            best = f.cell;
            return;
        }
    };
    const auto [first, last] = rows_overlapping(row_defs_, b.ly, b.hy);
    for (size_t r = first; r < last; ++r) scan(rows_[r]);
    // A fixed cell in no row can only meet `b` above the top row.
    if (!row_defs_.empty() &&
        b.hy > row_defs_.back().y + row_defs_.back().height)
        scan(unrowed_);
    return best;
}

int spanned_rows(const Cell& c, double row_height) {
    return std::max(1, static_cast<int>(
                           std::ceil(c.height / row_height - 2e-4)));
}

std::vector<std::vector<Interval>> refiner_row_cuts(const Design& d) {
    const RowBlockages blockages(d);
    const int nrows = static_cast<int>(d.rows.size());
    std::vector<std::vector<Interval>> out(d.rows.size());
    for (size_t r = 0; r < d.rows.size(); ++r) out[r] = blockages.cuts(r);
    for (const Cell& c : d.cells) {
        if (!c.movable()) continue;
        const int span = spanned_rows(c, d.row_height);
        if (span == 1) continue;
        const Rect b = c.bbox();
        const int r = static_cast<int>(
            std::round((b.ly - d.region.ly) / d.row_height));
        for (int k = std::max(r, 0); k < std::min(r + span, nrows); ++k)
            out[static_cast<size_t>(k)].push_back({b.lx, b.hx});
    }
    return out;
}

}  // namespace rdp
