#include "legal/abacus.hpp"

#include <algorithm>
#include <cmath>

#include "legal/row_blockages.hpp"

namespace rdp {

namespace {

struct Cluster {
    double total_weight = 0.0;  ///< e: sum of cell weights
    double q = 0.0;             ///< sum of w_i (x_i' - offset_i)
    double width = 0.0;         ///< total width
    double x = 0.0;             ///< left edge of the cluster
    int first = 0;              ///< index range into the ordered cell list
    int last = 0;
};

}  // namespace

double abacus_refine(Design& d, const std::vector<Vec2>& desired) {
    if (d.rows.empty()) d.build_rows();

    // Free segments per row: subtract the fixed blockages and the movable
    // cells taller than a row, which stay where Tetris put them.
    const int nrows = static_cast<int>(d.rows.size());
    const std::vector<std::vector<Interval>> cuts = refiner_row_cuts(d);
    std::vector<std::vector<Interval>> free_segs(static_cast<size_t>(nrows));
    for (size_t r = 0; r < d.rows.size(); ++r)
        free_segs[r] =
            subtract_intervals({d.rows[r].lx, d.rows[r].hx}, cuts[r]);

    // Bucket the single-row movable cells by row.
    std::vector<std::vector<int>> by_row(static_cast<size_t>(nrows));
    for (int i = 0; i < d.num_cells(); ++i) {
        const Cell& c = d.cells[static_cast<size_t>(i)];
        if (!c.movable() || spanned_rows(c, d.row_height) > 1) continue;
        const int r = std::clamp(
            static_cast<int>(
                std::round((c.bbox().ly - d.region.ly) / d.row_height)),
            0, nrows - 1);
        by_row[static_cast<size_t>(r)].push_back(i);
    }

    double total_disp = 0.0;
    for (int r = 0; r < nrows; ++r) {
        auto& cells = by_row[static_cast<size_t>(r)];
        if (cells.empty()) continue;
        std::sort(cells.begin(), cells.end(), [&](int a, int b) {
            return d.cells[static_cast<size_t>(a)].pos.x <
                   d.cells[static_cast<size_t>(b)].pos.x;
        });

        // Segment boundaries aligned to the site grid (fixed cells such as
        // IO pads can sit at fractional coordinates; the legalized cells
        // always live inside the aligned interior).
        std::vector<Interval> segs;
        for (const Interval& iv : free_segs[static_cast<size_t>(r)]) {
            Interval s;
            s.lo = d.region.lx +
                   std::ceil((iv.lo - d.region.lx) / d.site_width - 1e-9) *
                       d.site_width;
            s.hi = d.region.lx +
                   std::floor((iv.hi - d.region.lx) / d.site_width + 1e-9) *
                       d.site_width;
            if (!s.empty()) segs.push_back(s);
        }
        if (segs.empty()) continue;

        // Distribute cells to free segments by current position, spilling
        // right (then left) when a segment is full.
        std::vector<std::vector<int>> per_seg(segs.size());
        std::vector<double> seg_load(segs.size(), 0.0);
        size_t si = 0;
        for (int ci : cells) {
            const Cell& c = d.cells[static_cast<size_t>(ci)];
            // Advance to the segment containing (or right of) the cell.
            while (si + 1 < segs.size() && segs[si].hi < c.pos.x) ++si;
            size_t target = si;
            // Spill to a segment with room.
            while (target < segs.size() &&
                   seg_load[target] + c.width > segs[target].length() + 1e-9)
                ++target;
            if (target >= segs.size()) {
                target = si;
                while (target > 0 && seg_load[target] + c.width >
                                         segs[target].length() + 1e-9)
                    --target;
            }
            per_seg[target].push_back(ci);
            seg_load[target] += c.width;
        }

        // Abacus cluster algorithm per segment.
        for (size_t s = 0; s < segs.size(); ++s) {
            const auto& list = per_seg[s];
            if (list.empty()) continue;
            const double lo = segs[s].lo, hi = segs[s].hi;
            std::vector<Cluster> stack;
            for (int idx = 0; idx < static_cast<int>(list.size()); ++idx) {
                const Cell& c =
                    d.cells[static_cast<size_t>(list[static_cast<size_t>(idx)])];
                const double want_lx =
                    desired[static_cast<size_t>(list[static_cast<size_t>(idx)])]
                        .x -
                    c.width / 2.0;
                Cluster cl;
                cl.total_weight = 1.0;
                cl.q = want_lx;
                cl.width = c.width;
                cl.first = cl.last = idx;
                cl.x = std::clamp(want_lx, lo, hi - cl.width);
                stack.push_back(cl);
                // Merge while overlapping the predecessor.
                while (stack.size() > 1) {
                    Cluster& prev = stack[stack.size() - 2];
                    Cluster& cur = stack.back();
                    if (prev.x + prev.width <= cur.x + 1e-12) break;
                    prev.q += cur.q - cur.total_weight * prev.width;
                    prev.total_weight += cur.total_weight;
                    prev.width += cur.width;
                    prev.last = cur.last;
                    prev.x = std::clamp(prev.q / prev.total_weight, lo,
                                        std::max(lo, hi - prev.width));
                    stack.pop_back();
                }
            }
            // Write back positions. Segment bounds and cell widths are
            // site-aligned, so snapping the cluster start once keeps every
            // cell aligned; a running cursor rules out any overlap between
            // consecutive clusters.
            double cursor = lo;
            for (const Cluster& cl : stack) {
                double x = d.region.lx +
                           std::floor((cl.x - d.region.lx) / d.site_width +
                                      1e-9) *
                               d.site_width;
                x = std::max(std::min(x, hi - cl.width), cursor);
                for (int idx = cl.first; idx <= cl.last; ++idx) {
                    Cell& c = d.cells[static_cast<size_t>(
                        list[static_cast<size_t>(idx)])];
                    c.pos.x = x + c.width / 2.0;
                    x += c.width;
                    total_disp += std::abs(
                        c.pos.x -
                        desired[static_cast<size_t>(
                                    list[static_cast<size_t>(idx)])]
                            .x);
                }
                cursor = x;
            }
        }
    }
    return total_disp;
}

}  // namespace rdp
