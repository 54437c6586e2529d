#include "legal/detailed_place.hpp"

#include <algorithm>
#include <cmath>

#include "legal/row_blockages.hpp"
#include "wirelength/hpwl.hpp"

namespace rdp {

namespace {

/// Weighted HPWL of all nets touching cell ci.
double local_hpwl(const Design& d, int ci) {
    double acc = 0.0;
    for (int pin : d.cells[static_cast<size_t>(ci)].pins) {
        const int net = d.pins[static_cast<size_t>(pin)].net;
        if (net < 0) continue;
        acc += d.nets[static_cast<size_t>(net)].weight *
               net_hpwl(d, d.nets[static_cast<size_t>(net)]);
    }
    return acc;
}

/// Weighted HPWL of the union of nets touching two cells (each net once).
double pair_hpwl(const Design& d, int a, int b) {
    std::vector<int> nets;
    for (int ci : {a, b}) {
        for (int pin : d.cells[static_cast<size_t>(ci)].pins) {
            const int net = d.pins[static_cast<size_t>(pin)].net;
            if (net >= 0) nets.push_back(net);
        }
    }
    std::sort(nets.begin(), nets.end());
    nets.erase(std::unique(nets.begin(), nets.end()), nets.end());
    double acc = 0.0;
    for (int net : nets) {
        acc += d.nets[static_cast<size_t>(net)].weight *
               net_hpwl(d, d.nets[static_cast<size_t>(net)]);
    }
    return acc;
}

}  // namespace

DetailedPlaceStats detailed_place(Design& d, const DetailedPlaceConfig& cfg) {
    DetailedPlaceStats stats;
    stats.hpwl_before = total_hpwl(d);

    if (d.rows.empty()) d.build_rows();
    const int nrows = static_cast<int>(d.rows.size());

    // Blockages per row (macros, pads, and the movable cells taller than a
    // row, which detailed placement leaves in place): moves must not cross
    // them.
    std::vector<std::vector<Interval>> blocked = refiner_row_cuts(d);
    for (size_t r = 0; r < blocked.size(); ++r) {
        std::sort(blocked[r].begin(), blocked[r].end(),
                  [](const Interval& a, const Interval& b) {
                      return a.lo < b.lo;
                  });
    }
    auto span_blocked = [&](int r, double lo, double hi) {
        for (const Interval& b : blocked[static_cast<size_t>(r)]) {
            if (b.lo >= hi) break;
            if (b.hi > lo) return true;
        }
        return false;
    };

    for (int pass = 0; pass < cfg.max_passes; ++pass) {
        // Bucket the single-row movable cells by row, ordered by x.
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
        for (auto& row : by_row) {
            std::sort(row.begin(), row.end(), [&](int a, int b) {
                return d.cells[static_cast<size_t>(a)].pos.x <
                       d.cells[static_cast<size_t>(b)].pos.x;
            });
        }

        int moves_this_pass = 0;

        // Adjacent swaps.
        for (int r = 0; r < nrows; ++r) {
            auto& row = by_row[static_cast<size_t>(r)];
            for (size_t i = 0; i + 1 < row.size(); ++i) {
                const int a = row[i];
                const int b = row[i + 1];
                Cell& ca = d.cells[static_cast<size_t>(a)];
                Cell& cb = d.cells[static_cast<size_t>(b)];
                const double a_lx = ca.bbox().lx;
                const double gap = cb.bbox().lx - ca.bbox().hx;
                if (gap < -1e-9) continue;  // shouldn't happen when legal
                // A fixed blockage between the two cells forbids the swap.
                if (span_blocked(r, a_lx, cb.bbox().hx)) continue;
                const double before = pair_hpwl(d, a, b);
                const Vec2 pa = ca.pos, pb = cb.pos;
                // Swap order: b first, then a after the preserved gap.
                cb.pos.x = a_lx + cb.width / 2.0;
                ca.pos.x = a_lx + cb.width + gap + ca.width / 2.0;
                const double after = pair_hpwl(d, a, b);
                if (after + 1e-9 < before) {
                    ++stats.swaps;
                    ++moves_this_pass;
                    std::swap(row[i], row[i + 1]);
                } else {
                    ca.pos = pa;
                    cb.pos = pb;
                }
            }
        }

        // Gap shifts toward each cell's locally optimal x.
        for (int r = 0; r < nrows; ++r) {
            auto& row = by_row[static_cast<size_t>(r)];
            for (size_t i = 0; i < row.size(); ++i) {
                const int ci = row[i];
                Cell& c = d.cells[static_cast<size_t>(ci)];
                const double lo =
                    (i == 0) ? d.region.lx
                             : d.cells[static_cast<size_t>(row[i - 1])]
                                   .bbox()
                                   .hx;
                const double hi =
                    (i + 1 == row.size())
                        ? d.region.hx
                        : d.cells[static_cast<size_t>(row[i + 1])].bbox().lx;
                if (hi - lo < c.width + d.site_width / 2.0) continue;

                const double before = local_hpwl(d, ci);
                const Vec2 old = c.pos;
                // Target: mean center of connected nets' other pins.
                double target = old.x;
                {
                    double acc = 0.0;
                    int cnt = 0;
                    for (int pin : c.pins) {
                        const int net = d.pins[static_cast<size_t>(pin)].net;
                        if (net < 0) continue;
                        for (int op :
                             d.nets[static_cast<size_t>(net)].pins) {
                            if (d.pins[static_cast<size_t>(op)].cell == ci)
                                continue;
                            acc += d.pin_position(op).x;
                            ++cnt;
                        }
                    }
                    if (cnt > 0) target = acc / cnt;
                }
                double want_lx =
                    std::clamp(target - c.width / 2.0, lo, hi - c.width);
                want_lx = d.region.lx +
                          std::round((want_lx - d.region.lx) / d.site_width) *
                              d.site_width;
                want_lx = std::clamp(want_lx, lo, hi - c.width);
                // Keep site alignment after the clamp.
                const double rel = (want_lx - d.region.lx) / d.site_width;
                if (std::abs(rel - std::round(rel)) > 1e-6) continue;
                // Never move onto a fixed blockage.
                if (span_blocked(r, want_lx, want_lx + c.width)) continue;
                c.pos.x = want_lx + c.width / 2.0;
                const double after = local_hpwl(d, ci);
                if (after + 1e-9 < before) {
                    ++stats.shifts;
                    ++moves_this_pass;
                } else {
                    c.pos = old;
                }
            }
        }

        if (moves_this_pass == 0) break;
    }

    stats.hpwl_after = total_hpwl(d);
    return stats;
}

}  // namespace rdp
