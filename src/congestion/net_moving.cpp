#include "congestion/net_moving.hpp"

#include <cassert>
#include <cmath>
#include <ostream>

#include "congestion/virtual_cell.hpp"
#include "router/net_decompose.hpp"
#include "util/parallel.hpp"

namespace rdp {

void write_fingerprint(std::ostream& os, const NetMovingConfig& c) {
    os << "nm=" << c.multi_pin_congestion_threshold << ":"
       << c.min_virtual_congestion << ":" << c.min_pin_distance_frac << ":"
       << c.max_distance_scale << ":" << c.move_multi_pin_edges << ":"
       << c.max_multi_pin_degree;
}

VirtualCell NetMovingGradient::two_pin_gradient(
    const Design& d, Vec2 p1, Vec2 p2, int cell1, int cell2,
    double virtual_area, const CongestionMap& cmap,
    const CongestionField& field, std::vector<Vec2>& grad) const {
    (void)d;
    // Alg. 1 line 1-2: virtual cell at the most congested candidate point.
    const VirtualCell vc = find_virtual_cell(p1, p2, cmap);
    if (!vc.valid || vc.congestion <= cfg_.min_virtual_congestion) return vc;

    // Alg. 1 line 3: congestion gradient of c_v from the electric field
    // model: grad C_cv = A_v * grad(psi) = -A_v * E.
    const Vec2 grad_cv = field.charge_gradient(vc.pos, virtual_area);
    if (grad_cv.norm2() == 0.0) return vc;

    // Alg. 1 lines 4-5: segment length L and the unit normal n of the
    // segment, oriented to form an acute angle with grad C_cv.
    const Vec2 seg = p2 - p1;
    const double len = seg.norm();
    if (len <= 0.0) return vc;
    Vec2 n = seg.perp() / len;
    if (n.dot(grad_cv) < 0.0) n = n * -1.0;

    // Alg. 1 lines 6-10 / Eq. (9): project the gradient onto n and scale by
    // L / (2 d_iv) per endpoint.
    const Vec2 grad_perp = n * n.dot(grad_cv);
    const double diag =
        std::hypot(cmap.grid().bin_w(), cmap.grid().bin_h());
    const double dmin = cfg_.min_pin_distance_frac * diag;
    const Vec2 pin_pos[2] = {p1, p2};
    const int cells[2] = {cell1, cell2};
    for (int i = 0; i < 2; ++i) {
        const double div = std::max((pin_pos[i] - vc.pos).norm(), dmin);
        const double scale =
            std::min(len / (2.0 * div), cfg_.max_distance_scale);
        grad[static_cast<size_t>(cells[i])] += grad_perp * scale;
    }
    return vc;
}

NetMovingResult NetMovingGradient::compute(const Design& d,
                                           const CongestionMap& cmap,
                                           const CongestionField& field) const {
    assert(field.built());
    NetMovingResult res;
    const size_t num_cells = static_cast<size_t>(d.num_cells());
    res.cell_grad.assign(num_cells, Vec2{});

    // \bar{n}: average number of pins over all cells (Alg. 2 line 1).
    const double avg_pins = d.average_pins_per_cell();
    // Virtual cells have "the same size as a standard cell": use the mean
    // movable cell area of the design. Chunked reduction in fixed order.
    struct AreaAcc {
        double area = 0.0;
        long long n_mov = 0;
        int congested = 0;
    };
    const AreaAcc cells_acc = par::parallel_reduce(
        num_cells, 2048, AreaAcc{},
        [&](size_t b, size_t e) {
            AreaAcc acc;
            for (size_t i = b; i < e; ++i) {
                const Cell& c = d.cells[i];
                if (!c.movable()) continue;
                acc.area += c.area();
                ++acc.n_mov;
                // N_C for the lambda_2 schedule: movable cells in congested
                // G-cells.
                if (cmap.congestion_at_point(c.pos) > 0.0) ++acc.congested;
            }
            return acc;
        },
        [](AreaAcc a, AreaAcc b) {
            a.area += b.area;
            a.n_mov += b.n_mov;
            a.congested += b.congested;
            return a;
        });
    const double virtual_area =
        cells_acc.n_mov > 0 ? cells_acc.area / static_cast<double>(cells_acc.n_mov)
                            : 1.0;
    res.num_congested_cells = cells_acc.congested;

    // Parallel over nets: each chunk accumulates into its own gradient
    // vector and scalar counters; partials merge in fixed chunk order, so
    // the result is bitwise identical for any RDP_THREADS value.
    struct ChunkAcc {
        double penalty = 0.0;
        int virtual_cells = 0;
        int multi_pin = 0;
    };
    // No nets: run_chunks would never invoke the chunk body, leaving the
    // per-chunk accumulators unallocated for the merge below.
    if (d.nets.empty()) return res;
    const par::ChunkPlan cp = par::plan(d.nets.size(), 256, 16);
    std::vector<ChunkAcc> acc(cp.num_chunks);
    std::vector<std::vector<Vec2>> partial(cp.num_chunks);
    par::run_chunks(cp, [&](size_t nb, size_t ne, size_t c) {
        std::vector<Vec2>& grad = partial[c];
        grad.assign(num_cells, Vec2{});
        ChunkAcc& a = acc[c];
        for (size_t ni = nb; ni < ne; ++ni) {
            const Net& net = d.nets[ni];
            // Alg. 2 lines 4-6: two-pin nets get the net-moving gradient.
            if (net.degree() == 2) {
                const int pin1 = net.pins[0];
                const int pin2 = net.pins[1];
                const int c1 = d.pins[pin1].cell;
                const int c2 = d.pins[pin2].cell;
                const Vec2 p1 = d.pin_position(pin1);
                const Vec2 p2 = d.pin_position(pin2);
                // Only movable endpoints can be moved; a net between two
                // fixed cells gets no gradient. Mixed nets still get the
                // pivot so the movable endpoint is pushed.
                if (d.cells[c1].movable() || d.cells[c2].movable()) {
                    const VirtualCell vc =
                        two_pin_gradient(d, p1, p2, c1, c2, virtual_area,
                                         cmap, field, grad);
                    if (vc.valid &&
                        vc.congestion > cfg_.min_virtual_congestion) {
                        ++a.virtual_cells;
                        a.penalty +=
                            0.5 * virtual_area * field.potential_at(vc.pos);
                    }
                }
            }
            // Extension: net moving on the MST edges of multi-pin nets (off
            // by default; the paper's Algorithm 2 only moves selected cells).
            if (cfg_.move_multi_pin_edges && net.degree() >= 3 &&
                net.degree() <= cfg_.max_multi_pin_degree) {
                std::vector<Vec2> pts;
                pts.reserve(net.pins.size());
                for (int pin : net.pins) pts.push_back(d.pin_position(pin));
                const double edge_weight = 1.0 / (net.degree() - 1);
                for (const auto& [i, j] : manhattan_mst(pts)) {
                    const int ci =
                        d.pins[net.pins[static_cast<size_t>(i)]].cell;
                    const int cj =
                        d.pins[net.pins[static_cast<size_t>(j)]].cell;
                    if (!d.cells[static_cast<size_t>(ci)].movable() &&
                        !d.cells[static_cast<size_t>(cj)].movable())
                        continue;
                    // Scale just this edge's contribution: snapshot the two
                    // affected entries instead of clearing a full scratch
                    // grid.
                    const Vec2 gi0 = grad[static_cast<size_t>(ci)];
                    const Vec2 gj0 = grad[static_cast<size_t>(cj)];
                    const VirtualCell vc = two_pin_gradient(
                        d, pts[static_cast<size_t>(i)],
                        pts[static_cast<size_t>(j)], ci, cj, virtual_area,
                        cmap, field, grad);
                    if (!vc.valid ||
                        vc.congestion <= cfg_.min_virtual_congestion) {
                        grad[static_cast<size_t>(ci)] = gi0;
                        grad[static_cast<size_t>(cj)] = gj0;
                        continue;
                    }
                    ++a.virtual_cells;
                    a.penalty += 0.5 * edge_weight * virtual_area *
                                 field.potential_at(vc.pos);
                    auto& gi = grad[static_cast<size_t>(ci)];
                    gi = gi0 + (gi - gi0) * edge_weight;
                    if (cj != ci) {
                        auto& gj = grad[static_cast<size_t>(cj)];
                        gj = gj0 + (gj - gj0) * edge_weight;
                    }
                }
            }

            // Alg. 2 lines 7-15: selected multi-pin cells on this net.
            for (int pin : net.pins) {
                const int ci = d.pins[pin].cell;
                const Cell& cell = d.cells[static_cast<size_t>(ci)];
                if (!cell.movable()) continue;
                const int n_pins = static_cast<int>(cell.pins.size());
                if (static_cast<double>(n_pins) <= avg_pins) continue;
                const double cong = cmap.congestion_at_point(cell.pos);
                if (cong <= cfg_.multi_pin_congestion_threshold) continue;
                grad[static_cast<size_t>(ci)] +=
                    field.charge_gradient(cell.pos, cell.area());
                a.penalty +=
                    0.5 * cell.area() * field.potential_at(cell.pos);
                ++a.multi_pin;
            }
        }
    });

    for (size_t c = 0; c < cp.num_chunks; ++c) {
        res.penalty += acc[c].penalty;
        res.virtual_cells_created += acc[c].virtual_cells;
        res.multi_pin_updates += acc[c].multi_pin;
    }
    // Ordered merge of the per-chunk gradients (fixed cells never move:
    // their gradients stay zero).
    par::parallel_for(num_cells, 4096, [&](size_t b, size_t e) {
        for (size_t i = b; i < e; ++i) {
            if (!d.cells[i].movable()) continue;
            Vec2 g{};
            for (size_t c = 0; c < cp.num_chunks; ++c) g += partial[c][i];
            res.cell_grad[i] = g;
        }
    });
    return res;
}

}  // namespace rdp
