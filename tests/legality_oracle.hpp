#pragma once
// Brute-force references for the legality tests (legal_test, audit_test):
// a whole-design O(n·N) legality checker and a per-row scan of every cell
// for fixed blockages. They restate the checks without the per-row
// blockage index, so the indexed code can be compared against them.

#include <algorithm>
#include <cmath>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "benchgen/generator.hpp"
#include "db/design.hpp"
#include "legal/abacus.hpp"
#include "legal/detailed_place.hpp"
#include "legal/tetris.hpp"
#include "util/rng.hpp"

namespace rdp::oracle {

/// Fixed cells whose bbox intersects row `r`, found by scanning every cell:
/// (cell index, lx, hx) in cell-index order.
struct RowEntry {
    int cell;
    double lx;
    double hx;
    bool operator==(const RowEntry&) const = default;
};
inline std::vector<RowEntry> row_scan(const Design& d, size_t r) {
    const Row& row = d.rows[r];
    const Rect row_box{row.lx, row.y, row.hx, row.y + row.height};
    std::vector<RowEntry> out;
    for (int i = 0; i < d.num_cells(); ++i) {
        const Cell& c = d.cells[static_cast<size_t>(i)];
        if (c.movable()) continue;
        const Rect b = c.bbox();
        if (b.intersects(row_box)) out.push_back({i, b.lx, b.hx});
    }
    return out;
}

/// First violation of a design whose movable cells are one row tall, in
/// the legality scan's order and wording; every cell is compared with
/// every fixed cell of the design.
inline std::optional<std::string> first_violation(const Design& d,
                                                  double eps = 1e-6) {
    std::ostringstream oss;
    for (int i = 0; i < d.num_cells(); ++i) {
        const Cell& c = d.cells[static_cast<size_t>(i)];
        if (!c.movable()) continue;
        const Rect b = c.bbox();
        if (b.lx < d.region.lx - eps || b.hx > d.region.hx + eps ||
            b.ly < d.region.ly - eps || b.hy > d.region.hy + eps) {
            oss << "cell " << i << " ('" << c.name << "') leaves the region: ["
                << b.lx << ", " << b.ly << ", " << b.hx << ", " << b.hy << "]";
            return oss.str();
        }
        const double row_rel = (b.ly - d.region.ly) / d.row_height;
        if (std::abs(row_rel - std::round(row_rel)) > 1e-4) {
            oss << "cell " << i << " ('" << c.name << "') is not row-aligned:"
                << " bottom edge " << b.ly << " (row height " << d.row_height
                << ")";
            return oss.str();
        }
        const double site_rel = (b.lx - d.region.lx) / d.site_width;
        if (std::abs(site_rel - std::round(site_rel)) > 1e-4) {
            oss << "cell " << i << " ('" << c.name << "') is not site-aligned:"
                << " left edge " << b.lx << " (site width " << d.site_width
                << ")";
            return oss.str();
        }
    }
    const size_t nrows = d.rows.size();
    std::vector<std::vector<int>> by_row(nrows);
    for (int i = 0; i < d.num_cells(); ++i) {
        const Cell& c = d.cells[static_cast<size_t>(i)];
        if (!c.movable()) continue;
        const int r = static_cast<int>(
            std::round((c.bbox().ly - d.region.ly) / d.row_height));
        if (r < 0 || r >= static_cast<int>(nrows)) {
            oss << "cell " << i << " ('" << c.name << "') sits outside the "
                << nrows << " rows (row index " << r << ")";
            return oss.str();
        }
        by_row[static_cast<size_t>(r)].push_back(i);
    }
    for (auto& row : by_row) {
        std::sort(row.begin(), row.end(), [&](int a, int b) {
            return d.cells[static_cast<size_t>(a)].bbox().lx <
                   d.cells[static_cast<size_t>(b)].bbox().lx;
        });
        for (size_t i = 0; i + 1 < row.size(); ++i) {
            const Rect a = d.cells[static_cast<size_t>(row[i])].bbox();
            const Rect b = d.cells[static_cast<size_t>(row[i + 1])].bbox();
            if (a.hx > b.lx + eps) {
                oss << "cells " << row[i] << " ('"
                    << d.cells[static_cast<size_t>(row[i])].name << "') and "
                    << row[i + 1] << " ('"
                    << d.cells[static_cast<size_t>(row[i + 1])].name
                    << "') overlap in a row by " << a.hx - b.lx;
                return oss.str();
            }
        }
        for (int ci : row) {
            const Rect b =
                d.cells[static_cast<size_t>(ci)].bbox().expanded(-eps);
            if (b.empty()) continue;
            for (int fi = 0; fi < d.num_cells(); ++fi) {
                const Cell& f = d.cells[static_cast<size_t>(fi)];
                if (f.movable() || !b.intersects(f.bbox())) continue;
                oss << "cell " << ci << " ('"
                    << d.cells[static_cast<size_t>(ci)].name
                    << "') overlaps fixed cell " << fi << " ('" << f.name
                    << "')";
                return oss.str();
            }
        }
    }
    return std::nullopt;
}

/// A legalized benchgen design with macros and boundary IO pads.
inline Design legalized_design(uint64_t seed, int cells = 400) {
    GeneratorConfig cfg;
    cfg.name = "legality-oracle";
    cfg.seed = seed;
    cfg.num_cells = cells;
    cfg.num_macros = 3;
    cfg.macro_area_frac = 0.12;
    cfg.utilization = 0.7;
    cfg.num_ios = 24;
    Design d = generate_circuit(cfg);
    std::vector<Vec2> desired;
    for (const Cell& c : d.cells) desired.push_back(c.pos);
    tetris_legalize(d);
    abacus_refine(d, desired);
    detailed_place(d);
    return d;
}

/// Copy of `d` with one injected fault, chosen by `rng`: a movable cell
/// moved onto a fixed cell, onto another movable cell, off the row grid,
/// off the site grid, or by whole rows and sites (legal or not); or no
/// change at all.
inline Design inject(const Design& d, Rng& rng) {
    Design out = d;
    const std::vector<int> movable = out.movable_cells();
    std::vector<int> fixed;
    for (int i = 0; i < out.num_cells(); ++i)
        if (!out.cells[static_cast<size_t>(i)].movable()) fixed.push_back(i);
    auto pick = [&rng](const std::vector<int>& v) {
        const int k = rng.uniform_int(0, static_cast<int>(v.size()) - 1);
        return static_cast<size_t>(v[static_cast<size_t>(k)]);
    };
    Cell& c = out.cells[pick(movable)];
    auto snap = [&](double v, double origin, double pitch) {
        return origin + std::round((v - origin) / pitch) * pitch;
    };
    auto place_at = [&](double lx, double ly) {
        lx = snap(std::clamp(lx, out.region.lx, out.region.hx - c.width),
                  out.region.lx, out.site_width);
        ly = snap(std::clamp(ly, out.region.ly, out.region.hy - c.height),
                  out.region.ly, out.row_height);
        c.pos = {lx + c.width / 2.0, ly + c.height / 2.0};
    };
    switch (rng.uniform_int(0, 5)) {
        case 0: {  // onto a fixed cell (macro or pad)
            const Rect f = out.cells[pick(fixed)].bbox();
            place_at(rng.uniform(f.lx - c.width, f.hx),
                     rng.uniform(f.ly - c.height, f.hy));
            break;
        }
        case 1: {  // onto another movable cell, overlapping in x
            const Rect n = out.cells[pick(movable)].bbox();
            place_at(rng.uniform(n.lx - c.width + out.site_width, n.hx),
                     n.ly);
            break;
        }
        case 2:  // off the row grid
            c.pos.y += rng.uniform(0.01, 0.99) * out.row_height;
            break;
        case 3:  // off the site grid
            c.pos.x += rng.uniform(0.01, 0.99) * out.site_width;
            break;
        case 4: {  // by whole sites and rows
            const Rect b = c.bbox();
            place_at(b.lx + rng.uniform_int(-6, 6) * out.site_width,
                     b.ly + rng.uniform_int(-1, 1) * out.row_height);
            break;
        }
        default:
            break;
    }
    return out;
}

}  // namespace rdp::oracle
