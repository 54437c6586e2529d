// Tests for the legalization stack: Tetris, Abacus refinement, and greedy
// detailed placement — legality invariants over randomized designs — and
// for the legality scan and the per-row blockage index they share,
// against brute-force references (legality_oracle.hpp).

#include <gtest/gtest.h>

#include "benchgen/generator.hpp"
#include "legal/abacus.hpp"
#include "legal/detailed_place.hpp"
#include "legal/pin_access_refine.hpp"
#include "legal/row_blockages.hpp"
#include "legal/tetris.hpp"
#include "legality_oracle.hpp"
#include "util/rng.hpp"
#include "wirelength/hpwl.hpp"

namespace rdp {
namespace {

Design random_design(int cells, double util, uint64_t seed, int macros = 0) {
    GeneratorConfig cfg;
    cfg.name = "legal-test";
    cfg.seed = seed;
    cfg.num_cells = cells;
    cfg.num_macros = macros;
    cfg.macro_area_frac = macros > 0 ? 0.12 : 0.0;
    cfg.utilization = util;
    cfg.num_ios = 8;
    return generate_circuit(cfg);
}

TEST(TetrisTest, ProducesLegalPlacement) {
    Design d = random_design(400, 0.6, 11);
    const LegalizeStats st = tetris_legalize(d);
    EXPECT_EQ(st.cells_failed, 0);
    EXPECT_EQ(st.cells_placed, 400);
    EXPECT_TRUE(is_legal(d));
}

class TetrisSweep
    : public ::testing::TestWithParam<std::tuple<int, double, int>> {};

TEST_P(TetrisSweep, LegalAcrossUtilizationsAndMacros) {
    const auto [cells, util, macros] = GetParam();
    Design d = random_design(cells, util, 100 + cells + macros, macros);
    const LegalizeStats st = tetris_legalize(d);
    EXPECT_EQ(st.cells_failed, 0);
    EXPECT_TRUE(is_legal(d)) << "cells=" << cells << " util=" << util
                             << " macros=" << macros;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, TetrisSweep,
    ::testing::Values(std::make_tuple(100, 0.5, 0),
                      std::make_tuple(300, 0.7, 0),
                      std::make_tuple(300, 0.85, 0),
                      std::make_tuple(500, 0.6, 3),
                      std::make_tuple(500, 0.8, 3),
                      std::make_tuple(800, 0.75, 5)));

TEST(TetrisTest, MacrosUntouched) {
    Design d = random_design(300, 0.6, 12, 3);
    std::vector<Vec2> macro_pos;
    for (int m : d.macro_cells()) macro_pos.push_back(d.cells[m].pos);
    tetris_legalize(d);
    size_t i = 0;
    for (int m : d.macro_cells()) EXPECT_EQ(d.cells[m].pos, macro_pos[i++]);
}

TEST(TetrisTest, SmallDisplacementWhenAlreadySpread) {
    // Cells pre-placed on a regular grid: legalization barely moves them.
    Design d;
    d.region = {0, 0, 100, 80};
    d.row_height = 8;
    d.site_width = 1;
    d.build_rows();
    for (int i = 0; i < 40; ++i) {
        const double x = 5.0 + (i % 8) * 12.0;
        const double y = 4.0 + (i / 8) * 16.0;
        d.add_cell("c" + std::to_string(i), 2, 8, CellKind::Movable, {x, y});
    }
    const LegalizeStats st = tetris_legalize(d);
    EXPECT_TRUE(is_legal(d));
    EXPECT_LT(st.max_displacement, 8.0);
}

TEST(IsLegalTest, DetectsViolations) {
    Design d;
    d.region = {0, 0, 100, 80};
    d.row_height = 8;
    d.site_width = 1;
    d.build_rows();
    d.add_cell("a", 4, 8, CellKind::Movable, {10, 4});   // row 0, site 8
    d.add_cell("b", 4, 8, CellKind::Movable, {12, 4});   // overlaps a
    EXPECT_FALSE(is_legal(d));
    d.cells[1].pos = {14, 4};  // touching, no overlap
    EXPECT_TRUE(is_legal(d));
    d.cells[1].pos = {14.5, 4};  // off site grid
    EXPECT_FALSE(is_legal(d));
    d.cells[1].pos = {14, 6};  // off row grid
    EXPECT_FALSE(is_legal(d));
    d.cells[1].pos = {99, 4};  // sticks out of the region
    EXPECT_FALSE(is_legal(d));
}

/// Empty design with 8-high rows and unit sites.
Design rows_design(double width, double height) {
    Design d;
    d.region = {0, 0, width, height};
    d.row_height = 8;
    d.site_width = 1;
    d.build_rows();
    return d;
}

TEST(IsLegalTest, DetectsOverlapWithCellTallerThanARow) {
    Design d = rows_design(100, 16);
    d.add_cell("tall", 4, 16, CellKind::Movable, {10, 8});   // rows 0-1
    d.add_cell("short", 4, 8, CellKind::Movable, {10, 12});  // row 1
    EXPECT_FALSE(is_legal(d));
    const auto msg = legality_violation(d);
    ASSERT_TRUE(msg.has_value());
    EXPECT_NE(msg->find("overlap in a row by 4"), std::string::npos) << *msg;
    d.cells[1].pos = {14, 12};  // touching the tall cell's right edge
    EXPECT_TRUE(is_legal(d));
}

TEST(TetrisTest, CellTallerThanARowComesOutLegal) {
    // A 4x16 cell among six 4x8 cells on a 40x32 die with 8-high rows: the
    // tall cell needs one x free in both rows it spans, and Abacus and
    // detailed placement must route around it.
    Design d = rows_design(40, 32);
    const int tall = d.add_cell("tall", 4, 16, CellKind::Movable, {10, 8});
    for (int i = 0; i < 6; ++i)
        d.add_cell("s" + std::to_string(i), 4, 8, CellKind::Movable,
                   {9.0 + i, i % 2 == 0 ? 12.0 : 4.0});
    std::vector<Vec2> desired;
    for (const Cell& c : d.cells) desired.push_back(c.pos);
    const LegalizeStats st = tetris_legalize(d);
    EXPECT_EQ(st.cells_failed, 0);
    EXPECT_EQ(st.cells_placed, 7);
    ASSERT_FALSE(legality_violation(d).has_value())
        << *legality_violation(d);
    const Vec2 tall_pos = d.cells[static_cast<size_t>(tall)].pos;

    abacus_refine(d, desired);
    EXPECT_FALSE(legality_violation(d).has_value())
        << *legality_violation(d);
    detailed_place(d);
    EXPECT_FALSE(legality_violation(d).has_value())
        << *legality_violation(d);
    EXPECT_EQ(d.cells[static_cast<size_t>(tall)].pos, tall_pos);
}

TEST(TetrisTest, CellTallerThanARowWithNoRoomIsCountedFailed) {
    // Row 1 is fully blocked, so no x is free in two stacked rows; the
    // single-row cell still finds row 0.
    Design d = rows_design(16, 16);
    d.add_cell("wall", 16, 8, CellKind::Fixed, {8, 12});
    d.add_cell("tall", 4, 16, CellKind::Movable, {6, 8});
    d.add_cell("short", 4, 8, CellKind::Movable, {6, 4});
    const LegalizeStats st = tetris_legalize(d);
    EXPECT_EQ(st.cells_failed, 1);
    EXPECT_EQ(st.cells_placed, 1);
}

TEST(TetrisTest, MixedHeightDesignsStayLegalThroughRefinement) {
    // Every 20th standard cell of a generated design made two or three
    // rows tall: Tetris, Abacus and detailed placement must all keep the
    // placement legal.
    for (uint64_t seed : {31u, 32u, 33u}) {
        Design d = random_design(400, 0.6, seed, 2);
        int k = 0;
        for (Cell& c : d.cells)
            if (c.movable() && k++ % 20 == 0)
                c.height = d.row_height * (k % 40 == 1 ? 3.0 : 2.0);
        std::vector<Vec2> desired;
        for (const Cell& c : d.cells) desired.push_back(c.pos);
        const LegalizeStats st = tetris_legalize(d);
        EXPECT_EQ(st.cells_failed, 0) << "seed " << seed;
        ASSERT_FALSE(legality_violation(d).has_value())
            << "seed " << seed << ": " << *legality_violation(d);
        abacus_refine(d, desired);
        ASSERT_FALSE(legality_violation(d).has_value())
            << "seed " << seed << ": " << *legality_violation(d);
        detailed_place(d);
        EXPECT_FALSE(legality_violation(d).has_value())
            << "seed " << seed << ": " << *legality_violation(d);
    }
}

TEST(IsLegalTest, CellWithinAlignmentToleranceStaysInItsRow) {
    // 5e-4 above row 0 is inside the row-alignment tolerance (1e-4 rows):
    // the cell counts as a row-0 cell and does not meet the row-1 cell.
    Design d = rows_design(100, 16);
    d.add_cell("a", 4, 8, CellKind::Movable, {10, 4 + 5e-4});
    d.add_cell("b", 4, 8, CellKind::Movable, {10, 12});
    EXPECT_TRUE(is_legal(d));
}

TEST(IsLegalTest, MacroSpanningSeveralRows) {
    Design d = rows_design(100, 80);
    d.add_cell("macro", 20, 24, CellKind::Macro, {50, 20});  // rows 1-3
    const int c = d.add_cell("c", 4, 8, CellKind::Movable, {52, 20});
    EXPECT_EQ(legality_violation(d),
              "cell 1 ('c') overlaps fixed cell 0 ('macro')");
    d.cells[c].pos = {58, 28};  // top row of the macro, partly under it
    EXPECT_FALSE(is_legal(d));
    d.cells[c].pos = {62, 20};  // touching its right edge
    EXPECT_TRUE(is_legal(d));
    d.cells[c].pos = {46, 36};  // touching its top edge
    EXPECT_TRUE(is_legal(d));
    d.cells[c].pos = {46, 4};  // touching its bottom edge
    EXPECT_TRUE(is_legal(d));
    d.cells[c].pos = {62 - 5e-7, 20};  // overlap below eps
    EXPECT_TRUE(is_legal(d));
    d.cells[c].pos = {62 - 1e-5, 20};  // overlap above eps
    EXPECT_FALSE(is_legal(d));
}

TEST(IsLegalTest, IoPadsOnTheDieEdge) {
    Design d = rows_design(100, 80);
    d.add_cell("pad_left", 1, 1, CellKind::Fixed, {0, 36});
    d.add_cell("pad_top", 1, 1, CellKind::Fixed, {30, 80});
    const int c = d.add_cell("c", 4, 8, CellKind::Movable, {2, 36});
    EXPECT_EQ(legality_violation(d),
              "cell 2 ('c') overlaps fixed cell 0 ('pad_left')");
    d.cells[c].pos = {3, 36};  // clear of the pad's inner half
    EXPECT_TRUE(is_legal(d));
    d.cells[c].pos = {30, 76};  // top row, under the top pad
    EXPECT_EQ(legality_violation(d),
              "cell 2 ('c') overlaps fixed cell 1 ('pad_top')");
    d.cells[c].pos = {30, 68};
    EXPECT_TRUE(is_legal(d));
}

TEST(IsLegalTest, ReportsSmallestOverlappingFixedCell) {
    // The tall cell meets fixed cell 1 in its bottom row and fixed cell 0
    // in the row above; the message names cell 0 either way.
    Design d = rows_design(100, 32);
    d.add_cell("upper", 2, 8, CellKind::Fixed, {21, 12});  // row 1
    d.add_cell("lower", 2, 8, CellKind::Fixed, {23, 4});   // row 0
    d.add_cell("tall", 8, 16, CellKind::Movable, {22, 8});
    EXPECT_EQ(legality_violation(d),
              "cell 2 ('tall') overlaps fixed cell 0 ('upper')");
}

TEST(IsLegalTest, FixedCellAboveTheTopRow) {
    // A 20-high region holds two 8-high rows; the fixed cell sits in the
    // strip above them and meets only a cell that reaches into the strip.
    Design d = rows_design(100, 20);
    ASSERT_EQ(d.rows.size(), 2u);
    d.add_cell("cap", 4, 3, CellKind::Fixed, {22, 18.5});
    const int c = d.add_cell("c", 4, 12, CellKind::Movable, {22, 14});
    EXPECT_EQ(legality_violation(d),
              "cell 1 ('c') overlaps fixed cell 0 ('cap')");
    d.cells[c].pos = {26, 14};
    EXPECT_TRUE(is_legal(d));
}

TEST(RowBlockagesTest, EachRowMatchesAScanOfEveryCell) {
    std::vector<Design> designs;
    for (uint64_t seed : {41, 42, 43})
        designs.push_back(oracle::legalized_design(seed));
    // Hand-made: a macro over several rows, pads on and past the die edge,
    // a fixed cell above the top row, and fixed cells sharing rows out of
    // x order.
    Design h = rows_design(100, 20);
    h.add_cell("macro", 20, 12, CellKind::Macro, {50, 8});
    h.add_cell("pad", 1, 1, CellKind::Fixed, {100, 8});
    h.add_cell("outside", 2, 2, CellKind::Fixed, {-5, 4});
    h.add_cell("cap", 4, 3, CellKind::Fixed, {22, 18.5});
    h.add_cell("right", 2, 8, CellKind::Fixed, {90, 4});
    h.add_cell("left", 2, 8, CellKind::Fixed, {10, 4});
    h.add_cell("m", 2, 8, CellKind::Movable, {30, 4});
    designs.push_back(h);

    for (const Design& d : designs) {
        const RowBlockages index(d);
        for (size_t r = 0; r < d.rows.size(); ++r) {
            const std::vector<oracle::RowEntry> want = oracle::row_scan(d, r);
            std::vector<oracle::RowEntry> got;
            for (const RowBlockage& f : index.row(r))
                got.push_back({f.cell, f.box.lx, f.box.hx});
            EXPECT_EQ(got, want) << d.name << " row " << r;
            const std::vector<Interval> cuts = index.cuts(r);
            ASSERT_EQ(cuts.size(), want.size());
            for (size_t k = 0; k < cuts.size(); ++k) {
                EXPECT_EQ(cuts[k].lo, want[k].lx);
                EXPECT_EQ(cuts[k].hi, want[k].hx);
            }
        }
    }
}

TEST(IsLegalTest, MatchesBruteForceOnInjectedFaults) {
    int legal = 0, illegal = 0;
    for (uint64_t seed : {31, 32, 33}) {
        const Design base = oracle::legalized_design(seed);
        ASSERT_FALSE(oracle::first_violation(base).has_value());
        Rng rng(seed);
        for (int t = 0; t < 200; ++t) {
            const Design d = oracle::inject(base, rng);
            const std::optional<std::string> want =
                oracle::first_violation(d);
            EXPECT_EQ(is_legal(d), !want.has_value());
            EXPECT_EQ(legality_violation(d), want)
                << "seed " << seed << " trial " << t;
            ++(want ? illegal : legal);
        }
    }
    EXPECT_GT(legal, 0);
    EXPECT_GT(illegal, 0);
}

TEST(AbacusTest, PreservesLegalityAndReducesDisplacement) {
    Design d = random_design(500, 0.7, 13, 2);
    std::vector<Vec2> desired(static_cast<size_t>(d.num_cells()));
    for (int i = 0; i < d.num_cells(); ++i) desired[i] = d.cells[i].pos;
    tetris_legalize(d);
    ASSERT_TRUE(is_legal(d));
    double disp_before = 0.0;
    for (int i : d.movable_cells())
        disp_before += std::abs(d.cells[i].pos.x - desired[i].x);
    const double disp_after = abacus_refine(d, desired);
    EXPECT_TRUE(is_legal(d));
    EXPECT_LE(disp_after, disp_before + 1e-6);
}

TEST(AbacusTest, SingleRowOptimalPacking) {
    // Three same-width cells wanting the same x: Abacus packs them around
    // the target (quadratic-optimal cluster).
    Design d;
    d.region = {0, 0, 100, 8};
    d.row_height = 8;
    d.site_width = 1;
    d.build_rows();
    for (int i = 0; i < 3; ++i)
        d.add_cell("c" + std::to_string(i), 4, 8, CellKind::Movable,
                   {50.0 + i, 4});
    std::vector<Vec2> desired = {{50, 4}, {50, 4}, {50, 4}};
    tetris_legalize(d);
    abacus_refine(d, desired);
    ASSERT_TRUE(is_legal(d));
    // Cluster of width 12 centered near x=50: cells near 44..56.
    std::vector<double> xs;
    for (int i = 0; i < 3; ++i) xs.push_back(d.cells[i].bbox().lx);
    std::sort(xs.begin(), xs.end());
    EXPECT_NEAR(xs[0], 44.0, 2.0);
    EXPECT_NEAR(xs[2], 52.0, 2.0);
}

TEST(DetailedPlaceTest, ReducesHpwlAndKeepsLegality) {
    Design d = random_design(400, 0.65, 14);
    tetris_legalize(d);
    ASSERT_TRUE(is_legal(d));
    const double before = total_hpwl(d);
    const DetailedPlaceStats st = detailed_place(d);
    EXPECT_TRUE(is_legal(d));
    EXPECT_LE(st.hpwl_after, before + 1e-6);
    EXPECT_DOUBLE_EQ(st.hpwl_before, before);
    EXPECT_GT(st.swaps + st.shifts, 0);
}

TEST(DetailedPlaceTest, NoMovesOnOptimalPlacement) {
    // Two disconnected cells, each already at its net's optimum.
    Design d;
    d.region = {0, 0, 64, 8};
    d.row_height = 8;
    d.site_width = 1;
    d.build_rows();
    const int a = d.add_cell("a", 2, 8, CellKind::Movable, {11, 4});
    const int f = d.add_cell("f", 2, 8, CellKind::Fixed, {11, 4});
    (void)f;
    d.cells[1].pos = {31, 4};
    const int n = d.add_net("n");
    d.connect(n, d.add_pin(a, {0, 0}));
    d.connect(n, d.add_pin(1, {0, 0}));
    // Place a at the fixed pin's x already.
    d.cells[0].pos = {31, 4};
    tetris_legalize(d);
    detailed_place(d);
    EXPECT_TRUE(is_legal(d));
}


TEST(PinAccessRefineTest, FlipFreesRailPins) {
    // A cell with its pin at the bottom edge, sitting on a rail along the
    // row boundary: flipping moves the pin to the top, off the rail.
    Design d;
    d.region = {0, 0, 100, 80};
    d.row_height = 8;
    d.site_width = 1;
    d.build_rows();
    const int a = d.add_cell("a", 4, 8, CellKind::Movable, {50, 4});
    d.add_pin(a, {0.0, -3.5});  // near the bottom edge, y = 0.5
    std::vector<PGRail> rails(1);
    rails[0].orient = Orient::Horizontal;
    rails[0].box = {0, -1, 100, 1};  // rail on the y = 0 boundary

    ASSERT_EQ(pins_under_rails(d, a, rails), 1);
    const PinAccessRefineStats st = pin_access_refine(d, rails);
    EXPECT_EQ(st.cells_considered, 1);
    EXPECT_EQ(st.flips, 1);
    EXPECT_EQ(st.pins_freed, 1);
    EXPECT_EQ(pins_under_rails(d, a, rails), 0);
    // Geometry untouched: only the pin offset changed.
    EXPECT_EQ(d.cells[a].pos, Vec2(50, 4));
    EXPECT_DOUBLE_EQ(d.pins[0].offset.y, 3.5);
}

TEST(PinAccessRefineTest, RejectsFlipThatHurtsWirelength) {
    // The flipped pin would move far from its net partner: the HPWL guard
    // must reject the flip.
    Design d;
    d.region = {0, 0, 100, 80};
    d.row_height = 8;
    d.site_width = 1;
    d.build_rows();
    const int a = d.add_cell("a", 4, 8, CellKind::Movable, {50, 4});
    const int pa = d.add_pin(a, {0.0, -3.5});
    const int b = d.add_cell("b", 4, 8, CellKind::Fixed, {50, 0.5});
    const int pb = d.add_pin(b, {0.0, 0.0});
    const int net = d.add_net("n");
    d.connect(net, pa);
    d.connect(net, pb);
    std::vector<PGRail> rails(1);
    rails[0].orient = Orient::Horizontal;
    rails[0].box = {0, -1, 100, 1};

    PinAccessRefineConfig cfg;
    cfg.max_hpwl_increase_frac = 0.0;  // strict: no HPWL growth allowed
    const PinAccessRefineStats st = pin_access_refine(d, rails, cfg);
    EXPECT_EQ(st.flips, 0);
    EXPECT_DOUBLE_EQ(d.pins[0].offset.y, -3.5);  // unchanged
}

TEST(PinAccessRefineTest, SymmetricCellIsFlippedOrNotButNeverWorse) {
    // Property over a generated design: refinement never increases the
    // number of rail-covered pins and never changes cell positions.
    Design d = random_design(300, 0.6, 77);
    tetris_legalize(d);
    std::vector<PGRail> rails;
    for (const PGRail& r : d.pg_rails) rails.push_back(r);
    int before = 0;
    for (int i = 0; i < d.num_cells(); ++i)
        before += pins_under_rails(d, i, rails);
    std::vector<Vec2> pos;
    for (const Cell& c : d.cells) pos.push_back(c.pos);
    const PinAccessRefineStats st = pin_access_refine(d, rails);
    int after = 0;
    for (int i = 0; i < d.num_cells(); ++i)
        after += pins_under_rails(d, i, rails);
    EXPECT_LE(after, before);
    EXPECT_EQ(before - after, st.pins_freed);
    for (int i = 0; i < d.num_cells(); ++i) EXPECT_EQ(d.cells[i].pos, pos[i]);
    EXPECT_TRUE(is_legal(d));
}

class LegalizationPipelineSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LegalizationPipelineSweep, FullPipelineLegalAndNoHpwlBlowup) {
    Design d = random_design(350, 0.72, GetParam(), 2);
    std::vector<Vec2> desired(static_cast<size_t>(d.num_cells()));
    for (int i = 0; i < d.num_cells(); ++i) desired[i] = d.cells[i].pos;
    const double hpwl_gp = total_hpwl(d);
    tetris_legalize(d);
    abacus_refine(d, desired);
    const DetailedPlaceStats st = detailed_place(d);
    EXPECT_TRUE(is_legal(d));
    // Legalization of a random (spread) placement should not blow up HPWL.
    EXPECT_LT(st.hpwl_after, 1.5 * hpwl_gp + 1e3);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LegalizationPipelineSweep,
                         ::testing::Values(21, 22, 23, 24));

}  // namespace
}  // namespace rdp
