#include "util/grid2d.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "util/parallel.hpp"

namespace rdp {

double grid_sum(const GridF& g) {
    return std::accumulate(g.begin(), g.end(), 0.0);
}

double grid_max(const GridF& g) {
    if (g.empty()) return 0.0;
    return *std::max_element(g.begin(), g.end());
}

double grid_mean(const GridF& g) {
    if (g.empty()) return 0.0;
    return grid_sum(g) / static_cast<double>(g.size());
}

void grid_add(GridF& a, const GridF& b) {
    assert(a.width() == b.width() && a.height() == b.height());
    auto it = b.begin();
    for (auto& v : a) v += *it++;
}

void grid_scale(GridF& g, double s) {
    for (auto& v : g) v *= s;
}

void grid_copy_into(const GridF& src, GridF& dst) {
    if (dst.width() != src.width() || dst.height() != src.height())
        dst.resize(src.width(), src.height());
    std::copy(src.begin(), src.end(), dst.begin());
}

namespace {

/// Transpose tile edge: a 32x32 tile of doubles (8 KiB) keeps both the
/// strided reads and the contiguous writes inside L1.
constexpr int kTransposeBlock = 32;

}  // namespace

void grid_transpose_into(const GridF& src, GridF& dst,
                         const double* dst_col_scale) {
    assert(&src != &dst);
    const int w = src.width();
    const int h = src.height();
    if (dst.width() != h || dst.height() != w) dst.resize(h, w);
    if (w == 0 || h == 0) return;

    const int block = kTransposeBlock;
    const int row_blocks = (w + block - 1) / block;
    // Each task owns a band of dst rows; inner tiles keep both the strided
    // src reads and the contiguous dst writes within cache-sized footprints.
    // Every dst element is written exactly once, so the result is identical
    // for any block size and any thread count.
    par::parallel_for(
        static_cast<size_t>(row_blocks), 1, [&](size_t cb, size_t ce) {
            for (size_t rb = cb; rb < ce; ++rb) {
                const int i0 = static_cast<int>(rb) * block;
                const int i1 = std::min(i0 + block, w);
                for (int j0 = 0; j0 < h; j0 += block) {
                    const int j1 = std::min(j0 + block, h);
                    for (int i = i0; i < i1; ++i) {
                        double* out = dst.data() +
                                      static_cast<size_t>(i) *
                                          static_cast<size_t>(h);
                        if (dst_col_scale) {
                            for (int j = j0; j < j1; ++j)
                                out[j] = src.at(i, j) * dst_col_scale[j];
                        } else {
                            for (int j = j0; j < j1; ++j)
                                out[j] = src.at(i, j);
                        }
                    }
                }
            }
        });
}

}  // namespace rdp
