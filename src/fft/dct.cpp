#include "fft/dct.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>
#include <mutex>

#include "fft/dct_kernel.hpp"
#include "fft/fft.hpp"
#include "util/simd.hpp"
#include "util/thread_annotations.hpp"

namespace rdp {

DctPlan::DctPlan(int n) : n_(n), m_(n / 2) {
    assert(is_pow2(n));
    cos_.resize(static_cast<size_t>(n));
    sin_.resize(static_cast<size_t>(n));
    ncos_.resize(static_cast<size_t>(n));
    for (int k = 0; k < n; ++k) {
        const double ang = M_PI * k / (2.0 * n);
        cos_[static_cast<size_t>(k)] = std::cos(ang);
        sin_[static_cast<size_t>(k)] = std::sin(ang);
        ncos_[static_cast<size_t>(k)] = -cos_[static_cast<size_t>(k)];
    }
    if (m_ >= 1) {
        fft_ = &fft_plan(m_);
        wr_.resize(static_cast<size_t>(m_) + 1);
        nwi_.resize(static_cast<size_t>(m_) + 1);
        for (int k = 0; k <= m_; ++k) {
            const double ang = -2.0 * M_PI * k / n;
            wr_[static_cast<size_t>(k)] = {std::cos(ang), std::sin(ang)};
            nwi_[static_cast<size_t>(k)] = -wr_[static_cast<size_t>(k)].imag();
        }
    }
}

namespace {

// The slot array is written only under `mu`; the pointed-to plans are
// immutable after construction, which is what makes handing out references
// past the lock safe (stable addresses, read-only payload).
struct DctPlanCache {
    std::mutex mu;
    std::unique_ptr<DctPlan> plans[32] GUARDED_BY(mu);
};

DctPlanCache& dct_plan_cache() {
    static DctPlanCache cache;
    return cache;
}

}  // namespace

const DctPlan& dct_plan(int n) {
    assert(is_pow2(n));
    DctPlanCache& cache = dct_plan_cache();
    int slot = 0;
    while ((1 << slot) < n) ++slot;
    std::lock_guard<std::mutex> lock(cache.mu);
    if (!cache.plans[slot]) cache.plans[slot] = std::make_unique<DctPlan>(n);
    return *cache.plans[slot];
}

DctWorkspace::DctWorkspace(int n)
    : plan_(&dct_plan(n)),
      buf_(static_cast<size_t>(plan_->m_)),
      vbuf_(static_cast<size_t>(plan_->m_) + 1),
      tmp_(static_cast<size_t>(n)) {}

// Forward DCT-II via Makhoul's even/odd reordering and a half-size complex
// FFT of the reordered *real* sequence v:
//   v[n]     = x[2n]            n = 0..N/2-1
//   v[N-1-n] = x[2n+1]          n = 0..N/2-1
//   X[k]     = Re( e^{-i pi k / (2N)} V[k] ),  V = DFT_N(v)
// V is computed from the M = N/2 point FFT of z[k] = v[2k] + i v[2k+1]:
//   V[k] = E[k] + W^k O[k],  E = (Z[k]+conj(Z[M-k]))/2,
//   O = -i (Z[k]-conj(Z[M-k]))/2,  W = e^{-2 pi i / N},
// with the Hermitian tail V[N-k] = conj(V[k]) folded into the output pass.
// The loop bodies live in fft/dct_kernel.hpp, templated on the SIMD vector
// type; these entry points instantiate the active backend.
void DctWorkspace::dct2(double* x) { dct2_with<simd::VecD>(x); }

// Exact inverse of dct2: rebuild the half spectrum V[0..m] from X using the
// Hermitian symmetry (Z[k] = X[k] - i X[N-k], V[k] = e^{+i pi k/(2N)} Z[k]),
// repack into the M-point spectrum, inverse-FFT, and undo the reordering.
void DctWorkspace::idct2(double* x) { idct2_with<simd::VecD>(x); }

// dct3 is the transpose of dct2. With D = diag(N, N/2, ..., N/2) the DCT-II
// matrix M satisfies M M^T = D, hence M^T a = M^{-1} (D a) = idct2(D a).
void DctWorkspace::dct3(double* x) { dct3_with<simd::VecD>(x); }

// Sine-series evaluation from the cosine-series evaluator via the identity
//   sin(pi k (2n+1)/(2N)) = (-1)^n cos(pi (N-k) (2n+1)/(2N)),
// so idxst(b) = (-1)^n dct3(c) with c[0] = 0 and c[k] = b[N-k] for k >= 1.
// (The k = 0 sine term vanishes; the k = N cosine term also vanishes.)
void DctWorkspace::idxst(double* x) { idxst_with<simd::VecD>(x); }

std::vector<double> dct2(const std::vector<double>& x) {
    std::vector<double> out = x;
    DctWorkspace ws(static_cast<int>(x.size()));
    ws.dct2(out.data());
    return out;
}

std::vector<double> idct2(const std::vector<double>& X) {
    std::vector<double> out = X;
    DctWorkspace ws(static_cast<int>(X.size()));
    ws.idct2(out.data());
    return out;
}

std::vector<double> dct3(const std::vector<double>& a) {
    std::vector<double> out = a;
    DctWorkspace ws(static_cast<int>(a.size()));
    ws.dct3(out.data());
    return out;
}

std::vector<double> idxst(const std::vector<double>& b) {
    std::vector<double> out = b;
    DctWorkspace ws(static_cast<int>(b.size()));
    ws.idxst(out.data());
    return out;
}

namespace naive {

std::vector<double> dct2(const std::vector<double>& x) {
    const int n = static_cast<int>(x.size());
    std::vector<double> out(static_cast<size_t>(n), 0.0);
    for (int k = 0; k < n; ++k)
        for (int i = 0; i < n; ++i)
            out[static_cast<size_t>(k)] +=
                x[static_cast<size_t>(i)] *
                std::cos(M_PI * k * (2 * i + 1) / (2.0 * n));
    return out;
}

std::vector<double> dct3(const std::vector<double>& a) {
    const int n = static_cast<int>(a.size());
    std::vector<double> out(static_cast<size_t>(n), 0.0);
    for (int i = 0; i < n; ++i)
        for (int k = 0; k < n; ++k)
            out[static_cast<size_t>(i)] +=
                a[static_cast<size_t>(k)] *
                std::cos(M_PI * k * (2 * i + 1) / (2.0 * n));
    return out;
}

std::vector<double> idxst(const std::vector<double>& b) {
    const int n = static_cast<int>(b.size());
    std::vector<double> out(static_cast<size_t>(n), 0.0);
    for (int i = 0; i < n; ++i)
        for (int k = 0; k < n; ++k)
            out[static_cast<size_t>(i)] +=
                b[static_cast<size_t>(k)] *
                std::sin(M_PI * k * (2 * i + 1) / (2.0 * n));
    return out;
}

}  // namespace naive

}  // namespace rdp
