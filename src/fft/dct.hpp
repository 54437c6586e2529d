#pragma once
// Fast cosine/sine transforms for real input, planned per size.
// Conventions (unnormalized, N = input length, power of two):
//
//   dct2(x)[k]   = sum_{n=0}^{N-1} x[n] cos(pi k (2n+1) / (2N))
//   dct3(a)[n]   = sum_{k=0}^{N-1} a[k] cos(pi k (2n+1) / (2N))
//   idct2(X)     = exact inverse of dct2 (round-trip identity)
//   idxst(b)[n]  = sum_{k=0}^{N-1} b[k] sin(pi k (2n+1) / (2N))
//
// dct3 evaluates a cosine series at half-integer sample points; idxst
// evaluates the matching sine series. These are exactly the evaluations the
// ePlace spectral Poisson solution needs for the potential (cos x cos) and
// the field components (sin x cos / cos x sin).
//
// Implementation: Makhoul's even/odd reordering turns the DCT-II of N real
// samples into the DFT of a real length-N sequence, which is computed with
// one N/2-point *complex* FFT (pack adjacent reals into one complex value,
// unpack via Hermitian symmetry) — half the transform work of the previous
// N-point complex path. A DctPlan holds the per-size twiddle tables
// (cos/sin(pi k / 2N) output rotations and the e^{-2 pi i k / N} unpack
// factors) plus the cached half-size FftPlan; a DctWorkspace adds the
// per-thread scratch, so transforms run in place with zero allocation.

#include <complex>
#include <vector>

namespace rdp {

class DctWorkspace;

/// Immutable per-size tables shared by every workspace of that size.
/// `dct_plan(n)` returns the process-wide cached instance.
class DctPlan {
public:
    /// n must be a power of two (>= 1).
    explicit DctPlan(int n);

    int size() const { return n_; }

private:
    friend class DctWorkspace;

    int n_;                  ///< transform length
    int m_;                  ///< n / 2 (0 when n == 1)
    const class FftPlan* fft_ = nullptr;  ///< cached m-point plan (n >= 2)
    std::vector<double> cos_;             ///< cos(pi k / (2N)), k < n
    std::vector<double> sin_;             ///< sin(pi k / (2N)), k < n
    std::vector<std::complex<double>> wr_;  ///< e^{-2 pi i k / N}, k <= m
    /// Sign-folded twins for the idct2 vector passes (fft/dct_kernel.hpp):
    /// -cos_[k] and -Im(wr_[k]).
    std::vector<double> ncos_;
    std::vector<double> nwi_;
};

/// Process-wide plan cache (thread-safe; references live forever).
const DctPlan& dct_plan(int n);

/// Allocation-free transform engine for hot loops (the Poisson solver runs
/// seven batched 1D passes per solve, once per placement iteration): one
/// workspace per length, transforms performed in place on caller storage.
/// Not thread-safe per instance — use one workspace per worker.
class DctWorkspace {
public:
    explicit DctWorkspace(int n);

    int size() const { return plan_->size(); }

    void dct2(double* x);   ///< in-place forward DCT-II
    void idct2(double* x);  ///< in-place inverse of dct2
    void dct3(double* x);   ///< in-place cosine-series evaluation
    void idxst(double* x);  ///< in-place sine-series evaluation

    /// Transform bodies templated on the SIMD vector type (defined in
    /// fft/dct_kernel.hpp). The non-template methods above instantiate the
    /// active simd::VecD; tests/benches also instantiate simd::ScalarVecD
    /// and compare bitwise — the reorder/pack/unpack passes are purely
    /// elementwise, so all backends produce identical bits.
    template <typename V>
    void dct2_with(double* x);
    template <typename V>
    void idct2_with(double* x);
    template <typename V>
    void dct3_with(double* x);
    template <typename V>
    void idxst_with(double* x);

private:
    const DctPlan* plan_;  ///< cached, immutable, process-lifetime
    std::vector<std::complex<double>> buf_;  ///< half-length FFT buffer (m)
    std::vector<std::complex<double>> vbuf_;  ///< half spectrum V[0..m]
    std::vector<double> tmp_;                 ///< length-n reorder scratch
};

/// Convenience out-of-place wrappers (tests, benches, one-off callers).
std::vector<double> dct2(const std::vector<double>& x);
std::vector<double> idct2(const std::vector<double>& X);
std::vector<double> dct3(const std::vector<double>& a);
std::vector<double> idxst(const std::vector<double>& b);

/// Reference O(N^2) implementations used for validation in tests.
namespace naive {
std::vector<double> dct2(const std::vector<double>& x);
std::vector<double> dct3(const std::vector<double>& a);
std::vector<double> idxst(const std::vector<double>& b);
}  // namespace naive

}  // namespace rdp
