#pragma once
// Definitions of the DctWorkspace transform bodies, templated on the SIMD
// vector type (DESIGN.md §14). The Makhoul even/odd reorder, the spectrum
// pack/unpack twiddle passes, and the dct3/idxst pre/post passes all
// vectorize as elementwise loops; the descending-index accesses
// (buf_[m-k], x[n-k], cos_[n-k]) become reversed vector loads/stores.
//
// Every arithmetic op keeps the scalar op order (mul_add/nmul_add expand to
// separate multiply+add in the default build), so the transforms produce
// bit-identical output on every backend — and identical to the
// pre-vectorization scalar code. Vector groups and tails partition the
// index range as a pure function of the transform size.
//
// The idct2 complex multiplies in the vector loops are written as plain
// adds of products, with the minus signs folded into the plan's negated
// tables (ncos_, nwi_): a - b*c is computed as a + b*(-c), which IEEE
// rounds identically. An interleaved subtract/add of products is what GCC
// turns into vfmaddsub at -O3 — even under -ffp-contract=off and, through
// SLP, in the 4-lane scalar emulation only — which broke cross-backend
// bitwise identity. The vector FFT butterflies avoid it the same way
// (fft/fft_kernel.hpp). The scalar tails below still subtract products.

#include <cmath>
#include <cstring>

#include "fft/dct.hpp"
#include "fft/fft_kernel.hpp"
#include "util/simd.hpp"

namespace rdp {

template <typename V>
void DctWorkspace::dct2_with(double* x) {
    const DctPlan& p = *plan_;
    const int n = p.n_, m = p.m_;
    if (n == 1) return;
    constexpr int L = simd::kLanes;
    double* tmp = tmp_.data();

    // Even/odd reorder: tmp[i] = x[2i], tmp[n-1-i] = x[2i+1].
    int i = 0;
    for (; i + L <= m; i += L) {
        V even, odd;
        deinterleave2(x + 2 * i, even, odd);
        even.storeu(tmp + i);
        reverse_lanes(odd).storeu(tmp + (n - i - L));
    }
    for (; i < m; ++i) {
        tmp[i] = x[2 * i];
        tmp[n - 1 - i] = x[2 * i + 1];
    }
    // Packing adjacent reals into complex values is exactly a copy.
    std::memcpy(reinterpret_cast<double*>(buf_.data()), tmp,
                static_cast<size_t>(n) * sizeof(double));
    p.fft_->transform_with<V, false>(buf_.data());

    // k = 0 and k = m: V[0] and V[m] are real.
    x[0] = buf_[0].real() + buf_[0].imag();
    x[m] = (buf_[0].real() - buf_[0].imag()) * p.cos_[static_cast<size_t>(m)];
    const double* bd = reinterpret_cast<const double*>(buf_.data());
    const double* wd = reinterpret_cast<const double*>(p.wr_.data());
    const double* cs = p.cos_.data();
    const double* sn = p.sin_.data();
    const V half = V::set1(0.5), nhalf = V::set1(-0.5);
    int k = 1;
    for (; k + L <= m; k += L) {
        V zr, zi;
        deinterleave2(bd + 2 * k, zr, zi);
        V yr, yi;  // buf_[m-k] down to buf_[m-k-3], loaded ascending
        deinterleave2(bd + 2 * (m - k - (L - 1)), yr, yi);
        yr = reverse_lanes(yr);
        yi = reverse_lanes(yi);
        const V er = half * (zr + yr);
        const V ei = half * (zi - yi);
        const V odr = half * (zi + yi);
        const V odi = nhalf * (zr - yr);
        V wr, wi;
        deinterleave2(wd + 2 * k, wr, wi);
        const V vr = nmul_add(wi, odi, mul_add(wr, odr, er));
        const V vi = mul_add(wi, odr, mul_add(wr, odi, ei));
        mul_add(vi, V::loadu(sn + k), vr * V::loadu(cs + k)).storeu(x + k);
        const V cnk = reverse_lanes(V::loadu(cs + (n - k - (L - 1))));
        const V snk = reverse_lanes(V::loadu(sn + (n - k - (L - 1))));
        reverse_lanes(nmul_add(vi, snk, vr * cnk))
            .storeu(x + (n - k - (L - 1)));
    }
    for (; k < m; ++k) {
        const Complex z = buf_[static_cast<size_t>(k)];
        const Complex y = buf_[static_cast<size_t>(m - k)];
        const double er = 0.5 * (z.real() + y.real());
        const double ei = 0.5 * (z.imag() - y.imag());
        const double odr = 0.5 * (z.imag() + y.imag());
        const double odi = -0.5 * (z.real() - y.real());
        const Complex w = p.wr_[static_cast<size_t>(k)];
        const double vr = er + w.real() * odr - w.imag() * odi;
        const double vi = ei + w.real() * odi + w.imag() * odr;
        x[k] = vr * cs[k] + vi * sn[k];
        x[n - k] = vr * cs[n - k] - vi * sn[n - k];
    }
}

template <typename V>
void DctWorkspace::idct2_with(double* x) {
    const DctPlan& p = *plan_;
    const int n = p.n_, m = p.m_;
    if (n == 1) return;
    constexpr int L = simd::kLanes;
    double* tmp = tmp_.data();
    const double* cs = p.cos_.data();
    const double* sn = p.sin_.data();

    // Rebuild the half spectrum V[k] = e^{+i pi k/(2N)} (x[k] - i x[n-k]).
    vbuf_[0] = {x[0], 0.0};
    vbuf_[static_cast<size_t>(m)] = {x[m] * M_SQRT2, 0.0};
    double* vd = reinterpret_cast<double*>(vbuf_.data());
    const double* ncs = p.ncos_.data();
    int k = 1;
    for (; k + L <= m; k += L) {
        // With xr = x[n-k] = -im: re*c - im*s == re*c + xr*s and
        // re*s + im*c == re*s + xr*(-c), bit for bit (see the file comment).
        const V re = V::loadu(x + k);
        const V xr = reverse_lanes(V::loadu(x + (n - k - (L - 1))));
        const V c = V::loadu(cs + k);
        const V s = V::loadu(sn + k);
        const V nc = V::loadu(ncs + k);
        interleave2(vd + 2 * k, mul_add(xr, s, re * c),  // re*c - im*s
                    mul_add(xr, nc, re * s));            // re*s + im*c
    }
    for (; k < m; ++k) {
        const double re = x[k];
        const double im = -x[n - k];
        vbuf_[static_cast<size_t>(k)] = {re * cs[k] - im * sn[k],
                                         re * sn[k] + im * cs[k]};
    }

    // Repack into the M-point spectrum.
    buf_[0] = {0.5 * (vbuf_[0].real() + vbuf_[static_cast<size_t>(m)].real()),
               0.5 * (vbuf_[0].real() - vbuf_[static_cast<size_t>(m)].real())};
    double* bd = reinterpret_cast<double*>(buf_.data());
    const double* wd = reinterpret_cast<const double*>(p.wr_.data());
    const double* nwd = p.nwi_.data();
    const V half = V::set1(0.5);
    k = 1;
    for (; k + L <= m; k += L) {
        V ar, ai;
        deinterleave2(vd + 2 * k, ar, ai);
        V br, bi;  // vbuf_[m-k] .. vbuf_[m-k-3], loaded ascending
        deinterleave2(vd + 2 * (m - k - (L - 1)), br, bi);
        br = reverse_lanes(br);
        bi = reverse_lanes(bi);
        const V er = half * (ar + br);
        const V ei = half * (ai - bi);
        const V gr = half * (ar - br);
        const V gi = half * (ai + bi);
        V wr, wi;
        deinterleave2(wd + 2 * k, wr, wi);
        // O = conj(W^k) * (V[k] - conj(V[m-k])) / 2; Z[k] = E + i O.
        const V odr = mul_add(wi, gi, wr * gr);  // wr*gr + wi*gi
        const V odi =
            mul_add(V::loadu(nwd + k), gr, wr * gi);  // wr*gi - wi*gr
        interleave2(bd + 2 * k, er - odi, ei + odr);
    }
    for (; k < m; ++k) {
        const Complex a = vbuf_[static_cast<size_t>(k)];
        const Complex b = vbuf_[static_cast<size_t>(m - k)];
        const double er = 0.5 * (a.real() + b.real());
        const double ei = 0.5 * (a.imag() - b.imag());
        const double gr = 0.5 * (a.real() - b.real());
        const double gi = 0.5 * (a.imag() + b.imag());
        const Complex w = p.wr_[static_cast<size_t>(k)];
        const double odr = w.real() * gr + w.imag() * gi;
        const double odi = w.real() * gi - w.imag() * gr;
        buf_[static_cast<size_t>(k)] = {er - odi, ei + odr};
    }
    p.fft_->transform_with<V, true>(buf_.data());

    // Unpacking complex back to adjacent reals is again a copy; then undo
    // the even/odd reorder: x[2i] = tmp[i], x[2i+1] = tmp[n-1-i].
    std::memcpy(tmp, reinterpret_cast<const double*>(buf_.data()),
                static_cast<size_t>(n) * sizeof(double));
    int i = 0;
    for (; i + L <= m; i += L) {
        const V even = V::loadu(tmp + i);
        const V odd = reverse_lanes(V::loadu(tmp + (n - i - L)));
        interleave2(x + 2 * i, even, odd);
    }
    for (; i < m; ++i) {
        x[2 * i] = tmp[i];
        x[2 * i + 1] = tmp[n - 1 - i];
    }
}

template <typename V>
void DctWorkspace::dct3_with(double* x) {
    const int n = plan_->n_;
    constexpr int L = simd::kLanes;
    x[0] *= static_cast<double>(n);
    const V vh = V::set1(n / 2.0);
    int k = 1;
    for (; k + L <= n; k += L) (V::loadu(x + k) * vh).storeu(x + k);
    for (; k < n; ++k) x[k] *= n / 2.0;
    idct2_with<V>(x);
}

template <typename V>
void DctWorkspace::idxst_with(double* x) {
    const int n = plan_->n_;
    constexpr int L = simd::kLanes;
    if (n == 1) {
        x[0] = 0.0;
        return;
    }
    double* tmp = tmp_.data();
    tmp[0] = 0.0;
    int k = 1;
    for (; k + L <= n; k += L)
        reverse_lanes(V::loadu(x + (n - k - (L - 1)))).storeu(tmp + k);
    for (; k < n; ++k) tmp[k] = x[n - k];
    std::memcpy(x, tmp, static_cast<size_t>(n) * sizeof(double));
    dct3_with<V>(x);
    // Negate odd indices; multiplying by ±1.0 is exact, so this matches
    // the scalar x[i] = -x[i] bit for bit.
    if (n >= L) {
        const double sgn[4] = {1.0, -1.0, 1.0, -1.0};
        const V vs = V::loadu(sgn);
        for (int i = 0; i + L <= n; i += L)
            (V::loadu(x + i) * vs).storeu(x + i);
    } else {
        for (int i = 1; i < n; i += 2) x[i] = -x[i];
    }
}

}  // namespace rdp
