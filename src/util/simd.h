#ifndef DSMEM_UTIL_SIMD_H
#define DSMEM_UTIL_SIMD_H

#include <cstddef>
#include <cstdint>

// ------------------------------------------------------------------
// Portable uint64 SIMD wrapper for the struct-of-lanes sweep executor.
//
// The instruction set is selected at configure time: the SIMD
// translation unit (sol_executor_simd.cc) is compiled with
// DSMEM_SIMD_TU_AVX2 (and -mavx2) when the toolchain supports it, or
// picks up NEON for free on AArch64. U64Batch exists only there:
// every other translation unit that includes this header sees just
// kBatchWidth, so no vector instruction can leak into code that must
// run on any host. A build without either ISA has no batch type and
// no struct-of-lanes sweep; every DS sweep takes the tiled pass.
//
// Cycle counts never approach 2^63, so the AVX2 signed 64-bit compare
// implements an unsigned max exactly.
// ------------------------------------------------------------------

#if defined(DSMEM_SIMD_TU_AVX2) && defined(__AVX2__)
#include <immintrin.h>
#define DSMEM_SIMD_ISA_AVX2 1
#elif defined(DSMEM_SIMD_TU_NEON) && defined(__ARM_NEON)
#include <arm_neon.h>
#define DSMEM_SIMD_ISA_NEON 1
#endif

namespace dsmem::util::simd {

/** Lane count every struct-of-lanes array is padded to: one batch of
 *  four u64 lanes (one AVX2 register, a pair of NEON registers). */
inline constexpr size_t kBatchWidth = 4;

#if defined(DSMEM_SIMD_ISA_AVX2)

/** AVX2 batch of 4 u64 lanes. */
struct U64x4Avx2 {
    static constexpr size_t kWidth = 4;
    __m256i v;

    static U64x4Avx2 load(const uint64_t *p)
    {
        return {_mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(p))};
    }
    void store(uint64_t *p) const
    {
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(p), v);
    }
    static U64x4Avx2 splat(uint64_t x)
    {
        return {_mm256_set1_epi64x(static_cast<long long>(x))};
    }

    friend U64x4Avx2 gt64(U64x4Avx2 a, U64x4Avx2 b)
    {
        // Signed compare is exact for cycle counts (< 2^63).
        return {_mm256_cmpgt_epi64(a.v, b.v)};
    }
    friend U64x4Avx2 blend64(U64x4Avx2 mask, U64x4Avx2 a, U64x4Avx2 b)
    {
        return {_mm256_blendv_epi8(b.v, a.v, mask.v)};
    }
    friend U64x4Avx2 max64(U64x4Avx2 a, U64x4Avx2 b)
    {
        return blend64(gt64(a, b), a, b);
    }
    friend U64x4Avx2 add64(U64x4Avx2 a, U64x4Avx2 b)
    {
        return {_mm256_add_epi64(a.v, b.v)};
    }
    friend U64x4Avx2 sub64(U64x4Avx2 a, U64x4Avx2 b)
    {
        return {_mm256_sub_epi64(a.v, b.v)};
    }
    friend U64x4Avx2 and64(U64x4Avx2 a, U64x4Avx2 b)
    {
        return {_mm256_and_si256(a.v, b.v)};
    }
    friend U64x4Avx2 andnot64(U64x4Avx2 mask, U64x4Avx2 x)
    {
        return {_mm256_andnot_si256(mask.v, x.v)};
    }
    friend U64x4Avx2 minOne64(U64x4Avx2 a)
    {
        U64x4Avx2 one = splat(1);
        return blend64(gt64(a, one), one, a);
    }
    friend U64x4Avx2 gather64(const uint64_t *base, U64x4Avx2 idx)
    {
        return {_mm256_i64gather_epi64(
            reinterpret_cast<const long long *>(base), idx.v, 8)};
    }
    friend U64x4Avx2 mulLo32(U64x4Avx2 a, U64x4Avx2 b)
    {
        return {_mm256_mul_epu32(a.v, b.v)};
    }
};

using U64Batch = U64x4Avx2;

#elif defined(DSMEM_SIMD_ISA_NEON)

/** NEON batch: 4 u64 lanes as a pair of 128-bit registers. */
struct U64x4Neon {
    static constexpr size_t kWidth = 4;
    uint64x2_t lo, hi;

    static U64x4Neon load(const uint64_t *p)
    {
        return {vld1q_u64(p), vld1q_u64(p + 2)};
    }
    void store(uint64_t *p) const
    {
        vst1q_u64(p, lo);
        vst1q_u64(p + 2, hi);
    }
    static U64x4Neon splat(uint64_t x)
    {
        return {vdupq_n_u64(x), vdupq_n_u64(x)};
    }

    friend U64x4Neon gt64(U64x4Neon a, U64x4Neon b)
    {
        return {vreinterpretq_u64_u64(vcgtq_u64(a.lo, b.lo)),
                vreinterpretq_u64_u64(vcgtq_u64(a.hi, b.hi))};
    }
    friend U64x4Neon blend64(U64x4Neon mask, U64x4Neon a, U64x4Neon b)
    {
        return {vbslq_u64(mask.lo, a.lo, b.lo),
                vbslq_u64(mask.hi, a.hi, b.hi)};
    }
    friend U64x4Neon max64(U64x4Neon a, U64x4Neon b)
    {
        return blend64(gt64(a, b), a, b);
    }
    friend U64x4Neon add64(U64x4Neon a, U64x4Neon b)
    {
        return {vaddq_u64(a.lo, b.lo), vaddq_u64(a.hi, b.hi)};
    }
    friend U64x4Neon sub64(U64x4Neon a, U64x4Neon b)
    {
        return {vsubq_u64(a.lo, b.lo), vsubq_u64(a.hi, b.hi)};
    }
    friend U64x4Neon and64(U64x4Neon a, U64x4Neon b)
    {
        return {vandq_u64(a.lo, b.lo), vandq_u64(a.hi, b.hi)};
    }
    friend U64x4Neon andnot64(U64x4Neon mask, U64x4Neon x)
    {
        return {vbicq_u64(x.lo, mask.lo), vbicq_u64(x.hi, mask.hi)};
    }
    friend U64x4Neon minOne64(U64x4Neon a)
    {
        U64x4Neon one = splat(1);
        return blend64(gt64(a, one), one, a);
    }
    friend U64x4Neon gather64(const uint64_t *base, U64x4Neon idx)
    {
        return {uint64x2_t{base[vgetq_lane_u64(idx.lo, 0)],
                           base[vgetq_lane_u64(idx.lo, 1)]},
                uint64x2_t{base[vgetq_lane_u64(idx.hi, 0)],
                           base[vgetq_lane_u64(idx.hi, 1)]}};
    }
    friend U64x4Neon mulLo32(U64x4Neon a, U64x4Neon b)
    {
        const uint64x2_t m = vdupq_n_u64(0xffffffffu);
        uint64x2_t al = vandq_u64(a.lo, m), bl = vandq_u64(b.lo, m);
        uint64x2_t ah = vandq_u64(a.hi, m), bh = vandq_u64(b.hi, m);
        return {uint64x2_t{vgetq_lane_u64(al, 0) * vgetq_lane_u64(bl, 0),
                           vgetq_lane_u64(al, 1) * vgetq_lane_u64(bl, 1)},
                uint64x2_t{vgetq_lane_u64(ah, 0) * vgetq_lane_u64(bh, 0),
                           vgetq_lane_u64(ah, 1) * vgetq_lane_u64(bh, 1)}};
    }
};

using U64Batch = U64x4Neon;

#endif

} // namespace dsmem::util::simd

#endif // DSMEM_UTIL_SIMD_H
