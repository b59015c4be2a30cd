#include "tensor/gemm_kernel.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "parallel/thread_pool.h"
#include "prof/prof.h"
#include "tensor/check.h"
#include "tensor/workspace.h"

namespace upaq::gemm {

namespace {

// Same below-this-runs-serial gating as tensor/ops.cpp: dispatch cost beats
// the win for tiny products, and gating on the (shape-only) work size keeps
// serial and parallel arithmetic identical.
constexpr std::int64_t kMinParallelWork = 1 << 15;
constexpr std::int64_t kSparseRowGrain = 8;

std::int64_t round_up(std::int64_t v, std::int64_t m) {
  return (v + m - 1) / m * m;
}

/// MR x NR register micro-tile over one KC slab, written to `acc`.
///
/// The accumulators must be one vector register per C row (broadcast A
/// element x contiguous B row, the classic outer-product shape). Left to
/// its own devices the auto-vectorizer instead vectorizes over the A
/// panel's contiguous r axis and drowns the FMAs in cross-lane shuffles,
/// so on GNU compilers the shape is spelled out with vector extensions —
/// ISA-independent (the compiler lowers to whatever the target offers)
/// and exactly one kNR-wide lane group per C row.
#if defined(__GNUC__) || defined(__clang__)
typedef float vnr __attribute__((vector_size(kNR * sizeof(float))));
static_assert(kNR == 8, "micro-tile accumulator type assumes kNR == 8");

void micro_tile(std::int64_t kc, const float* __restrict__ ap,
                const float* __restrict__ bp, float* __restrict__ acc) {
  vnr t0{}, t1{}, t2{}, t3{}, t4{}, t5{};
  static_assert(kMR == 6, "accumulator count assumes kMR == 6");
  for (std::int64_t p = 0; p < kc; ++p) {
    const float* __restrict__ a = ap + p * kMR;
    vnr b;
    __builtin_memcpy(&b, bp + p * kNR, sizeof(b));
    t0 += a[0] * b;
    t1 += a[1] * b;
    t2 += a[2] * b;
    t3 += a[3] * b;
    t4 += a[4] * b;
    t5 += a[5] * b;
  }
  const vnr t[kMR] = {t0, t1, t2, t3, t4, t5};
  __builtin_memcpy(acc, t, sizeof(t));
}
#else
void micro_tile(std::int64_t kc, const float* ap, const float* bp,
                float* acc) {
  float t[kMR * kNR] = {};
  for (std::int64_t p = 0; p < kc; ++p) {
    const float* a = ap + p * kMR;
    const float* b = bp + p * kNR;
    for (int r = 0; r < kMR; ++r) {
      const float ar = a[r];
      for (int j = 0; j < kNR; ++j) t[r * kNR + j] += ar * b[j];
    }
  }
  for (int i = 0; i < kMR * kNR; ++i) acc[i] = t[i];
}
#endif

/// Packs rows [0, m) x columns [pc, pc+kc) of row-major A into MR-row panels
/// at `dst` (column-major within a panel, rows beyond m zero-filled).
void pack_a_slab(float* dst, const float* a, std::int64_t m, std::int64_t k,
                 std::int64_t pc, std::int64_t kc, std::int64_t mpad) {
  for (std::int64_t ip = 0; ip < mpad / kMR; ++ip) {
    float* panel = dst + ip * kMR * kc;
    for (std::int64_t j = 0; j < kc; ++j) {
      for (std::int64_t r = 0; r < kMR; ++r) {
        const std::int64_t row = ip * kMR + r;
        panel[j * kMR + r] = row < m ? a[row * k + pc + j] : 0.0f;
      }
    }
  }
}

/// Packs a kc x nw B slab (columns [jc, jc+nw), k-rows [pc, pc+kc)) into
/// NR-column panels. BT = false reads row-major (k, n) B; BT = true reads
/// row-major (n, k) B as its transpose.
template <bool BT>
void pack_b_slab(float* dst, const float* b, std::int64_t k, std::int64_t n,
                 std::int64_t pc, std::int64_t kc, std::int64_t jc,
                 std::int64_t nw) {
  const std::int64_t jpanels = (nw + kNR - 1) / kNR;
  for (std::int64_t jp = 0; jp < jpanels; ++jp) {
    float* panel = dst + jp * kc * kNR;
    const std::int64_t jv = std::min(kNR, nw - jp * kNR);
    if constexpr (BT) {
      // Transposed read: column (jc + j) of B^T is row (jc + j) of B, so
      // each jr strand streams contiguously over p.
      for (std::int64_t jr = 0; jr < kNR; ++jr) {
        if (jr < jv) {
          const float* src = b + (jc + jp * kNR + jr) * k + pc;
          for (std::int64_t p = 0; p < kc; ++p) panel[p * kNR + jr] = src[p];
        } else {
          for (std::int64_t p = 0; p < kc; ++p) panel[p * kNR + jr] = 0.0f;
        }
      }
    } else {
      (void)k;
      for (std::int64_t p = 0; p < kc; ++p) {
        const float* src = b + (pc + p) * n + jc + jp * kNR;
        float* row = panel + p * kNR;
        for (std::int64_t jr = 0; jr < jv; ++jr) row[jr] = src[jr];
        for (std::int64_t jr = jv; jr < kNR; ++jr) row[jr] = 0.0f;
      }
    }
  }
}

/// Blocked panel kernel over a pre-packed A (`ap`, mpad x k in slab layout).
/// Parallel grain: one kNC-column stripe per chunk — stripes own disjoint C
/// columns and accumulate KC slabs in ascending k order, so the result is a
/// pure function of (shapes, values), never the thread count.
template <bool BT>
void run_blocked(const float* ap, std::int64_t m, std::int64_t k,
                 const float* b, float* c, std::int64_t n, float alpha) {
  const std::int64_t mpad = round_up(m, kMR);
  const std::int64_t row_panels = mpad / kMR;
  const std::int64_t stripes = (n + kNC - 1) / kNC;
  auto stripe_body = [&](std::int64_t s0, std::int64_t s1) {
    workspace::Scope ws;
    float* bp = ws.floats(kKC * kNC);
    for (std::int64_t s = s0; s < s1; ++s) {
      const std::int64_t jc = s * kNC;
      const std::int64_t nw = std::min(kNC, n - jc);
      const std::int64_t jpanels = (nw + kNR - 1) / kNR;
      for (std::int64_t pc = 0; pc < k; pc += kKC) {
        const std::int64_t kc = std::min(kKC, k - pc);
        pack_b_slab<BT>(bp, b, k, n, pc, kc, jc, nw);
        const float* aslab = ap + mpad * pc;
        for (std::int64_t jp = 0; jp < jpanels; ++jp) {
          const std::int64_t jv = std::min(kNR, nw - jp * kNR);
          for (std::int64_t ip = 0; ip < row_panels; ++ip) {
            float acc[kMR * kNR] = {};
            micro_tile(kc, aslab + ip * kMR * kc, bp + jp * kc * kNR, acc);
            const std::int64_t rv = std::min(kMR, m - ip * kMR);
            for (std::int64_t r = 0; r < rv; ++r) {
              float* crow = c + (ip * kMR + r) * n + jc + jp * kNR;
              for (std::int64_t j = 0; j < jv; ++j)
                crow[j] += alpha * acc[r * kNR + j];
            }
          }
        }
      }
    }
  };
  if (m * k * n < kMinParallelWork) {
    stripe_body(0, stripes);
  } else {
    parallel::parallel_for(0, stripes, 1, stripe_body);
  }
}

/// Zero-skipping row kernel (the pre-blocking i-k-j loop): per-element skips
/// make pattern-pruned weight rows cheap, which dense panel math cannot do.
void run_rowskip(const float* a, const float* b, float* c, std::int64_t m,
                 std::int64_t k, std::int64_t n, float alpha) {
  auto rows = [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
      float* crow = c + i * n;
      for (std::int64_t kk = 0; kk < k; ++kk) {
        const float av = alpha * a[i * k + kk];
        if (av == 0.0f) continue;  // free zero-skipping for pruned rows
        const float* brow = b + kk * n;
        for (std::int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
      }
    }
  };
  if (m * k * n < kMinParallelWork) {
    rows(0, m);
  } else {
    parallel::parallel_for(0, m, kSparseRowGrain, rows);
  }
}

bool mostly_zero(const float* a, std::int64_t count) {
  std::int64_t zeros = 0;
  for (std::int64_t i = 0; i < count; ++i) zeros += a[i] == 0.0f;
  return static_cast<double>(zeros) >
         kSparseZeroFraction * static_cast<double>(count);
}

void count_call(std::int64_t m, std::int64_t k, std::int64_t n) {
  prof::add(prof::Counter::kGemmFlops,
            static_cast<std::uint64_t>(2 * m * k * n));
  prof::add(prof::Counter::kGemmKernelCalls, 1);
}

}  // namespace

PackedA pack_a(const float* a, std::int64_t m, std::int64_t k) {
  PackedA p;
  p.m = m;
  p.k = k;
  p.sparse = mostly_zero(a, m * k);
  if (p.sparse) {
    p.data.assign(a, a + m * k);
    return p;
  }
  const std::int64_t mpad = round_up(m, kMR);
  p.data.assign(static_cast<std::size_t>(mpad * k), 0.0f);
  for (std::int64_t pc = 0; pc < k; pc += kKC) {
    const std::int64_t kc = std::min(kKC, k - pc);
    pack_a_slab(p.data.data() + mpad * pc, a, m, k, pc, kc, mpad);
  }
  return p;
}

void gemm(const float* a, const float* b, float* c, std::int64_t m,
          std::int64_t k, std::int64_t n, float alpha) {
  if (m <= 0 || k <= 0 || n <= 0) return;
  count_call(m, k, n);
  if (mostly_zero(a, m * k)) {
    run_rowskip(a, b, c, m, k, n, alpha);
    return;
  }
  workspace::Scope ws;
  const std::int64_t mpad = round_up(m, kMR);
  float* ap = ws.floats(mpad * k);
  for (std::int64_t pc = 0; pc < k; pc += kKC) {
    const std::int64_t kc = std::min(kKC, k - pc);
    pack_a_slab(ap + mpad * pc, a, m, k, pc, kc, mpad);
  }
  run_blocked<false>(ap, m, k, b, c, n, alpha);
}

void gemm_packed(const PackedA& a, const float* b, float* c, std::int64_t n,
                 float alpha) {
  if (a.m <= 0 || a.k <= 0 || n <= 0) return;
  count_call(a.m, a.k, n);
  if (a.sparse) {
    run_rowskip(a.data.data(), b, c, a.m, a.k, n, alpha);
    return;
  }
  run_blocked<false>(a.data.data(), a.m, a.k, b, c, n, alpha);
}

void gemm_nt(const float* a, const float* b, float* c, std::int64_t m,
             std::int64_t k, std::int64_t n, float alpha) {
  if (m <= 0 || k <= 0 || n <= 0) return;
  count_call(m, k, n);
  workspace::Scope ws;
  const std::int64_t mpad = round_up(m, kMR);
  float* ap = ws.floats(mpad * k);
  for (std::int64_t pc = 0; pc < k; pc += kKC) {
    const std::int64_t kc = std::min(kKC, k - pc);
    pack_a_slab(ap + mpad * pc, a, m, k, pc, kc, mpad);
  }
  run_blocked<true>(ap, m, k, b, c, n, alpha);
}

// ------------------------------------------------------ int8 segment kernels

// Requantization is contractually one float multiply then one float add per
// element (two roundings). This TU compiles with -march=native where the
// compiler may contract a visible mul+add pair into a single-rounding FMA —
// and it is free to do so in one code path (say a vector block) but not
// another (a scalar tail), which would make the result depend on the column
// position and the ISA. The empty asm pins the product to a register
// between the two operations, making contraction impossible everywhere, so
// every block and tail requantizes with the exact same two roundings. The "v"
// constraint (any SSE/AVX register, zmm included) also holds the AVX-512
// segment block's __m512 products, which "x" cannot.
#if defined(__GNUC__) || defined(__clang__)
#if defined(__x86_64__) || defined(__i386__)
#define UPAQ_NO_CONTRACT(v) asm("" : "+v"(v))
#else
#define UPAQ_NO_CONTRACT(v) asm("" : "+g"(v))
#endif
#else
#define UPAQ_NO_CONTRACT(v) (void)(v)
#endif

#if defined(__GNUC__) || defined(__clang__)
#define UPAQ_S8_VEC 1
#if defined(__AVX2__)
#include <immintrin.h>
#endif
namespace {
typedef std::int8_t v8qi __attribute__((vector_size(8)));
typedef std::int32_t v8si __attribute__((vector_size(32)));
typedef float v8sf __attribute__((vector_size(32)));
static_assert(sizeof(v8si) == 8 * sizeof(std::int32_t),
              "int8 vector kernels assume 8 int32 lanes");

// The widening load goes through pmovsx intrinsics where available: GCC 12
// scalarizes narrow-to-wide __builtin_convertvector into per-lane
// sign-extends + inserts (~20 instructions for what vpmovsxbd does in one),
// which single-handedly erased the integer path's advantage. Both forms
// compute the same exact sign extension — intrinsics are a pure codegen fix.
#if defined(__AVX2__)
inline v8si load_i8x8_as_i32(const std::int8_t* p) {
  return (v8si)_mm256_cvtepi8_epi32(
      _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p)));
}
#else
inline v8si load_i8x8_as_i32(const std::int8_t* p) {
  v8qi q;
  __builtin_memcpy(&q, p, sizeof(q));
  return __builtin_convertvector(q, v8si);
}
#endif
}  // namespace
#endif

namespace {

// The segment kernels below read activation row p (an entry's column) as the
// bytes at qx + row_off[p] + j0 (see s8_gemm_segments).

/// Generic (len >= 4) segment body: for the entries {(cols[e], codes[e])},
/// e in [0, len), accumulates acc[j] += codes[e] * x(cols[e], j0 + j) for j
/// in [0, nb) into the caller's int32 block accumulator. Exact integer
/// arithmetic — bitwise identical for any block decomposition.
void s8_segment_accumulate(const std::int32_t* cols, const std::int32_t* codes,
                           std::int64_t len, const std::int8_t* qx,
                           const std::int32_t* row_off, std::int64_t j0,
                           std::int64_t nb, std::int32_t* acc) {
  for (std::int64_t e = 0; e < len; ++e) {
    const std::int32_t w = codes[e];
    const std::int8_t* brow = qx + row_off[cols[e]] + j0;
    for (std::int64_t j = 0; j < nb; ++j)
      acc[j] += w * static_cast<std::int32_t>(brow[j]);
  }
}

/// Fused short-segment kernel (UPAQ patterns keep 1..3 weights per kernel):
/// for the `len` (1..3) entries computes, per column j in [0, nb),
///   t = m * float(sum_e codes[e] * x(cols[e], j0 + j));  yb[j] += t
/// The integer dot is exact; the requantization is one float multiply then
/// one float add, contraction pinned, so the result is independent of the
/// vector width.
void s8_fused_segment(const std::int32_t* cols, const std::int32_t* codes,
                      std::int64_t len, const std::int8_t* qx,
                      const std::int32_t* row_off, std::int64_t j0,
                      std::int64_t nb, float m, float* yb) {
  // Weight codes can be up to 16 bits here, so the products use int32 math
  // (the int16 pair trick is reserved for the <= 8-bit kernels).
  const std::int32_t w0 = codes[0];
  const std::int8_t* b0 = qx + row_off[cols[0]] + j0;
  const std::int32_t w1 = len > 1 ? codes[1] : 0;
  const std::int8_t* b1 = len > 1 ? qx + row_off[cols[1]] + j0 : b0;
  const std::int32_t w2 = len > 2 ? codes[2] : 0;
  const std::int8_t* b2 = len > 2 ? qx + row_off[cols[2]] + j0 : b0;
  std::int64_t j = 0;
#ifdef UPAQ_S8_VEC
  for (; j + 8 <= nb; j += 8) {
    v8si s = w0 * load_i8x8_as_i32(b0 + j);
    if (len > 1) s += w1 * load_i8x8_as_i32(b1 + j);
    if (len > 2) s += w2 * load_i8x8_as_i32(b2 + j);
    v8sf t = m * __builtin_convertvector(s, v8sf);
    UPAQ_NO_CONTRACT(t);
    v8sf y;
    __builtin_memcpy(&y, yb + j, sizeof(y));
    y += t;
    __builtin_memcpy(yb + j, &y, sizeof(y));
  }
#endif
  for (; j < nb; ++j) {
    std::int32_t s = w0 * static_cast<std::int32_t>(b0[j]);
    if (len > 1) s += w1 * static_cast<std::int32_t>(b1[j]);
    if (len > 2) s += w2 * static_cast<std::int32_t>(b2[j]);
    float t = m * static_cast<float>(s);
    UPAQ_NO_CONTRACT(t);
    yb[j] += t;
  }
}

/// Requantize-and-add flush of an int32 accumulator block: per j in [0, nb),
///   t = m * float(acc[j]);  yb[j] += t
/// The same one-multiply-one-add element sequence as s8_fused_segment, so
/// every segment requantizes identically whatever its length.
void s8_requant_add(const std::int32_t* acc, std::int64_t nb, float m,
                    float* yb) {
  std::int64_t j = 0;
#ifdef UPAQ_S8_VEC
  for (; j + 8 <= nb; j += 8) {
    v8si s;
    __builtin_memcpy(&s, acc + j, sizeof(s));
    v8sf t = m * __builtin_convertvector(s, v8sf);
    UPAQ_NO_CONTRACT(t);
    v8sf y;
    __builtin_memcpy(&y, yb + j, sizeof(y));
    y += t;
    __builtin_memcpy(yb + j, &y, sizeof(y));
  }
#endif
  for (; j < nb; ++j) {
    float t = m * static_cast<float>(acc[j]);
    UPAQ_NO_CONTRACT(t);
    yb[j] += t;
  }
}

/// One (row, nb-column) output block of the segment GEMM on the portable
/// path: bias fill, then each segment's requantized sum in order (fused
/// kernels for 1..3 entries, the int32 accumulator otherwise). `iacc` holds
/// at least nb int32s.
void s8_segment_block(const std::int32_t* cols, const std::int32_t* codes,
                      const QSegment* segs, std::int64_t s0, std::int64_t s1,
                      const std::int8_t* qx, const std::int32_t* row_off,
                      float sx, std::int64_t j0, std::int64_t nb, float bias_v,
                      std::int32_t* iacc, float* yb) {
  std::fill(yb, yb + nb, bias_v);
  for (std::int64_t si = s0; si < s1; ++si) {
    const QSegment& seg = segs[si];
    const std::int64_t len = seg.end - seg.begin;
    const float m = seg.scale * sx;
    // UPAQ patterns keep 2 (HCK) or 3 (LCK) weights per kernel, so almost
    // every segment is tiny: the fused kernels fold the integer sum and the
    // requantization into one pass over the columns.
    if (len <= 3) {
      s8_fused_segment(cols + seg.begin, codes + seg.begin, len, qx, row_off,
                       j0, nb, m, yb);
    } else {
      std::fill(iacc, iacc + nb, 0);
      s8_segment_accumulate(cols + seg.begin, codes + seg.begin, len, qx,
                            row_off, j0, nb, iacc);
      s8_requant_add(iacc, nb, m, yb);
    }
  }
}

}  // namespace

#if defined(UPAQ_S8_VEC) && defined(__AVX2__)
namespace {

/// One (row, 16-column) output block of the sub-byte segment GEMM: the two
/// 8-lane float accumulators hold the output across ALL of the row's
/// segments (bias fill in registers, one store at the end), and each entry
/// pair multiplies via vpmaddubsw as |w| x sign-transferred activations:
///   sign_epi8 moves the weight signs onto the activation bytes (activation
///   codes never reach -128 — s8_quantize clamps to +/-(2^(b-1)-1) <= 127 —
///   so the sign transfer is exact), then maddubs(|w| bytes, +/-x bytes)
///   yields int16 pair sums w0*x0 + w1*x1 with |sum| <= 2*127^2 < 2^15.
/// Pair sums widen to int32 per segment, so every integer quantity is exact,
/// and the per-element float sequence (bias, then one mul+add per segment in
/// ascending order, contraction pinned) is identical to the generic path —
/// the fast path is bitwise equivalent, only faster.
void s8_row_block16(const std::int32_t* cols, const std::int32_t* codes,
                    const QSegment* segs, std::int64_t s0, std::int64_t s1,
                    const std::int8_t* qx, const std::int32_t* row_off,
                    float sx, std::int64_t j0, float bias_v, float* yb) {
  // The exact int16 pair sums of entries e (and e + 1 when has2) for the
  // 16 columns, widened to int32: columns 0-7 in s[0], 8-15 in s[1].
  const auto pair_sums = [&](std::int64_t e, bool has2, __m256i (&s)[2]) {
    const std::int32_t w0 = codes[e];
    const std::int32_t w1 = has2 ? codes[e + 1] : 0;
    const __m128i r0 = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(qx + row_off[cols[e]] + j0));
    const __m128i r1 =
        has2 ? _mm_loadu_si128(reinterpret_cast<const __m128i*>(
                   qx + row_off[cols[e + 1]] + j0))
             : _mm_setzero_si128();
    const __m256i x_il =
        _mm256_set_m128i(_mm_unpackhi_epi8(r0, r1), _mm_unpacklo_epi8(r0, r1));
    const int s0b = w0 < 0 ? 0xFF : (w0 > 0 ? 1 : 0);
    const int s1b = w1 < 0 ? 0xFF : (w1 > 0 ? 1 : 0);
    const __m256i wsgn =
        _mm256_set1_epi16(static_cast<short>((s1b << 8) | s0b));
    const __m256i uabs = _mm256_set1_epi16(static_cast<short>(
        ((w1 < 0 ? -w1 : w1) << 8) | (w0 < 0 ? -w0 : w0)));
    const __m256i p =
        _mm256_maddubs_epi16(uabs, _mm256_sign_epi8(x_il, wsgn));
    s[0] = _mm256_cvtepi16_epi32(_mm256_castsi256_si128(p));
    s[1] = _mm256_cvtepi16_epi32(_mm256_extracti128_si256(p, 1));
  };
  __m256 y0 = _mm256_set1_ps(bias_v);
  __m256 y1 = y0;
  for (std::int64_t si = s0; si < s1; ++si) {
    const QSegment& seg = segs[si];
    // The first pair's sums replace the zeros, so one-pair segments do no
    // integer adds; an empty segment keeps the zeros.
    __m256i acc[2] = {_mm256_setzero_si256(), _mm256_setzero_si256()};
    if (seg.begin < seg.end) pair_sums(seg.begin, seg.begin + 1 < seg.end, acc);
    for (std::int64_t e = seg.begin + 2; e < seg.end; e += 2) {
      __m256i sums[2];
      pair_sums(e, e + 1 < seg.end, sums);
      acc[0] = _mm256_add_epi32(acc[0], sums[0]);
      acc[1] = _mm256_add_epi32(acc[1], sums[1]);
    }
    const float m_ = seg.scale * sx;
    const __m256 mv = _mm256_set1_ps(m_);
    __m256 t0 = _mm256_mul_ps(mv, _mm256_cvtepi32_ps(acc[0]));
    UPAQ_NO_CONTRACT(t0);
    y0 = _mm256_add_ps(y0, t0);
    __m256 t1 = _mm256_mul_ps(mv, _mm256_cvtepi32_ps(acc[1]));
    UPAQ_NO_CONTRACT(t1);
    y1 = _mm256_add_ps(y1, t1);
  }
  _mm256_storeu_ps(yb, y0);
  _mm256_storeu_ps(yb + 8, y1);
}

#if defined(__AVX512BW__)
// GCC 12's AVX-512 intrinsic headers seed some conversions and shuffles from
// a deliberately undefined register, which -W(maybe-)uninitialized
// misreports.
#if !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"
#endif
/// One (row, 64-column) output block: s8_row_block16's arithmetic over four
/// zmm float accumulators, so each entry pair's setup (sign mask, |w| bytes)
/// and each segment's scale broadcast and requantize serve 64 columns. HCK
/// keeps 2 taps per kernel with a per-kernel scale, so nearly every segment
/// is a single pair and that setup is most of the 16-column block's work.
///
/// AVX-512BW has no vpsignb: each activation byte is negated where its
/// pair's weight is negative by a byte-masked 0 - x, which is exact because
/// activation codes never reach -128. Zero weights keep their byte
/// (sign_epi8 would zero it) but multiply by |w| = 0 either way.
///
/// unpack{lo,hi}_epi8 interleave the two activation rows within each 128-bit
/// lane, so the accumulators hold a fixed in-lane column permutation:
///   acc[0] = cols 0-7,16-23   acc[1] = cols 32-39,48-55
///   acc[2] = cols 8-15,24-31  acc[3] = cols 40-47,56-63
/// Every lane still owns one output column and sees the same bias, integer
/// sums and mul-then-add sequence, so the permutation is undone by one
/// 128-bit-lane shuffle per store and results equal s8_row_block16's bitwise.
void s8_row_block64(const std::int32_t* cols, const std::int32_t* codes,
                    const QSegment* segs, std::int64_t s0, std::int64_t s1,
                    const std::int8_t* qx, const std::int32_t* row_off,
                    float sx, std::int64_t j0, float bias_v, float* yb) {
  // The exact int16 pair sums of entries e (and e + 1 when has2) for the
  // 64 columns, widened to int32 in the accumulator order above. A weight's
  // sign moves onto its activation bytes with one masked 0 - x: byte 2j of
  // an interleaved pair belongs to entry e, byte 2j + 1 to entry e + 1.
  const auto pair_sums = [&](std::int64_t e, bool has2, __m512i (&s)[4]) {
    const std::int32_t w0 = codes[e];
    const std::int32_t w1 = has2 ? codes[e + 1] : 0;
    const __m512i r0 = _mm512_loadu_si512(qx + row_off[cols[e]] + j0);
    const __m512i r1 =
        has2 ? _mm512_loadu_si512(qx + row_off[cols[e + 1]] + j0)
             : _mm512_setzero_si512();
    const __mmask64 neg = (w0 < 0 ? 0x5555555555555555ull : 0ull) |
                          (w1 < 0 ? 0xAAAAAAAAAAAAAAAAull : 0ull);
    const __m512i uabs = _mm512_set1_epi16(static_cast<short>(
        ((w1 < 0 ? -w1 : w1) << 8) | (w0 < 0 ? -w0 : w0)));
    const __m512i zero = _mm512_setzero_si512();
    const __m512i x_lo = _mm512_unpacklo_epi8(r0, r1);
    const __m512i x_hi = _mm512_unpackhi_epi8(r0, r1);
    const __m512i p_lo = _mm512_maddubs_epi16(
        uabs, _mm512_mask_sub_epi8(x_lo, neg, zero, x_lo));
    const __m512i p_hi = _mm512_maddubs_epi16(
        uabs, _mm512_mask_sub_epi8(x_hi, neg, zero, x_hi));
    s[0] = _mm512_cvtepi16_epi32(_mm512_castsi512_si256(p_lo));
    s[1] = _mm512_cvtepi16_epi32(_mm512_extracti64x4_epi64(p_lo, 1));
    s[2] = _mm512_cvtepi16_epi32(_mm512_castsi512_si256(p_hi));
    s[3] = _mm512_cvtepi16_epi32(_mm512_extracti64x4_epi64(p_hi, 1));
  };
  __m512 y[4];
  for (auto& v : y) v = _mm512_set1_ps(bias_v);
  for (std::int64_t si = s0; si < s1; ++si) {
    const QSegment& seg = segs[si];
    // The first pair's sums replace the zeros: HCK segments are one pair,
    // so they do no integer adds; an empty segment keeps the zeros.
    __m512i acc[4] = {_mm512_setzero_si512(), _mm512_setzero_si512(),
                      _mm512_setzero_si512(), _mm512_setzero_si512()};
    if (seg.begin < seg.end) pair_sums(seg.begin, seg.begin + 1 < seg.end, acc);
    for (std::int64_t e = seg.begin + 2; e < seg.end; e += 2) {
      __m512i sums[4];
      pair_sums(e, e + 1 < seg.end, sums);
      for (int q = 0; q < 4; ++q) acc[q] = _mm512_add_epi32(acc[q], sums[q]);
    }
    const __m512 mv = _mm512_set1_ps(seg.scale * sx);
    for (int q = 0; q < 4; ++q) {
      __m512 t = _mm512_mul_ps(mv, _mm512_cvtepi32_ps(acc[q]));
      UPAQ_NO_CONTRACT(t);
      y[q] = _mm512_add_ps(y[q], t);
    }
  }
  // Lanes 0-1 of y[0] then y[2] hold cols 0-15, their lanes 2-3 cols 16-31;
  // y[1] and y[3] likewise hold cols 32-63.
  _mm512_storeu_ps(yb, _mm512_shuffle_f32x4(y[0], y[2], 0x44));
  _mm512_storeu_ps(yb + 16, _mm512_shuffle_f32x4(y[0], y[2], 0xEE));
  _mm512_storeu_ps(yb + 32, _mm512_shuffle_f32x4(y[1], y[3], 0x44));
  _mm512_storeu_ps(yb + 48, _mm512_shuffle_f32x4(y[1], y[3], 0xEE));
}
#if !defined(__clang__)
#pragma GCC diagnostic pop
#endif
#endif  // __AVX512BW__

}  // namespace
#endif  // UPAQ_S8_VEC && __AVX2__

void s8_gemm_segments(const std::int32_t* cols, const std::int32_t* codes,
                      const QSegment* segs, const std::int64_t* row_segs,
                      std::int64_t rows, std::int64_t k, const std::int8_t* qx,
                      const std::int32_t* row_off, float sx, std::int64_t n,
                      const float* bias, float* y, bool codes_fit_i8) {
  constexpr std::int64_t kRowGrain = 8;
  const auto bias_of = [&](std::int64_t r) {
    return bias != nullptr ? bias[r] : 0.0f;
  };
  // Every (row, column block) output is computed by exactly one call with
  // the same per-element sequence, so the loop order is bitwise-free: the
  // column block runs outer so its activation bytes stay L1-hot across the
  // rows of the chunk.
  const auto dispatch = [&](const auto& row_chunk) {
    if (rows * k * n < kMinParallelWork) {
      row_chunk(0, rows);
    } else {
      parallel::parallel_for(0, rows, kRowGrain, row_chunk);
    }
  };
#if defined(UPAQ_S8_VEC) && defined(__AVX2__)
  if (codes_fit_i8) {
    dispatch([&](std::int64_t r0, std::int64_t r1) {
      std::int64_t j0 = 0;
#if defined(__AVX512BW__)
      for (; j0 + 64 <= n; j0 += 64)
        for (std::int64_t r = r0; r < r1; ++r)
          s8_row_block64(cols, codes, segs, row_segs[r], row_segs[r + 1], qx,
                         row_off, sx, j0, bias_of(r), y + r * n + j0);
#endif
      for (; j0 + 16 <= n; j0 += 16)
        for (std::int64_t r = r0; r < r1; ++r)
          s8_row_block16(cols, codes, segs, row_segs[r], row_segs[r + 1], qx,
                         row_off, sx, j0, bias_of(r), y + r * n + j0);
      if (j0 < n) {
        // Column tail (< 16): the scalar-order fused kernels replay the same
        // bias-then-segments element sequence.
        std::int32_t iacc[16];
        for (std::int64_t r = r0; r < r1; ++r)
          s8_segment_block(cols, codes, segs, row_segs[r], row_segs[r + 1], qx,
                           row_off, sx, j0, n - j0, bias_of(r), iacc,
                           y + r * n + j0);
      }
    });
    return;
  }
#else
  (void)codes_fit_i8;
#endif
  // Column block of the generic path: the int32 accumulator covers kColBlock
  // outputs (2 KiB, L1-resident) instead of the whole feature map, and the y
  // block stays L1-hot across a row's segments.
  constexpr std::int64_t kColBlock = 512;
  dispatch([&](std::int64_t r0, std::int64_t r1) {
    workspace::Scope ws;
    std::int32_t* iacc = ws.i32(std::min(n, kColBlock));
    for (std::int64_t j0 = 0; j0 < n; j0 += kColBlock) {
      const std::int64_t nb = std::min(kColBlock, n - j0);
      for (std::int64_t r = r0; r < r1; ++r)
        s8_segment_block(cols, codes, segs, row_segs[r], row_segs[r + 1], qx,
                         row_off, sx, j0, nb, bias_of(r), iacc, y + r * n + j0);
    }
  });
}

namespace {

/// Exact abs-max of a range. Max is associative, commutative, and rounds
/// nothing, so the vector-lane decomposition returns the same value as a
/// scalar sweep for any finite input.
float abs_max_range(const float* src, std::int64_t i0, std::int64_t i1) {
  float a = 0.0f;
  std::int64_t i = i0;
#if defined(UPAQ_S8_VEC) && defined(__AVX2__)
  // GCC will not vectorize float max reductions without -ffast-math, so
  // spell out the lanes (the reduction is exact either way).
  const __m256 absmask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7FFFFFFF));
  __m256 acc = _mm256_setzero_ps();
  for (; i + 8 <= i1; i += 8)
    acc = _mm256_max_ps(acc, _mm256_and_ps(absmask, _mm256_loadu_ps(src + i)));
  alignas(32) float lanes[8];
  _mm256_store_ps(lanes, acc);
  for (float l : lanes) a = std::max(a, l);
#endif
  for (; i < i1; ++i) a = std::max(a, std::fabs(src[i]));
  return a;
}

/// Abs-max with chunked partials: max is exact and order-independent, so
/// combining per-chunk maxima gives the same alpha at any thread count.
float abs_max(const float* src, std::int64_t n) {
  if (n < kMinParallelWork) return abs_max_range(src, 0, n);
  const std::int64_t chunks = (n + kMinParallelWork - 1) / kMinParallelWork;
  std::vector<float> partial(static_cast<std::size_t>(chunks), 0.0f);
  parallel::parallel_for(
      0, n, kMinParallelWork, [&](std::int64_t i0, std::int64_t i1) {
        partial[static_cast<std::size_t>(i0 / kMinParallelWork)] =
            abs_max_range(src, i0, i1);
      });
  float alpha = 0.0f;
  for (float a : partial) alpha = std::max(alpha, a);
  return alpha;
}

/// The symmetric grid of a nonzero abs-max: scale = alpha / (2^(bits-1) - 1),
/// with the reciprocal and clamp bound the converter uses.
struct S8Grid {
  float scale, inv, maxv;
};

S8Grid s8_grid(float alpha, int bits) {
  const double max_value = std::pow(2.0, bits - 1) - 1.0;
  const float scale = static_cast<float>(alpha / max_value);
  return {scale, 1.0f / scale, static_cast<float>(max_value)};
}

/// Codes of src[0, n) into dst[0, n): one multiply + clamp + round-half-away
/// per element, all in float so the loop stays in SIMD registers. Clamping
/// first bounds the value, so the truncating cast is exact. Each element is
/// touched exactly once — the codes cannot depend on vector width or on how
/// callers split the range.
void s8_convert(const float* src, std::int64_t n, const S8Grid& g,
                std::int8_t* dst) {
  std::int64_t i = 0;
#if defined(UPAQ_S8_VEC) && defined(__AVX2__)
  // Same per-element sequence as the scalar tail below — multiply, clamp,
  // add copysign(0.5), truncate — just eight lanes at a time (GCC keeps
  // this loop scalar on its own because of the int8 narrowing store). The
  // clamp bounds every lane inside int8 range, so the saturating packs
  // never saturate and the narrowing is exact.
  const __m256 vinv = _mm256_set1_ps(g.inv);
  const __m256 vmax = _mm256_set1_ps(g.maxv);
  const __m256 vmin = _mm256_set1_ps(-g.maxv);
  const __m256 half = _mm256_set1_ps(0.5f);
  const __m256 signmask = _mm256_castsi256_ps(
      _mm256_set1_epi32(static_cast<std::int32_t>(0x80000000)));
  for (; i + 8 <= n; i += 8) {
    __m256 v = _mm256_mul_ps(_mm256_loadu_ps(src + i), vinv);
    v = _mm256_min_ps(_mm256_max_ps(v, vmin), vmax);
    const __m256 h = _mm256_or_ps(_mm256_and_ps(v, signmask), half);
    const __m256i q = _mm256_cvttps_epi32(_mm256_add_ps(v, h));
    const __m128i w = _mm_packs_epi32(_mm256_castsi256_si128(q),
                                      _mm256_extracti128_si256(q, 1));
    _mm_storel_epi64(reinterpret_cast<__m128i*>(dst + i),
                     _mm_packs_epi16(w, w));
  }
#endif
  for (; i < n; ++i) {
    float v = src[i] * g.inv;
    v = std::min(std::max(v, -g.maxv), g.maxv);
    // Round half away from zero via a truncating cast; copysign keeps the
    // loop branch-free.
    dst[i] = static_cast<std::int8_t>(
        static_cast<std::int32_t>(v + std::copysign(0.5f, v)));
  }
}

/// Scatters one converted input row (w codes) into its phase-plane rows for
/// stride s: input column ix = s*t + r lands in phase b = (r + pad) % s at
/// column t + (r + pad) / s, so each residue r is one contiguous run of the
/// row of phase b, which starts at prow + b * plane.
void s8_scatter_phases(const std::int8_t* codes, std::int64_t w, int s,
                       int pad, std::int64_t plane, std::int8_t* prow) {
  for (int r = 0; r < s && r < w; ++r) {
    std::int8_t* d = prow + ((r + pad) % s) * plane + (r + pad) / s;
    for (std::int64_t ix = r; ix < w; ix += s) *d++ = codes[ix];
  }
}

}  // namespace

float s8_quantize(const float* src, std::int64_t n, int bits,
                  std::int8_t* dst) {
  const float alpha = abs_max(src, n);
  if (alpha == 0.0f) {
    // Caller scratch (workspace arena) is not pre-zeroed, so fill explicitly.
    std::fill(dst, dst + n, static_cast<std::int8_t>(0));
    return 1.0f;
  }
  const S8Grid g = s8_grid(alpha, bits);
  auto convert = [&](std::int64_t i0, std::int64_t i1) {
    s8_convert(src + i0, i1 - i0, g, dst + i0);
  };
  if (n < kMinParallelWork) {
    convert(0, n);
  } else {
    parallel::parallel_for(0, n, kMinParallelWork, convert);
  }
  return g.scale;
}

namespace {

/// Byte offset of tap (ky, kx) of channel ch in the planes of `l`.
std::int64_t tap_offset(const PlaneLayout& l, std::int64_t ch, int ky, int kx) {
  const int s = l.stride;
  return ((ch * s + ky % s) * s + kx % s) * l.plane + (ky / s) * l.wq + kx / s;
}

}  // namespace

PlaneLayout plane_layout(std::int64_t c, std::int64_t h, std::int64_t w,
                         int k, int stride, int pad) {
  UPAQ_CHECK(c > 0 && h > 0 && w > 0 && k > 0 && stride > 0 && pad >= 0,
             "plane_layout: bad conv geometry");
  PlaneLayout l;
  l.c = c;
  l.h = h;
  l.w = w;
  l.k = k;
  l.stride = stride;
  l.pad = pad;
  const std::int64_t hp = h + 2 * pad, wp = w + 2 * pad;
  UPAQ_CHECK(hp >= k && wp >= k, "plane_layout: kernel larger than the map");
  l.oh = (hp - k) / stride + 1;
  l.ow = (wp - k) / stride + 1;
  l.hq = (hp + stride - 1) / stride;
  l.wq = (wp + stride - 1) / stride;
  l.plane = l.hq * l.wq;
  l.n = l.oh * l.wq;
  l.planes_bytes = c * stride * stride * l.plane;
  // The largest offset belongs to the last channel; which of its taps
  // depends on the phase split, so try them all.
  std::int64_t max_row_off = 0;
  for (int ky = 0; ky < k; ++ky)
    for (int kx = 0; kx < k; ++kx)
      max_row_off = std::max(max_row_off, tap_offset(l, c - 1, ky, kx));
  l.bytes = std::max(l.planes_bytes, max_row_off + l.n);
  // The kernels address activation rows with int32 offsets.
  UPAQ_CHECK(l.bytes <= std::numeric_limits<std::int32_t>::max(),
             "plane_layout: plane buffer exceeds int32 offsets");
  return l;
}

void plane_row_offsets(const PlaneLayout& l, std::int32_t* row_off) {
  for (std::int64_t ch = 0; ch < l.c; ++ch)
    for (int ky = 0; ky < l.k; ++ky)
      for (int kx = 0; kx < l.k; ++kx)
        *row_off++ = static_cast<std::int32_t>(tap_offset(l, ch, ky, kx));
}

float s8_quantize_planes(const float* src, const PlaneLayout& l, int bits,
                         std::int8_t* dst) {
  const std::int64_t h = l.h, w = l.w, hw = h * w;
  const float alpha = abs_max(src, l.c * hw);
  if (alpha == 0.0f) {
    std::memset(dst, 0, static_cast<std::size_t>(l.bytes));
    return 1.0f;
  }
  const S8Grid g = s8_grid(alpha, bits);
  const int s = l.stride, pad = l.pad;
  const std::int64_t ch_bytes = s * s * l.plane;
  auto fill = [&](std::int64_t c0, std::int64_t c1) {
    workspace::Scope ws;
    std::int8_t* row = s > 1 ? ws.i8(w) : nullptr;
    for (std::int64_t ch = c0; ch < c1; ++ch) {
      std::int8_t* planes = dst + ch * ch_bytes;
      if (s == 1 && pad == 0) {  // one unpadded phase: the plane is the map
        s8_convert(src + ch * hw, hw, g, planes);
        continue;
      }
      std::memset(planes, 0, static_cast<std::size_t>(ch_bytes));
      for (std::int64_t iy = 0; iy < h; ++iy) {
        const float* xrow = src + ch * hw + iy * w;
        // Padded row iy + pad is row (iy + pad) / s of phase row a.
        const std::int64_t py = iy + pad;
        std::int8_t* prow = planes + (py % s) * s * l.plane + (py / s) * l.wq;
        if (s == 1) {
          s8_convert(xrow, w, g, prow + pad);
        } else {
          s8_convert(xrow, w, g, row);
          s8_scatter_phases(row, w, s, pad, l.plane, prow);
        }
      }
    }
  };
  if (l.c * hw < kMinParallelWork) {
    fill(0, l.c);
  } else {
    parallel::parallel_for(0, l.c, std::max<std::int64_t>(1, kMinParallelWork / hw),
                           fill);
  }
  std::memset(dst + l.planes_bytes, 0,
              static_cast<std::size_t>(l.bytes - l.planes_bytes));
  return g.scale;
}

namespace {

/// nn::Relu::apply's select, v < 0 ? v * slope : v.
inline float relu_select(float v, float slope) {
  const float scaled = v * slope;
  return v < 0.0f ? scaled : v;
}

/// One channel's eval BN constants.
struct BnConst {
  float g = 0.0f, mean = 0.0f, inv_std = 0.0f, beta = 0.0f;
};

/// The epilogue over `count` contiguous elements of one channel.
template <bool kBn, bool kRes, bool kRelu>
void epilogue_run(const float* src, const float* res, std::int64_t count,
                  const BnConst& bn, float slope, float* dst) {
  std::int64_t i = 0;
#ifdef UPAQ_S8_VEC
  for (; i + 8 <= count; i += 8) {
    v8sf v;
    __builtin_memcpy(&v, src + i, sizeof(v));
    if constexpr (kBn) {
      v8sf t = bn.g * (v - bn.mean) * bn.inv_std;
      UPAQ_NO_CONTRACT(t);
      v = t + bn.beta;
    }
    if constexpr (kRes) {
      v8sf r;
      __builtin_memcpy(&r, res + i, sizeof(r));
      v = v + r;
    }
    if constexpr (kRelu) {
      const v8si neg = v < v8sf{};
      const v8sf scaled = v * slope;
      v = (v8sf)(((v8si)scaled & neg) | ((v8si)v & ~neg));
    }
    __builtin_memcpy(dst + i, &v, sizeof(v));
  }
#endif
  for (; i < count; ++i) {
    float v = src[i];
    if constexpr (kBn) {
      float t = bn.g * (v - bn.mean) * bn.inv_std;
      UPAQ_NO_CONTRACT(t);
      v = t + bn.beta;
    }
    if constexpr (kRes) v += res[i];
    if constexpr (kRelu) v = relu_select(v, slope);
    dst[i] = v;
  }
}

template <bool kBn, bool kRes, bool kRelu>
void epilogue_map(const float* src, std::int64_t src_stride,
                  std::int64_t channels, std::int64_t h, std::int64_t w,
                  const Epilogue& e, float* dst) {
  const auto consts = [&](std::int64_t ch) {
    BnConst c;
    if constexpr (kBn)
      c = {e.gamma[ch], e.mean[ch], 1.0f / std::sqrt(e.var[ch] + e.eps),
           e.beta[ch]};
    return c;
  };
  const auto res = [&](std::int64_t off) {
    return kRes ? e.residual + off : nullptr;
  };
  const std::int64_t rows = channels * h;
  if (src_stride == w) {
    // Dense: each channel is one run of h * w elements, so chunk the flat
    // range and split the chunks at channel edges.
    const std::int64_t plane = h * w, total = rows * w;
    auto elems = [&](std::int64_t i0, std::int64_t i1) {
      for (std::int64_t i = i0; i < i1;) {
        const std::int64_t ch = i / plane;
        const std::int64_t end = std::min(i1, (ch + 1) * plane);
        epilogue_run<kBn, kRes, kRelu>(src + i, res(i), end - i, consts(ch),
                                       e.slope, dst + i);
        i = end;
      }
    };
    if (total < kMinParallelWork) {
      elems(0, total);
    } else {
      parallel::parallel_for(0, total, kMinParallelWork, elems);
    }
    return;
  }
  auto row_range = [&](std::int64_t r0, std::int64_t r1) {
    for (std::int64_t r = r0; r < r1;) {
      const std::int64_t ch = r / h;
      const std::int64_t end = std::min(r1, (ch + 1) * h);
      const BnConst bn = consts(ch);
      for (; r < end; ++r)
        epilogue_run<kBn, kRes, kRelu>(src + r * src_stride, res(r * w), w,
                                       bn, e.slope, dst + r * w);
    }
  };
  if (rows * w < kMinParallelWork) {
    row_range(0, rows);
  } else {
    parallel::parallel_for(0, rows, std::max<std::int64_t>(1, kMinParallelWork / w),
                           row_range);
  }
}

}  // namespace

void f32_epilogue(const float* src, std::int64_t src_stride,
                  std::int64_t channels, std::int64_t h, std::int64_t w,
                  const Epilogue& e, float* dst) {
  UPAQ_CHECK(src_stride >= w && (dst != src || src_stride == w),
             "f32_epilogue: rows overlap their output");
  using Map = void (*)(const float*, std::int64_t, std::int64_t, std::int64_t,
                       std::int64_t, const Epilogue&, float*);
  static constexpr Map kMaps[8] = {
      epilogue_map<false, false, false>, epilogue_map<false, false, true>,
      epilogue_map<false, true, false>,  epilogue_map<false, true, true>,
      epilogue_map<true, false, false>,  epilogue_map<true, false, true>,
      epilogue_map<true, true, false>,   epilogue_map<true, true, true>};
  const int which = (e.gamma != nullptr ? 4 : 0) |
                    (e.residual != nullptr ? 2 : 0) | (e.relu ? 1 : 0);
  kMaps[which](src, src_stride, channels, h, w, e, dst);
}

}  // namespace upaq::gemm
