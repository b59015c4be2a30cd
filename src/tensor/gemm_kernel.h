// Cache-blocked, panel-packed GEMM micro-kernels.
//
// The float GEMM entry points of tensor/ops.h (and the qnn integer path)
// dispatch here. Two regimes, chosen per call from the *data*, never from
// the thread count:
//
//   dense  — the value matrix A is packed into MR-row panels, B into NR-column
//            panels, and an MR x NR register micro-tile walks KC-deep slabs.
//            Blocking: the N dimension is cut into fixed kNC-column stripes
//            (one stripe per parallel chunk — stripes own disjoint C columns,
//            so results are bitwise thread-count independent); within a
//            stripe the K dimension is cut into kKC slabs whose B panels are
//            packed into the thread workspace.
//   sparse — when more than kSparseZeroFraction of A is exactly zero (the
//            pattern-pruned conv weights), the zero-skipping row kernel is
//            kept: per-element skips beat dense panel math at 2-of-9 or
//            3-of-9 density, and the panel pack would erase the sparsity.
//
// Determinism: tile constants are compile-time fixed; stripe/slab boundaries
// are pure functions of (m, k, n). A C element is written by exactly one
// stripe, accumulating KC slabs in ascending k order, so 1-thread and
// N-thread runs are bitwise identical (tests/test_determinism.cpp).
//
// All scratch (panel packs) comes from workspace::Scope — steady-state calls
// allocate nothing.
//
// The TU also hosts the packed path's hot loops for its -march=native
// codegen: the integer segment GEMM, the int8 activation quantizer, the
// zero-padded plane build the packed conv reads its taps from
// (PlaneLayout), and the eval conv epilogue (BN, residual add, ReLU).
#pragma once

#include <cstdint>
#include <vector>

namespace upaq::gemm {

// Register micro-tile: MR x NR fp32 accumulators. 6x8 = 12 SSE registers of
// accumulator state, leaving room for the A broadcasts and B loads without
// spilling at the baseline x86-64 ISA.
inline constexpr std::int64_t kMR = 6;
inline constexpr std::int64_t kNR = 8;
// K slab depth: one A panel (kMR * kKC floats) stays L1-resident while it
// sweeps the stripe's B panels.
inline constexpr std::int64_t kKC = 256;
// Stripe width (multiple of kNR): the parallel grain over N. A stripe's B
// slab pack is kKC * kNC * 4 bytes = 256 KiB, L2-resident per thread.
inline constexpr std::int64_t kNC = 256;
// A-matrix zero fraction above which the zero-skipping row kernel wins over
// dense panel math (pattern-pruned weights sit at 6/9 .. 7/9 zeros).
inline constexpr double kSparseZeroFraction = 0.5;

/// Pre-packed form of an (m x k) row-major A matrix, so steady-state callers
/// (conv weights) skip both the 2-D view copy and the per-call panel pack.
/// The representation matches the dispatch the values ask for: panel-packed
/// when dense, a plain row-major copy when the zero-skip path wins.
struct PackedA {
  std::int64_t m = 0, k = 0;
  bool sparse = false;
  std::vector<float> data;
  bool empty() const { return m == 0; }
};

/// Packs (and classifies) A once. Deterministic: layout and sparse/dense
/// choice depend only on the matrix contents.
PackedA pack_a(const float* a, std::int64_t m, std::int64_t k);

/// C(m,n) += alpha * A(m,k) * B(k,n); raw row-major buffers. Dispatches to
/// the sparse row kernel or the blocked panel kernel by A's zero fraction.
void gemm(const float* a, const float* b, float* c, std::int64_t m,
          std::int64_t k, std::int64_t n, float alpha);

/// gemm() over a pre-packed A (no per-call classification or A pack).
void gemm_packed(const PackedA& a, const float* b, float* c, std::int64_t n,
                 float alpha);

/// C(m,n) += alpha * A(m,k) * B(n,k)^T — both operands row-major, B read as
/// its transpose (the conv dW orientation). Always blocked: the B panel pack
/// absorbs the transpose, so the micro-kernel is the same as gemm()'s.
void gemm_nt(const float* a, const float* b, float* c, std::int64_t m,
             std::int64_t k, std::int64_t n, float alpha);

/// One scale segment of a packed weight row: entries [begin, end) of the
/// qnn entry lists share the weight scale `scale`.
struct QSegment {
  float scale = 1.0f;
  std::int64_t begin = 0, end = 0;
};

/// The integer GEMM behind every qnn::PackedGemm::run:
/// y(rows, n) = requant(Wq * Xq) + bias over the entry lists, column-blocked
/// with the fused 1/2/3-entry kernels and the generic int32-accumulate path.
/// Activation row p (the k index of an entry column) is the n bytes at
/// qx + row_off[p]: a plain row-major (k, n) matrix passes row_off[p] = p*n,
/// the packed conv passes its plane offsets (see PlaneLayout). Per output
/// element the operation order is: bias fill, then one requantizing
/// multiply-add per segment in ascending segment order — the invariant every
/// column block, tail and ISA reproduces. Parallel over row chunks (disjoint
/// outputs, shape-only gating), so thread-count independent; within a chunk
/// the column block is the outer loop, so one block of activation bytes
/// serves every row of the chunk while it is L1-hot.
///
/// `codes_fit_i8` (every |code| <= 127, i.e. weight bits <= 8) unlocks the
/// vpmaddubsw 2-MACs/lane sub-byte kernel: entry pairs multiply as
/// |w| x sign-transferred activations with exact int16 pair sums
/// (2 * 127^2 < 2^15) widened to int32, and a 16-column output block (64
/// columns where the kernel TU targets AVX-512BW; 16-column blocks then take
/// the n mod 64 tails) stays in registers across all of a row's segments.
/// Integer sums are exact either
/// way, and the per-element float sequence is unchanged, so the flag can
/// never alter results — only speed.
void s8_gemm_segments(const std::int32_t* cols, const std::int32_t* codes,
                      const QSegment* segs, const std::int64_t* row_segs,
                      std::int64_t rows, std::int64_t k, const std::int8_t* qx,
                      const std::int32_t* row_off, float sx, std::int64_t n,
                      const float* bias, float* y, bool codes_fit_i8 = false);

/// Symmetric activation quantization core (the hot half of
/// qnn::quantize_acts_into, hosted here for the kernel TU's codegen):
/// chunked-max abs scan, then per element one multiply, clamp, and
/// round-half-away-from-zero truncating cast into `dst`. Returns the scale.
/// Every per-element operation is exact and order-independent (max combines
/// associatively; the convert touches each element once), so the result is
/// identical at any vector width or thread count.
float s8_quantize(const float* src, std::int64_t n, int bits, std::int8_t* dst);

/// Zero-padded int8 activation planes: what the packed conv feeds the
/// segment GEMM instead of an im2col matrix. For a k x k conv with stride s
/// and pad p over a (c, h, w) map:
///   - the padded map (hp = h + 2p, wp = w + 2p) is split into s x s phase
///     planes; phase (a, b) holds padded positions (s*y + a, s*x + b), so it
///     has hq = ceil(hp / s) rows of wq = ceil(wp / s) bytes. Stride 1 has
///     one phase: the padded map itself.
///   - channel ch's phases are contiguous, phase (a, b) of channel ch at
///     byte ((ch*s + a)*s + b) * plane, plane = hq * wq.
///   - the GEMM runs over the padded-width output grid: output (oy, ox) is
///     column oy*wq + ox, n = oh*wq. Columns with ox >= ow are computed and
///     discarded (the caller copies the ow valid columns of each row).
///   - im2col row r = (ch*k + ky)*k + kx, the tap (ky, kx) of channel ch, is
///     then a constant offset:
///       row_off[r] = ((ch*s + ky%s)*s + kx%s) * plane + (ky/s)*wq + kx/s
///     and the GEMM reads its n bytes at planes + row_off[r].
/// Footprint: `bytes` = max(planes_bytes, max_r row_off[r] + n). Past the
/// last plane sits the slack that the discarded columns of the final output
/// rows read; it is zero-filled. The GEMM never reads outside [0, bytes),
/// vector blocks included, so an exactly sized buffer is enough.
struct PlaneLayout {
  std::int64_t c = 0, h = 0, w = 0;
  int k = 1, stride = 1, pad = 0;
  std::int64_t oh = 0, ow = 0;
  std::int64_t hq = 0, wq = 0;       ///< phase-plane rows and row bytes
  std::int64_t plane = 0;            ///< bytes per phase plane, hq * wq
  std::int64_t n = 0;                ///< GEMM grid columns, oh * wq
  std::int64_t planes_bytes = 0;     ///< c * s * s * plane
  std::int64_t bytes = 0;            ///< planes + slack
};

/// The layout of a conv input. Checks that every byte offset fits int32.
PlaneLayout plane_layout(std::int64_t c, std::int64_t h, std::int64_t w,
                         int k, int stride, int pad);

/// Writes the c*k*k row offsets (im2col row order) of `l` into row_off.
void plane_row_offsets(const PlaneLayout& l, std::int32_t* row_off);

/// Quantizes the (c, h, w) float map at `src` into l.bytes zero-padded
/// phase-plane bytes at `dst` and returns the scale. The scale and every
/// code equal s8_quantize's over the same map: the same abs-max, and per
/// element the same multiply, clamp and round-half-away cast; padding and
/// slack are code 0, which is what quantizing a padded float zero gives.
float s8_quantize_planes(const float* src, const PlaneLayout& l, int bits,
                         std::int8_t* dst);

/// The eval-mode conv epilogue: what a conv's consumers (BN, a residual
/// add, ReLU) do to its output, applied in the one pass that stores it.
/// Per element, in this order and with exactly these roundings:
///   v = src                                    the conv output
///   t = gamma * (v - mean) * inv_std           BN, inv_std = 1 / sqrt(var + eps);
///   v = t + beta                               the product is pinned before
///                                              the add, so no FMA contraction
///   v = v + residual
///   v = v < 0 ? v * slope : v                  nn::Relu::apply's select
/// Each step is optional: BN when `gamma` is set, the add when `residual`
/// is, the select when `relu` is.
struct Epilogue {
  const float* gamma = nullptr;  ///< per channel; null = no BN
  const float* beta = nullptr;
  const float* mean = nullptr;   ///< running statistics
  const float* var = nullptr;
  float eps = 0.0f;
  const float* residual = nullptr;  ///< laid out like dst; null = no add
  bool relu = false;
  float slope = 0.0f;
  bool empty() const {
    return gamma == nullptr && residual == nullptr && !relu;
  }
};

/// Applies `e` to a (channels, h, w) map. Row (ch, y) is read from the w
/// floats at src + (ch*h + y) * src_stride, so a conv's padded-width grid
/// (src_stride = PlaneLayout::wq) is cropped to its w valid columns in the
/// same pass, and written to dst + (ch*h + y) * w; e.residual has dst's
/// layout. `dst` may equal `src` when src_stride == w (in place). One
/// 8-lane vector body with a scalar tail; parallel over static chunks of
/// rows (elements when the map is dense) above the kernel TU's parallel
/// threshold. Every element is computed independently, so the result is
/// the same at any thread count, vector width or column position.
void f32_epilogue(const float* src, std::int64_t src_stride,
                  std::int64_t channels, std::int64_t h, std::int64_t w,
                  const Epilogue& e, float* dst);

}  // namespace upaq::gemm
