// Integer-accumulate GEMM over packed weights and quantized activations.
//
// Requantization math (DESIGN.md sec. 8): with per-group weight scales s_g
// and one activation scale s_x, an output element is
//   y[r, j] = sum_g s_g * s_x * ( sum_{e in group g of row r} wq_e * xq_e )
// The inner sum is exact integer arithmetic (int32 accumulate of int code
// products; the constructor splits segments so sums cannot overflow) and the
// per-group requantization factor s_g * s_x is applied in float32 — so the
// result is a pure function of the codes and scales, independent of thread
// count, and bitwise deterministic under the upaq::parallel chunking
// contract. (run_t's long dot products accumulate the requantized terms in
// double before the single rounding to float.)
//
// The engine precomputes, per output row, the list of surviving
// (column, code) entries grouped into scale segments, so positions pruned
// away by the pattern masks are never loaded or multiplied.
#pragma once

#include <cstdint>
#include <vector>

#include "qnn/packed.h"
#include "tensor/gemm_kernel.h"
#include "tensor/tensor.h"

namespace upaq::qnn {

/// Quantized activation matrix: symmetric integer codes of a float matrix
/// with one shared scale. Codes use the Algorithm-6 grid of
/// quant::mp_quantize_codes, clamped to at most 8 bits so they fit int8.
struct QuantizedActs {
  std::vector<std::int8_t> codes;  ///< row-major (rows, cols)
  std::int64_t rows = 0, cols = 0;
  float scale = 1.0f;
  int bits = 8;
};

/// Quantizes an activation matrix to `bits` (2..8) integer codes with one
/// per-tensor symmetric scale. Deterministic: one abs-max pass, then a
/// parallel elementwise conversion.
QuantizedActs quantize_acts(const Tensor& m, int bits = 8);

/// Raw-buffer variant: quantizes `rows * cols` floats laid out row-major.
/// Identical arithmetic to the Tensor overload (the scale depends only on
/// the value multiset, not the layout).
QuantizedActs quantize_acts(const float* src, std::int64_t rows,
                            std::int64_t cols, int bits = 8);

/// Allocation-free core: quantizes `count` floats into a caller-provided
/// int8 buffer (the packed layers point this at workspace arena scratch) and
/// returns the symmetric scale. The heap-returning overloads wrap this, so
/// all three produce identical codes for identical values.
float quantize_acts_into(const float* src, std::int64_t count, int bits,
                         std::int8_t* dst);

/// quantize_acts_into for a conv input: quantizes the (c, h, w) map into the
/// zero-padded phase planes of `layout` (layout.bytes bytes at `dst`).
/// Same scale and codes as quantize_acts_into over the map.
float quantize_planes_into(const float* src, const gemm::PlaneLayout& layout,
                           int bits, std::int8_t* dst);

/// Exact float image of the activation codes (for the equivalence tests'
/// fake-quant reference path).
Tensor dequantize_acts(const QuantizedActs& acts);

class PackedGemm {
 public:
  /// Interprets `w` as a (rows, k) row-major 2-D weight; rows * k must equal
  /// w's element count. Scale groups that straddle row boundaries are split
  /// into per-row segments. The codes are decoded ONCE here into per-row
  /// (column, code) entry lists, so steady-state run() calls never touch the
  /// bit-packed representation.
  PackedGemm(const PackedTensor& w, std::int64_t rows, std::int64_t k);

  /// out(rows, n) = requant(Wq * Xq) + bias, with x laid out (k, n).
  /// `bias` (length rows) may be null.
  void run(const QuantizedActs& x, const float* bias, Tensor& out) const;

  /// Raw-buffer variant of run(): `codes` is the (k, n) activation matrix,
  /// `out` a (rows, n) buffer written in place (bias is fused into the
  /// initial fill, so no separate output pass is needed).
  void run(const std::int8_t* codes, float act_scale, std::int64_t n,
           const float* bias, float* out) const;

  /// Offset variant of run(): activation row p is the n bytes at
  /// codes + row_off[p] (the packed conv's zero-padded planes, see
  /// gemm::PlaneLayout). The qgemm_macs counter charges `real_cols` columns
  /// per entry: the conv's padded-width grid carries discarded columns that
  /// are not output.
  void run(const std::int8_t* codes, const std::int32_t* row_off,
           float act_scale, std::int64_t n, std::int64_t real_cols,
           const float* bias, float* out) const;

  /// Transposed-activation variant for Linear: x laid out (n, k) row-major
  /// (one activation row per batch item), out(n, rows).
  void run_t(const QuantizedActs& x, const float* bias, Tensor& out) const;

  /// Raw-buffer variant of run_t(): `codes` is the (n, k) activation matrix,
  /// `out` an (n, rows) buffer written in place.
  void run_t(const std::int8_t* codes, float act_scale, std::int64_t n,
             const float* bias, float* out) const;

  std::int64_t rows() const { return rows_; }
  std::int64_t k() const { return k_; }
  int weight_bits() const { return bits_; }
  std::int64_t entry_count() const {
    return static_cast<std::int64_t>(codes_.size());
  }
  /// Largest per-group weight scale: max_scale * act_scale is the coarsest
  /// requantization step of an output (the equivalence tolerance unit).
  float max_weight_scale() const { return max_scale_; }

 private:
  /// Weight scale + entry range [begin, end) of one group slice of a row.
  using Segment = gemm::QSegment;

  std::vector<std::int32_t> cols_;   ///< per entry: column index in [0, k)
  std::vector<std::int32_t> codes_;  ///< per entry: weight code (never 0)
  std::vector<Segment> segs_;
  std::vector<std::int64_t> row_segs_;  ///< rows_+1 offsets into segs_
  std::int64_t rows_ = 0, k_ = 0;
  int bits_ = 8;
  float max_scale_ = 0.0f;
};

}  // namespace upaq::qnn
