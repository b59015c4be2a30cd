// Out-of-line Rng code, built with the kernel TU's native options plus
// -ffp-contract=off (see CMakeLists.txt): the MT19937-64 block refill and
// the batched polar-method normals. Both must stay bitwise equal to
// libstdc++'s std::mt19937_64 and std::normal_distribution<float>.
#include "tensor/rng.h"

#include <algorithm>
#include <cmath>

namespace upaq {

void Mt19937_64::refill() {
  constexpr std::size_t kN = kStateSize, kM = 156;
  constexpr result_type kUpper = ~result_type{0} << 31;
  constexpr result_type kLower = ~kUpper;
  constexpr result_type kMatrix = 0xb5026f5aa96619e9ULL;
  auto twist = [](result_type hi, result_type lo, result_type far) {
    const result_type y = (hi & kUpper) | (lo & kLower);
    return far ^ (y >> 1) ^ ((y & 1) ? kMatrix : 0);
  };
  std::size_t k = 0;
  for (; k < kN - kM; ++k) state_[k] = twist(state_[k], state_[k + 1], state_[k + kM]);
  for (; k < kN - 1; ++k)
    state_[k] = twist(state_[k], state_[k + 1], state_[k + kM - kN]);
  state_[kN - 1] = twist(state_[kN - 1], state_[0], state_[kM - 1]);
  pos_ = 0;
}

void Mt19937_64::generate(result_type* out, std::size_t n) {
  while (n > 0) {
    if (pos_ >= kStateSize) refill();
    const std::size_t take = std::min(n, kStateSize - pos_);
    for (std::size_t i = 0; i < take; ++i) out[i] = temper(state_[pos_ + i]);
    pos_ += take;
    out += take;
    n -= take;
  }
}

void Rng::normal_fill(float* out, std::size_t n, float mean, float stddev) {
  // libstdc++'s polar method, one fresh distribution per value: draw (x, y)
  // pairs until 0 < r2 <= 1, return y * sqrt(-2 ln r2 / r2) and discard the
  // x half. Every value still owed needs at least one more pair, so a round
  // of min(kPairs, n) pairs never draws past the last call's pairs.
  constexpr std::size_t kPairs = 256;
  std::uint64_t words[2 * kPairs];
  float ys[kPairs], r2s[kPairs];
  while (n > 0) {
    const std::size_t pairs = std::min(kPairs, n);
    engine_.generate(words, 2 * pairs);
    for (std::size_t i = 0; i < pairs; ++i) {
      // std::generate_canonical<float, 24> over a 64-bit engine: one word,
      // scaled by 2^-64 and clamped below 1; 2u - 1 is taken in double.
      float u[2];
      for (int c = 0; c < 2; ++c)
        u[c] = std::min(static_cast<float>(words[2 * i + c]) * 0x1p-64f, 0x1.fffffep-1f);
      const float x = 2.0f * u[0] - 1.0;
      const float y = 2.0f * u[1] - 1.0;
      ys[i] = y;
      r2s[i] = x * x + y * y;
    }
    // Compact the accepted pairs (0 < r2 <= 1) to the front, in order.
    std::size_t kept = 0;
    for (std::size_t i = 0; i < pairs; ++i) {
      const float y = ys[i], r2 = r2s[i];
      ys[kept] = y;
      r2s[kept] = r2;
      kept += (r2 <= 1.0f && r2 != 0.0f) ? 1 : 0;
    }
    for (std::size_t j = 0; j < kept; ++j) {
      const float mult = std::sqrt(-2 * std::log(r2s[j]) / r2s[j]);
      out[j] = ys[j] * mult * stddev + mean;
    }
    out += kept;
    n -= kept;
  }
}

}  // namespace upaq
