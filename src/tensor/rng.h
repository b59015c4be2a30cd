// Deterministic random-number utilities.
//
// Every stochastic component in UPAQ (weight init, the Algorithm-2 pattern
// generator, the synthetic dataset) takes an explicit Rng so runs are
// reproducible bit-for-bit and tests can sweep seeds.
#pragma once

#include <cstddef>
#include <cstdint>
#include <random>

namespace upaq {

/// MT19937-64: the same seeding, recurrence and tempering as
/// std::mt19937_64, so it emits the same words for the same seed and every
/// std:: distribution draws the same values from it. It exists so the block
/// refill is one strong, out-of-line symbol built with the kernel TU's
/// native options (rng.cpp); libstdc++'s refill is a weak inline template
/// whose copy — and speed — depends on which TU the linker sees first.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;

  explicit Mt19937_64(result_type seed = 5489u) {
    state_[0] = seed;
    for (std::size_t i = 1; i < kStateSize; ++i) {
      const result_type prev = state_[i - 1];
      state_[i] = 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
    }
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    if (pos_ >= kStateSize) refill();
    return temper(state_[pos_++]);
  }

  /// Writes the next n words to out: the same words n operator() calls
  /// return, tempered a block at a time.
  void generate(result_type* out, std::size_t n);

 private:
  static constexpr std::size_t kStateSize = 312;

  static result_type temper(result_type z) {
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    return z ^ (z >> 43);
  }

  /// Regenerates all kStateSize words (the twist) and rewinds pos_.
  void refill();

  result_type state_[kStateSize];
  std::size_t pos_ = kStateSize;
};

/// Thin deterministic RNG wrapper around Mt19937_64 with convenience draws
/// used throughout the codebase.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x5eedULL) : engine_(seed) {}

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  int uniform_int(int lo, int hi) {
    std::uniform_int_distribution<int> d(lo, hi);
    return d(engine_);
  }

  /// Uniform real in [lo, hi).
  float uniform(float lo = 0.0f, float hi = 1.0f) {
    std::uniform_real_distribution<float> d(lo, hi);
    return d(engine_);
  }

  /// Standard normal scaled by `stddev` around `mean`.
  float normal(float mean = 0.0f, float stddev = 1.0f) {
    std::normal_distribution<float> d(mean, stddev);
    return d(engine_);
  }

  /// Writes exactly the values `n` successive normal(mean, stddev) calls
  /// would return and leaves the engine where those calls would leave it.
  /// Batched over engine words; allocates nothing.
  void normal_fill(float* out, std::size_t n, float mean, float stddev);

  /// Bernoulli draw with probability p of true.
  bool bernoulli(double p) {
    std::bernoulli_distribution d(p);
    return d(engine_);
  }

  /// Derive an independent child stream; used to give each subsystem its
  /// own stream so adding draws in one place does not perturb another.
  Rng fork() { return Rng(engine_() ^ 0x9e3779b97f4a7c15ULL); }

  Mt19937_64& engine() { return engine_; }

 private:
  Mt19937_64 engine_;
};

}  // namespace upaq
