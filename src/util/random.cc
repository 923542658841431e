#include "util/random.h"

#include <cmath>

namespace vastats {
namespace {

inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

// splitmix64: expands a seed into engine state and mixes stream keys.
inline uint64_t SplitMix64(uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

uint64_t MixFaultKey(uint64_t seed, uint64_t a, uint64_t b, uint64_t c) {
  uint64_t key = seed ^ a;
  for (const uint64_t word : {b, c}) key = SplitMix64(key) ^ word;
  return SplitMix64(key);
}

uint64_t StreamKey(uint64_t seed, StreamTag tag, uint64_t a, uint64_t b) {
  return MixFaultKey(seed ^ static_cast<uint64_t>(tag), 0, a, b);
}

uint64_t FaultKey(uint64_t seed, StreamTag tag, uint64_t source,
                  uint64_t epoch, uint64_t third) {
  return MixFaultKey(seed ^ static_cast<uint64_t>(tag), source, epoch, third);
}

Rng::Rng(uint64_t seed) {
  uint64_t s = seed;
  for (auto& word : state_) word = SplitMix64(s);
  // xoshiro must not start in the all-zero state.
  if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) state_[0] = 1;
}

uint64_t Rng::NextUint64() {
  // xoshiro256++ step.
  const uint64_t result = Rotl(state_[0] + state_[3], 23) + state_[0];
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

double Rng::Uniform01() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) {
  return lo + (hi - lo) * Uniform01();
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  // Rejection sampling for an unbiased draw in [0, range].
  const uint64_t range = static_cast<uint64_t>(hi - lo);
  if (range == ~uint64_t{0}) return static_cast<int64_t>(NextUint64());
  const uint64_t buckets = range + 1;
  const uint64_t limit = (~uint64_t{0}) - ((~uint64_t{0}) % buckets);
  uint64_t draw = NextUint64();
  while (draw >= limit) draw = NextUint64();
  return lo + static_cast<int64_t>(draw % buckets);
}

bool Rng::Bernoulli(double p) { return Uniform01() < p; }

double Rng::StandardNormal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Marsaglia polar method.
  double u, v, s;
  do {
    u = 2.0 * Uniform01() - 1.0;
    v = 2.0 * Uniform01() - 1.0;
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  cached_normal_ = v * factor;
  has_cached_normal_ = true;
  return u * factor;
}

double Rng::Normal(double mean, double sigma) {
  return mean + sigma * StandardNormal();
}

double Rng::Exponential(double lambda) {
  // Guard against log(0).
  double u = Uniform01();
  while (u <= 0.0) u = Uniform01();
  return -std::log(u) / lambda;
}

double Rng::Cauchy(double location, double scale) {
  // Inverse CDF; avoid the poles of tan at +-pi/2 exactly.
  double u = Uniform01();
  while (u == 0.5) u = Uniform01();
  constexpr double kPi = 3.14159265358979323846;
  return location + scale * std::tan(kPi * (u - 0.5));
}

double Rng::Gamma(double shape, double scale) {
  if (shape < 1.0) {
    // Boosting transform: Gamma(k) = Gamma(k+1) * U^(1/k).
    const double g = Gamma(shape + 1.0, 1.0);
    double u = Uniform01();
    while (u <= 0.0) u = Uniform01();
    return scale * g * std::pow(u, 1.0 / shape);
  }
  // Marsaglia-Tsang squeeze method.
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x, v;
    do {
      x = StandardNormal();
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    const double u = Uniform01();
    if (u < 1.0 - 0.0331 * x * x * x * x) return scale * d * v;
    if (u > 0.0 &&
        std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) {
      return scale * d * v;
    }
  }
}

std::vector<int> Rng::Permutation(int n) {
  std::vector<int> perm(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) perm[static_cast<size_t>(i)] = i;
  Shuffle(perm);
  return perm;
}

std::vector<int> Rng::ResampleIndices(int n, int count) {
  std::vector<int> indices(static_cast<size_t>(count));
  for (int& index : indices) {
    index = static_cast<int>(UniformInt(0, n - 1));
  }
  return indices;
}

}  // namespace vastats
