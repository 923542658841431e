// Deterministic, seedable random number generation.
//
// `Rng` wraps a xoshiro256++ engine seeded through splitmix64 and provides
// the sampling primitives used across the library (uniforms, normals, gammas,
// Cauchy draws, shuffles, bootstrap index resampling). Unlike the <random>
// distributions, every draw is implemented here, so streams are reproducible
// across standard library implementations — a requirement for the
// experiment harnesses in bench/.
//
// Rng is cheap to construct and copy; distinct seeds give independent-looking
// streams. Not thread-safe; use one Rng per thread.
//
// Keyed streams: every random decision of an extraction (and of the fault
// model) reads its own short stream, Rng(StreamKey(seed, tag, index)), keyed
// by the run's seed, a phase tag and the decision's index — uniS draw i,
// bootstrap set b, weight probe j, fault attempt (source, epoch, attempt).
// A decision therefore depends on which decision it is, never on which
// thread makes it or in what order, so results are identical at every
// execution width by construction (the counter-based design of Salmon et
// al., SC 2011). Every key comes from the one splitmix chain MixFaultKey;
// outside this file no stream is seeded by ad hoc seed arithmetic.

#ifndef VASTATS_UTIL_RANDOM_H_
#define VASTATS_UTIL_RANDOM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace vastats {

// Domain-separation tags of the keyed streams, one per kind of decision, so
// equal identifiers in different phases read independent-looking streams.
// The values are part of the output contract: changing one moves every
// stream of its phase.
enum class StreamTag : uint64_t {
  // Fault model decisions, keyed (source, epoch, attempt-or-position).
  kFaultFail = 0x7472616e7349656eULL,
  kFaultCorrupt = 0x636f727275707431ULL,
  kFaultLatency = 0x6c6174656e637931ULL,
  kFaultJitter = 0x6a69747465723031ULL,
  // One extraction: uniS draw i, bootstrap set b, stability weight probe j,
  // adaptive round r's replicate sets, and the HAVING sample of a group.
  kUniSDraw = 0x756e697364726177ULL,
  kBootstrapSet = 0x626f6f7473657431ULL,
  kWeightProbe = 0x7770726f62653031ULL,
  kAdaptiveRound = 0x6164726f756e6431ULL,
  kHavingSample = 0x686176696e673031ULL,
  // Per-extraction seeds derived from a parent seed: a served request (by
  // component-sequence fingerprint), a grouped query's group, a monitored
  // query's (id, refresh).
  kRequest = 0x7265717565737431ULL,
  kGroup = 0x67726f7570303031ULL,
  kMonitorQuery = 0x6d6f6e69746f7231ULL,
  // Transport endpoint straggler fate, keyed by request id.
  kStraggler = 0x7374726167676c31ULL,
};

class Rng {
 public:
  using result_type = uint64_t;

  // Seeds the engine; the same seed always yields the same stream.
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  // UniformRandomBitGenerator interface (usable with <algorithm>).
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~uint64_t{0}; }
  result_type operator()() { return NextUint64(); }

  // Returns the next raw 64-bit word from the engine.
  uint64_t NextUint64();

  // Uniform double in [0, 1).
  double Uniform01();

  // Uniform double in [lo, hi). Requires lo <= hi.
  double Uniform(double lo, double hi);

  // Uniform integer in the closed range [lo, hi]. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  // Returns true with probability `p` (clamped to [0, 1]).
  bool Bernoulli(double p);

  // Standard normal draw (Marsaglia polar method; one value cached).
  double StandardNormal();

  // Normal draw with the given mean and standard deviation (sigma >= 0).
  double Normal(double mean, double sigma);

  // Exponential draw with the given rate (lambda > 0).
  double Exponential(double lambda);

  // Cauchy draw with the given location and scale (scale > 0).
  double Cauchy(double location, double scale);

  // Gamma draw with the given shape k > 0 and scale theta > 0
  // (Marsaglia-Tsang; handles k < 1 via the boosting transform).
  double Gamma(double shape, double scale);

  // In-place Fisher-Yates shuffle of `items`.
  template <typename T>
  void Shuffle(std::vector<T>& items) {
    for (size_t i = items.size(); i > 1; --i) {
      size_t j = static_cast<size_t>(UniformInt(0, static_cast<int64_t>(i) - 1));
      using std::swap;
      swap(items[i - 1], items[j]);
    }
  }

  // Returns a uniformly random permutation of {0, ..., n-1}.
  std::vector<int> Permutation(int n);

  // Returns `count` indices drawn uniformly with replacement from [0, n).
  // This is the bootstrap resampling primitive. Requires n > 0.
  std::vector<int> ResampleIndices(int n, int count);

 private:
  uint64_t state_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

// The one key derivation: a splitmix64 chain that mixes `seed ^ a`, then
// `b`, then `c` into a decorrelated 64-bit stream key (one splitmix64
// finalization per word).
uint64_t MixFaultKey(uint64_t seed, uint64_t a, uint64_t b, uint64_t c);

// The key of one random decision: MixFaultKey(seed ^ tag, 0, a, b). The
// seed and the tag get a full splitmix round before any identifier enters,
// so seeds that differ in a few low bits (consecutive seeds) never share a
// decision stream, as they would if an identifier were XORed into the seed.
// Its stream is Rng(StreamKey(seed, tag, a, b)).
uint64_t StreamKey(uint64_t seed, StreamTag tag, uint64_t a, uint64_t b = 0);

// The fault model's key of (source, epoch, attempt-or-position):
// MixFaultKey(seed ^ tag, source, epoch, third). The source enters the
// first round with the seed, so fault models whose seeds differ by
// source_i ^ source_j swap those sources' schedules; kept in this form so
// every fault schedule stays fixed.
uint64_t FaultKey(uint64_t seed, StreamTag tag, uint64_t source,
                  uint64_t epoch, uint64_t third);

}  // namespace vastats

#endif  // VASTATS_UTIL_RANDOM_H_
