// Deterministic pseudo-random number generation.
//
// All stochastic components in this repository (parameter initialisation,
// dropout, data shuffling, the patient simulator) draw from an explicitly
// seeded Rng so that experiments are reproducible bit-for-bit at a fixed
// seed. The core generator is xoshiro256++, seeded via splitmix64.

#ifndef ELDA_UTIL_RNG_H_
#define ELDA_UTIL_RNG_H_

#include <cstdint>
#include <vector>

namespace elda {

namespace util {
class ByteReader;
class ByteWriter;
}  // namespace util

// Complete serialisable state of an Rng, for crash-safe checkpoint/resume:
// restoring it replays the stream bit-for-bit from the capture point.
struct RngState {
  uint64_t s[4] = {0, 0, 0, 0};
  double cached_normal = 0.0;
  bool has_cached_normal = false;
};

// The RngState codec shared by the train checkpoint's "rng" section and
// the sharded loader's state: u64 s[4] | f64 cached_normal |
// u8 has_cached_normal.
void PutRngState(util::ByteWriter* writer, const RngState& state);
bool GetRngState(util::ByteReader* reader, RngState* state);

// A small, fast, deterministic random number generator.
//
// Not thread-safe: each thread (this project is single-threaded) or each
// logical component should own its own Rng, typically forked from a parent
// via Fork() so that adding draws to one component does not perturb another.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  // Next raw 64-bit value.
  uint64_t Next();

  // Uniform in [0, 1).
  double Uniform();

  // Uniform in [lo, hi).
  double Uniform(double lo, double hi);

  // Uniform integer in [0, n). Requires n > 0.
  int64_t UniformInt(int64_t n);

  // Standard normal via Box-Muller (caches the second deviate).
  double Normal();

  // Normal with the given mean and standard deviation.
  double Normal(double mean, double stddev);

  // Bernoulli draw with success probability p.
  bool Bernoulli(double p);

  // In-place Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* values) {
    for (int64_t i = static_cast<int64_t>(values->size()) - 1; i > 0; --i) {
      int64_t j = UniformInt(i + 1);
      std::swap((*values)[i], (*values)[j]);
    }
  }

  // Returns an independent generator derived from this one's stream. Useful
  // for giving each patient / each layer its own reproducible stream.
  Rng Fork();

  // Snapshot / restore of the full generator state (including the cached
  // Box-Muller deviate), used by the trainer's checkpoint/resume path.
  RngState SaveState() const;
  void RestoreState(const RngState& state);

 private:
  uint64_t state_[4];
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace elda

#endif  // ELDA_UTIL_RNG_H_
