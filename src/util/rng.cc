#include "util/rng.h"

#include <cmath>

#include "util/byte_codec.h"
#include "util/logging.h"

namespace elda {
namespace {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t RotL(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : state_) s = SplitMix64(&sm);
}

uint64_t Rng::Next() {
  // xoshiro256++ step.
  const uint64_t result = RotL(state_[0] + state_[3], 23) + state_[0];
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = RotL(state_[3], 45);
  return result;
}

double Rng::Uniform() {
  // 53 high-quality bits into [0, 1).
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }

int64_t Rng::UniformInt(int64_t n) {
  ELDA_CHECK_GT(n, 0);
  // Rejection sampling to avoid modulo bias.
  const uint64_t un = static_cast<uint64_t>(n);
  const uint64_t limit = UINT64_MAX - UINT64_MAX % un;
  uint64_t v = Next();
  while (v >= limit) v = Next();
  return static_cast<int64_t>(v % un);
}

double Rng::Normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Box-Muller transform; u1 is kept away from zero for the log.
  double u1 = Uniform();
  while (u1 <= 1e-300) u1 = Uniform();
  const double u2 = Uniform();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * M_PI * u2;
  cached_normal_ = radius * std::sin(angle);
  has_cached_normal_ = true;
  return radius * std::cos(angle);
}

double Rng::Normal(double mean, double stddev) {
  return mean + stddev * Normal();
}

bool Rng::Bernoulli(double p) { return Uniform() < p; }

Rng Rng::Fork() { return Rng(Next()); }

RngState Rng::SaveState() const {
  RngState state;
  for (int i = 0; i < 4; ++i) state.s[i] = state_[i];
  state.cached_normal = cached_normal_;
  state.has_cached_normal = has_cached_normal_;
  return state;
}

void Rng::RestoreState(const RngState& state) {
  for (int i = 0; i < 4; ++i) state_[i] = state.s[i];
  cached_normal_ = state.cached_normal;
  has_cached_normal_ = state.has_cached_normal;
}

void PutRngState(util::ByteWriter* writer, const RngState& state) {
  writer->PutArray(state.s, 4);
  writer->Put(state.cached_normal);
  writer->Put<uint8_t>(state.has_cached_normal ? 1 : 0);
}

bool GetRngState(util::ByteReader* reader, RngState* state) {
  uint8_t has_cached = 0;
  if (!reader->GetArray(state->s, 4) || !reader->Get(&state->cached_normal) ||
      !reader->Get(&has_cached)) {
    return false;
  }
  state->has_cached_normal = has_cached != 0;
  return true;
}

}  // namespace elda
