// Seeded input generation for the benchmark workloads.
//
// Every input the program sees is a pure function of the workload seed: the
// fixed-length PhysioNet-shaped cohort (train phase, and the stays the ward
// streams), its split, the variable-length cohort written to shards (score
// phase), the decompensation subset, the order in which ward beds
// admit stays, and the ward's arrival schedule (ArrivalSchedule below).
// Digest() hashes all of them, so a self-test can show that one seed
// regenerates byte-identical inputs and another seed does not.

#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/pipeline.h"
#include "util/rng.h"

namespace perfbench {

inline constexpr int64_t kNumFeatures = 37;  // PhysioNet-2012 channels
inline constexpr int64_t kStaySteps = 48;    // fixed-length cohort grid

struct InputSizes {
  int64_t cohort_admissions = 2048;  // fixed-length cohort
  double train_fraction = 0.4;       // ~819 train admissions
  double val_fraction = 0.1;         // test takes the rest (~1024)
  int64_t score_stays = 2048;        // variable-length, on shards
  int64_t score_max_steps = 96;      // longest stay on the shards
  int64_t samples_per_shard = 512;
  int64_t decomp_stays = 64;         // per-step subset of the test split

  static InputSizes Tiny();
};

struct Inputs {
  uint64_t seed = 0;
  // Fixed-length cohort, prepared with a standardizer fit on `split.train`.
  std::vector<elda::data::PreparedSample> cohort;
  elda::data::SplitIndices split;
  // Variable-length cohort on CRC-framed shards, plus its standardizer.
  std::vector<std::string> shard_paths;
  int64_t samples_per_shard = 0;
  int64_t shard_records = 0;
  elda::data::Standardizer shard_standardizer;
  uint64_t loader_seed = 0;
  // Per-step decompensation subset: the first `decomp_stays` test stays
  // of the fixed-length cohort, so its cost does not vary with the seed.
  std::vector<int64_t> decomp;
  // Ward: the order in which beds admit cohort stays, the seed of the
  // arrival schedule, and a factor in [0.95, 1.05] on the ladder's rates,
  // so the rates the search visits differ from seed to seed.
  std::vector<int64_t> stay_order;
  uint64_t ward_seed = 0;
  double ladder_jitter = 1.0;
};

// Generates every input for `seed`; shards go under `work_dir`.
Inputs MakeInputs(uint64_t seed, const InputSizes& sizes,
                  const std::string& work_dir);

// Reads shard record `global_index` (shards hold `samples_per_shard`
// records each) and prepares it with the shard standardizer.
elda::data::PreparedSample ReadShardRecord(const Inputs& inputs,
                                           int64_t global_index);

// Open-loop arrival schedule: exponential inter-arrival gaps at a given
// rate and a uniformly random bed per arrival, from one seeded stream.
class ArrivalSchedule {
 public:
  explicit ArrivalSchedule(uint64_t seed) : rng_(seed) {}
  // Seconds until the next arrival at `rate` arrivals per second.
  double NextGap(double rate);
  int64_t NextBed(int64_t num_beds) { return rng_.UniformInt(num_beds); }

 private:
  elda::Rng rng_;
};

// FNV-1a over every generated input, including the shard files' bytes and
// the first arrivals of the schedule.
uint64_t Digest(const Inputs& inputs);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
