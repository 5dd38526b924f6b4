#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iterator>

#include "data/shard_io.h"
#include "data/sharded_loader.h"
#include "synth/simulator.h"
#include "util/logging.h"

namespace perfbench {

using namespace elda;

namespace {

// splitmix64: independent sub-seeds from the one workload seed.
uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

class Fnv {
 public:
  void Bytes(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      hash_ ^= p[i];
      hash_ *= 0x100000001B3ULL;
    }
  }
  template <typename T>
  void Pod(const T& v) { Bytes(&v, sizeof(v)); }
  template <typename T>
  void Vec(const std::vector<T>& v) {
    Pod(v.size());
    if (!v.empty()) Bytes(v.data(), v.size() * sizeof(T));
  }
  void Tens(const elda::Tensor& t) {
    Pod(t.size());
    if (t.size() > 0) Bytes(t.data(), static_cast<size_t>(t.size()) * 4);
  }
  void Sample(const data::PreparedSample& s) {
    Tens(s.x);
    Tens(s.mask);
    Tens(s.delta);
    Pod(s.length);
    Pod(s.mortality_label);
    Pod(s.los_gt7_label);
    Vec(s.decomp_labels);
    Vec(s.phenotype_labels);
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xCBF29CE484222325ULL;
};

}  // namespace

InputSizes InputSizes::Tiny() {
  InputSizes sizes;
  sizes.cohort_admissions = 384;
  sizes.train_fraction = 0.5;
  sizes.score_stays = 96;
  sizes.score_max_steps = 24;
  sizes.samples_per_shard = 32;
  sizes.decomp_stays = 8;
  return sizes;
}

Inputs MakeInputs(uint64_t seed, const InputSizes& sizes,
                  const std::string& work_dir) {
  Inputs in;
  in.seed = seed;

  // Fixed-length cohort: the paper's Table III workload shape.
  synth::CohortConfig cohort_config = synth::SynthPhysioNet2012();
  cohort_config.num_admissions = sizes.cohort_admissions;
  cohort_config.num_steps = kStaySteps;
  cohort_config.seed = SubSeed(seed, 1);
  const data::EmrDataset cohort = synth::GenerateCohort(cohort_config);
  std::vector<float> labels;
  labels.reserve(static_cast<size_t>(cohort.size()));
  for (const data::EmrSample& s : cohort.samples()) {
    labels.push_back(s.mortality_label);
  }
  Rng split_rng(SubSeed(seed, 2));
  in.split = data::StratifiedSplit(labels, sizes.train_fraction,
                                   sizes.val_fraction, &split_rng);
  data::Standardizer standardizer;
  standardizer.Fit(cohort, in.split.train);
  in.cohort = data::PrepareDataset(cohort, standardizer);

  // Variable-length cohort streamed to shards.
  synth::CohortConfig score_config = synth::SynthPhysioNet2012();
  score_config.num_admissions = sizes.score_stays;
  score_config.variable_length = true;
  score_config.max_steps = sizes.score_max_steps;
  score_config.seed = SubSeed(seed, 3);
  const synth::ShardedCohortInfo info = synth::GenerateCohortToShards(
      score_config, work_dir + "/score", sizes.samples_per_shard);
  in.shard_paths = info.paths;
  in.samples_per_shard = sizes.samples_per_shard;
  in.shard_records = info.num_samples;
  in.shard_standardizer = data::FitStandardizerFromShards(in.shard_paths);
  in.loader_seed = SubSeed(seed, 4);

  in.decomp.assign(
      in.split.test.begin(),
      in.split.test.begin() +
          std::min<int64_t>(sizes.decomp_stays,
                            static_cast<int64_t>(in.split.test.size())));

  in.stay_order.resize(in.cohort.size());
  for (size_t i = 0; i < in.stay_order.size(); ++i) {
    in.stay_order[i] = static_cast<int64_t>(i);
  }
  Rng order_rng(SubSeed(seed, 5));
  order_rng.Shuffle(&in.stay_order);
  in.ward_seed = SubSeed(seed, 6);
  Rng jitter_rng(SubSeed(seed, 7));
  in.ladder_jitter = jitter_rng.Uniform(0.95, 1.05);
  return in;
}

data::PreparedSample ReadShardRecord(const Inputs& inputs,
                                     int64_t global_index) {
  const int64_t shard = global_index / inputs.samples_per_shard;
  ELDA_CHECK(shard < static_cast<int64_t>(inputs.shard_paths.size()));
  data::ShardReader reader(inputs.shard_paths[static_cast<size_t>(shard)]);
  ELDA_CHECK(reader.ok()) << reader.error();
  data::EmrSample sample;
  ELDA_CHECK(reader.Read(global_index % inputs.samples_per_shard, &sample))
      << "shard record " << global_index << " failed validation";
  return data::PrepareOne(sample, inputs.shard_standardizer);
}

double ArrivalSchedule::NextGap(double rate) {
  // 1 - U lies in (0, 1], so the log is finite.
  return -std::log(1.0 - rng_.Uniform()) / rate;
}

uint64_t Digest(const Inputs& inputs) {
  Fnv fnv;
  fnv.Pod(inputs.seed);
  for (const data::PreparedSample& s : inputs.cohort) fnv.Sample(s);
  fnv.Vec(inputs.split.train);
  fnv.Vec(inputs.split.val);
  fnv.Vec(inputs.split.test);
  for (const std::string& path : inputs.shard_paths) {
    std::ifstream file(path, std::ios::binary);
    const std::vector<char> bytes((std::istreambuf_iterator<char>(file)),
                                  std::istreambuf_iterator<char>());
    fnv.Vec(bytes);
  }
  fnv.Pod(inputs.loader_seed);
  fnv.Vec(inputs.decomp);
  fnv.Vec(inputs.stay_order);
  fnv.Pod(inputs.ladder_jitter);
  ArrivalSchedule schedule(inputs.ward_seed);
  for (int i = 0; i < 4096; ++i) {
    fnv.Pod(schedule.NextGap(1000.0));
    fnv.Pod(schedule.NextBed(1024));
  }
  return fnv.value();
}

}  // namespace perfbench
