// Out-of-core data substrate tests: shard round-trips, corruption
// containment, and the ShardedLoader's bitwise determinism contracts
// (prefetch on/off, any thread count, resume-from-cursor, streamed
// training).

#include "data/shard_io.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "data/pipeline.h"
#include "data/sharded_loader.h"
#include "gtest/gtest.h"
#include "nn/gru.h"
#include "nn/linear.h"
#include "par/par.h"
#include "synth/simulator.h"
#include "train/trainer.h"

namespace elda {
namespace data {
namespace {

synth::CohortConfig RaggedConfig(int64_t admissions, uint64_t seed = 91) {
  synth::CohortConfig config = synth::SynthPhysioNet2012();
  config.num_admissions = admissions;
  config.variable_length = true;
  config.max_steps = 60;  // keep the test grids small
  config.seed = seed;
  return config;
}

std::string TempPrefix(const std::string& tag) {
  return testing::TempDir() + "/" + tag;
}

void ExpectSamplesBitwiseEqual(const EmrSample& a, const EmrSample& b) {
  ASSERT_EQ(a.num_steps, b.num_steps);
  ASSERT_EQ(a.num_features, b.num_features);
  EXPECT_EQ(a.length, b.length);
  EXPECT_EQ(a.patient_id, b.patient_id);
  EXPECT_EQ(a.condition, b.condition);
  EXPECT_EQ(std::memcmp(&a.mortality_label, &b.mortality_label,
                        sizeof(float)),
            0);
  EXPECT_EQ(std::memcmp(&a.los_gt7_label, &b.los_gt7_label, sizeof(float)),
            0);
  ASSERT_EQ(a.values.size(), b.values.size());
  EXPECT_EQ(std::memcmp(a.values.data(), b.values.data(),
                        a.values.size() * sizeof(float)),
            0);
  EXPECT_EQ(a.observed, b.observed);
}

int64_t FileSize(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  return static_cast<int64_t>(in.tellg());
}

void CorruptByteAt(const std::string& path, int64_t offset_from_end) {
  std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
  file.seekg(0, std::ios::end);
  const int64_t size = static_cast<int64_t>(file.tellg());
  file.seekg(size - offset_from_end);
  char byte = 0;
  file.read(&byte, 1);
  byte ^= 0x5A;
  file.seekp(size - offset_from_end);
  file.write(&byte, 1);
}

void TruncateFile(const std::string& path, int64_t new_size) {
  std::ifstream in(path, std::ios::binary);
  std::vector<char> bytes(new_size);
  in.read(bytes.data(), new_size);
  in.close();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), new_size);
}

TEST(ShardIoTest, RoundTripIsBitwise) {
  const EmrDataset cohort = synth::GenerateCohort(RaggedConfig(24));
  const std::string path = TempPrefix("roundtrip") + "-00000.elds";
  {
    ShardWriter writer(path, cohort.feature_names());
    for (int64_t i = 0; i < cohort.size(); ++i) writer.Append(cohort.sample(i));
    ASSERT_TRUE(writer.Close());
    EXPECT_EQ(writer.num_records(), cohort.size());
  }
  ShardReader reader(path);
  ASSERT_TRUE(reader.ok()) << reader.error();
  EXPECT_FALSE(reader.tail_truncated());
  ASSERT_EQ(reader.size(), cohort.size());
  EXPECT_EQ(reader.feature_names(), cohort.feature_names());
  for (int64_t i = 0; i < cohort.size(); ++i) {
    EmrSample sample;
    ASSERT_TRUE(reader.Read(i, &sample)) << i;
    ExpectSamplesBitwiseEqual(cohort.sample(i), sample);
    EXPECT_EQ(reader.PeekLength(i), cohort.sample(i).length);
  }
  EXPECT_EQ(reader.num_quarantined(), 0);
}

TEST(ShardIoTest, ShardedGenerationMatchesInRamGenerator) {
  const synth::CohortConfig config = RaggedConfig(40);
  const EmrDataset in_ram = synth::GenerateCohort(config);
  const synth::ShardedCohortInfo info = synth::GenerateCohortToShards(
      config, TempPrefix("gen_match"), /*samples_per_shard=*/16);
  ASSERT_EQ(info.num_samples, in_ram.size());
  EXPECT_EQ(static_cast<int64_t>(info.paths.size()), 3);
  EXPECT_EQ(info.length_stats.count, in_ram.size());

  int64_t next = 0;
  for (const std::string& path : info.paths) {
    ShardReader reader(path);
    ASSERT_TRUE(reader.ok()) << reader.error();
    for (int64_t i = 0; i < reader.size(); ++i, ++next) {
      EmrSample sample;
      ASSERT_TRUE(reader.Read(i, &sample));
      ExpectSamplesBitwiseEqual(in_ram.sample(next), sample);
    }
  }
  EXPECT_EQ(next, in_ram.size());
  EXPECT_EQ(ListShards(TempPrefix("gen_match")).size(), info.paths.size());
}

TEST(ShardIoTest, FixedLengthConfigRoundTripsUniform) {
  synth::CohortConfig config = RaggedConfig(10);
  config.variable_length = false;  // the paper's dense 48 h grid
  const synth::ShardedCohortInfo info = synth::GenerateCohortToShards(
      config, TempPrefix("uniform"), /*samples_per_shard=*/64);
  ShardReader reader(info.paths[0]);
  ASSERT_TRUE(reader.ok());
  for (int64_t i = 0; i < reader.size(); ++i) {
    int64_t length = 0, steps = 0;
    ASSERT_TRUE(reader.PeekShape(i, &length, &steps));
    EXPECT_EQ(length, config.num_steps);
    EXPECT_EQ(steps, config.num_steps);
  }
}

TEST(ShardIoTest, CorruptRecordIsQuarantinedNotFatal) {
  const EmrDataset cohort = synth::GenerateCohort(RaggedConfig(6));
  const std::string path = TempPrefix("corrupt") + "-00000.elds";
  {
    ShardWriter writer(path, cohort.feature_names());
    for (int64_t i = 0; i < cohort.size(); ++i) writer.Append(cohort.sample(i));
    ASSERT_TRUE(writer.Close());
  }
  // The file ends with the last record's payload + 4-byte CRC; flipping a
  // payload byte (5 from the end) breaks that record's CRC only.
  CorruptByteAt(path, 5);

  ShardReader reader(path);
  ASSERT_TRUE(reader.ok()) << reader.error();
  ASSERT_EQ(reader.size(), cohort.size());  // frame chain is intact
  EmrSample sample;
  for (int64_t i = 0; i + 1 < cohort.size(); ++i) {
    EXPECT_TRUE(reader.Read(i, &sample)) << i;
  }
  EXPECT_FALSE(reader.Read(cohort.size() - 1, &sample));
  EXPECT_EQ(reader.num_quarantined(), 1);
}

TEST(ShardIoTest, TornTailKeepsValidPrefixReadable) {
  const EmrDataset cohort = synth::GenerateCohort(RaggedConfig(6));
  const std::string path = TempPrefix("torn") + "-00000.elds";
  {
    ShardWriter writer(path, cohort.feature_names());
    for (int64_t i = 0; i < cohort.size(); ++i) writer.Append(cohort.sample(i));
    ASSERT_TRUE(writer.Close());
  }
  // Kill the "writer" mid-record: cut into the last record's trailing CRC.
  TruncateFile(path, FileSize(path) - 6);

  ShardReader reader(path);
  ASSERT_TRUE(reader.ok()) << reader.error();
  EXPECT_TRUE(reader.tail_truncated());
  ASSERT_EQ(reader.size(), cohort.size() - 1);
  for (int64_t i = 0; i < reader.size(); ++i) {
    EmrSample sample;
    ASSERT_TRUE(reader.Read(i, &sample)) << i;
    ExpectSamplesBitwiseEqual(cohort.sample(i), sample);
  }
}

// ---- ShardedLoader ---------------------------------------------------------

struct CapturedBatch {
  Tensor x, mask, delta, y, step_mask;
  std::vector<int64_t> lengths;
  std::vector<int64_t> sample_indices;
};

std::vector<CapturedBatch> DrainEpoch(BatchSource* source,
                                      bool start_epoch = true) {
  if (start_epoch) source->StartEpoch();
  std::vector<CapturedBatch> captured;
  Batch batch;
  while (source->Next(&batch)) {
    CapturedBatch c;
    c.x = batch.x.Clone();
    c.mask = batch.mask.Clone();
    c.delta = batch.delta.Clone();
    c.y = batch.y.Clone();
    if (batch.step_mask.size() > 0) c.step_mask = batch.step_mask.Clone();
    c.lengths = batch.lengths;
    c.sample_indices = batch.sample_indices;
    captured.push_back(std::move(c));
  }
  return captured;
}

void ExpectTensorsBitwiseEqual(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  if (a.size() == 0) return;  // both empty (e.g. uniform-batch step_mask)
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0);
}

void ExpectStreamsEqual(const std::vector<CapturedBatch>& a,
                        const std::vector<CapturedBatch>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ExpectTensorsBitwiseEqual(a[i].x, b[i].x);
    ExpectTensorsBitwiseEqual(a[i].mask, b[i].mask);
    ExpectTensorsBitwiseEqual(a[i].delta, b[i].delta);
    ExpectTensorsBitwiseEqual(a[i].y, b[i].y);
    ExpectTensorsBitwiseEqual(a[i].step_mask, b[i].step_mask);
    EXPECT_EQ(a[i].lengths, b[i].lengths) << "batch " << i;
    EXPECT_EQ(a[i].sample_indices, b[i].sample_indices) << "batch " << i;
  }
}

struct LoaderFixture {
  synth::ShardedCohortInfo info;
  Standardizer standardizer;

  explicit LoaderFixture(const std::string& tag, int64_t admissions = 90) {
    info = synth::GenerateCohortToShards(RaggedConfig(admissions),
                                         TempPrefix(tag),
                                         /*samples_per_shard=*/32);
    standardizer = FitStandardizerFromShards(info.paths);
  }

  ShardedLoader MakeLoader(ShardedLoaderOptions options = {}) const {
    options.batch_size = 16;
    return ShardedLoader(info.paths, &standardizer, options);
  }
};

TEST(ShardedLoaderTest, BatchStreamIsIdenticalAcrossPrefetchAndThreads) {
  const LoaderFixture fixture("determinism");
  std::vector<CapturedBatch> reference;
  {
    ShardedLoaderOptions options;
    options.prefetch = false;
    ShardedLoader loader = fixture.MakeLoader(options);
    reference = DrainEpoch(&loader);
    ASSERT_GT(reference.size(), 1u);
  }
  for (int64_t threads : {1, 2, 8}) {
    par::ScopedNumThreads scoped(threads);
    ShardedLoader loader = fixture.MakeLoader();  // prefetch on
    ExpectStreamsEqual(reference, DrainEpoch(&loader));
  }
}

TEST(ShardedLoaderTest, SecondEpochReshufflesButStaysDeterministic) {
  const LoaderFixture fixture("epochs");
  ShardedLoader a = fixture.MakeLoader();
  const auto a1 = DrainEpoch(&a);
  const auto a2 = DrainEpoch(&a);
  std::vector<int64_t> order1, order2;
  for (const auto& batch : a1)
    order1.insert(order1.end(), batch.sample_indices.begin(),
                  batch.sample_indices.end());
  for (const auto& batch : a2)
    order2.insert(order2.end(), batch.sample_indices.begin(),
                  batch.sample_indices.end());
  EXPECT_NE(order1, order2);  // reshuffled
  // A fresh loader replays both epochs bit-for-bit.
  ShardedLoader b = fixture.MakeLoader();
  ExpectStreamsEqual(a1, DrainEpoch(&b));
  ExpectStreamsEqual(a2, DrainEpoch(&b));
}

TEST(ShardedLoaderTest, ResumeFromExportedCursorIsBitwise) {
  const LoaderFixture fixture("resume");
  ShardedLoader a = fixture.MakeLoader();
  a.StartEpoch();
  Batch batch;
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(a.Next(&batch));
  const std::string state = a.ExportState();
  const auto rest_a = DrainEpoch(&a, /*start_epoch=*/false);
  const auto next_epoch_a = DrainEpoch(&a);

  ShardedLoader b = fixture.MakeLoader();
  ASSERT_TRUE(b.RestoreState(state));
  const auto rest_b = DrainEpoch(&b, /*start_epoch=*/false);
  ExpectStreamsEqual(rest_a, rest_b);
  // The epoch after the resume point also matches (the rng snapshot
  // carries the future shuffles).
  ExpectStreamsEqual(next_epoch_a, DrainEpoch(&b));
}

TEST(ShardedLoaderTest, RestoreRejectsGarbage) {
  const LoaderFixture fixture("garbage", /*admissions=*/40);
  ShardedLoader loader = fixture.MakeLoader();
  EXPECT_FALSE(loader.RestoreState("not a loader state"));
  EXPECT_FALSE(loader.RestoreState(""));
  // Still usable after the rejected restores.
  EXPECT_FALSE(DrainEpoch(&loader).empty());
}

TEST(ShardedLoaderTest, SplitFilterPartitionsTheCohort) {
  const LoaderFixture fixture("split");
  std::vector<int64_t> seen;
  int64_t total = 0;
  const std::vector<std::vector<int64_t>> keeps = {
      {0, 1, 2, 3, 4, 5, 6, 7}, {8}, {9}};
  for (const auto& keep : keeps) {
    ShardedLoaderOptions options;
    options.split_mod = 10;
    options.split_keep = keep;
    ShardedLoader loader = fixture.MakeLoader(options);
    total += loader.num_records();
    for (const auto& batch : DrainEpoch(&loader)) {
      seen.insert(seen.end(), batch.sample_indices.begin(),
                  batch.sample_indices.end());
    }
  }
  EXPECT_EQ(total, fixture.info.num_samples);
  std::sort(seen.begin(), seen.end());
  ASSERT_EQ(static_cast<int64_t>(seen.size()), fixture.info.num_samples);
  for (int64_t i = 0; i < static_cast<int64_t>(seen.size()); ++i) {
    EXPECT_EQ(seen[i], i);  // every record exactly once across the splits
  }
}

TEST(ShardedLoaderTest, StandardizerFromShardsMatchesInRamFit) {
  const synth::CohortConfig config = RaggedConfig(60);
  const EmrDataset cohort = synth::GenerateCohort(config);
  const synth::ShardedCohortInfo info = synth::GenerateCohortToShards(
      config, TempPrefix("standardizer"), /*samples_per_shard=*/32);

  std::vector<int64_t> all(cohort.size());
  for (int64_t i = 0; i < cohort.size(); ++i) all[i] = i;
  Standardizer in_ram;
  in_ram.Fit(cohort, all);
  const Standardizer streamed = FitStandardizerFromShards(info.paths);
  ASSERT_EQ(in_ram.means().size(), streamed.means().size());
  for (size_t c = 0; c < in_ram.means().size(); ++c) {
    EXPECT_EQ(in_ram.means()[c], streamed.means()[c]) << c;
    EXPECT_EQ(in_ram.stddevs()[c], streamed.stddevs()[c]) << c;
  }
}

TEST(ShardedLoaderTest, MoreBucketsMeansLessPadding) {
  const LoaderFixture fixture("padding", /*admissions=*/120);
  ShardedLoaderOptions one;
  one.num_buckets = 1;
  ShardedLoaderOptions eight;
  eight.num_buckets = 8;
  ShardedLoader coarse = fixture.MakeLoader(one);
  ShardedLoader fine = fixture.MakeLoader(eight);
  EXPECT_GT(coarse.PaddingWaste(), fine.PaddingWaste());
  EXPECT_GE(fine.PaddingWaste(), 0.0);
}

TEST(ShardedLoaderTest, QuarantinedRecordIsSkippedNotFatal) {
  const LoaderFixture fixture("loader_corrupt", /*admissions=*/40);
  // Break the last record's payload CRC in the last shard.
  CorruptByteAt(fixture.info.paths.back(), 5);
  ShardedLoader loader = fixture.MakeLoader();
  int64_t samples = 0;
  for (const auto& batch : DrainEpoch(&loader)) {
    samples += static_cast<int64_t>(batch.sample_indices.size());
  }
  EXPECT_EQ(samples, fixture.info.num_samples - 1);
  EXPECT_EQ(loader.num_quarantined(), 1);
}

// ---- Streamed training -----------------------------------------------------

class TinyGruModel : public train::SequenceModel {
 public:
  TinyGruModel(int64_t features, int64_t hidden, uint64_t seed)
      : train::SequenceModel(features),
        rng_(seed),
        gru_(features, hidden, &rng_),
        head_(hidden, 1, true, &rng_) {
    RegisterSubmodule("gru", &gru_);
    RegisterSubmodule("head", &head_);
  }

  ag::Variable EncodeTerminal(const data::Batch& batch,
                              nn::ForwardContext*) const override {
    const int64_t b = batch.x.shape(0);
    const int64_t t = batch.x.shape(1);
    ag::Variable h =
        gru_.Forward(ag::Constant(batch.x), batch.LengthsOrNull());
    return ag::Reshape(ag::Slice(h, 1, t - 1, 1),
                       {b, gru_.cell().hidden_size()});
  }

  ag::Variable Readout(const ag::Variable& rep,
                       nn::ForwardContext*) const override {
    return ag::Reshape(head_.Forward(rep), {rep.value().shape(0)});
  }

  int64_t encoding_dim() const override { return gru_.cell().hidden_size(); }
  std::string name() const override { return "TinyGRU"; }

 private:
  Rng rng_;
  nn::Gru gru_;
  nn::Linear head_;
};

std::vector<Tensor> ParamValues(train::SequenceModel* model) {
  std::vector<Tensor> values;
  for (const ag::Variable& p : model->Parameters()) {
    values.push_back(p.value().Clone());
  }
  return values;
}

TEST(TrainStreamedTest, TrainsFromShardsWithValAndTest) {
  const LoaderFixture fixture("streamed_train", /*admissions=*/80);
  ShardedLoaderOptions train_opts, val_opts, test_opts;
  train_opts.split_mod = val_opts.split_mod = test_opts.split_mod = 10;
  train_opts.split_keep = {0, 1, 2, 3, 4, 5, 6, 7};
  val_opts.split_keep = {8};
  test_opts.split_keep = {9};
  ShardedLoader train = fixture.MakeLoader(train_opts);
  ShardedLoader val = fixture.MakeLoader(val_opts);
  ShardedLoader test = fixture.MakeLoader(test_opts);

  TinyGruModel model(static_cast<int64_t>(
                         fixture.standardizer.means().size()),
                     8, /*seed=*/5);
  train::TrainerConfig config;
  config.max_epochs = 2;
  config.seed = 11;
  const train::TrainResult result =
      train::Trainer(config).TrainStreamed(&model, &train, &val, &test);
  EXPECT_EQ(result.status, health::TrainStatus::kOk);
  EXPECT_EQ(result.epochs_run, 2);
  EXPECT_GE(result.val.auc_pr, 0.0);
  EXPECT_LE(result.val.auc_roc, 1.0);
  EXPECT_GE(result.test.auc_pr, 0.0);
  EXPECT_GT(result.num_parameters, 0);
}

TEST(TrainStreamedTest, RejectedSourceReportsItsReason) {
  // A shard set the loader rejects: the run must stop with the loader's
  // reason, not a bare "train split is empty".
  const LoaderFixture fixture("streamed_rejected", /*admissions=*/20);
  ShardedLoaderOptions options;
  options.prefetch = false;
  ShardedLoader train(
      {fixture.info.paths.front(), TempPrefix("streamed_missing") + ".shard"},
      &fixture.standardizer, options);
  ASSERT_FALSE(train.ok());
  TinyGruModel model(static_cast<int64_t>(
                         fixture.standardizer.means().size()),
                     8, /*seed=*/5);
  const train::TrainResult result =
      train::Trainer(train::TrainerConfig{}).TrainStreamed(&model, &train,
                                                           nullptr, nullptr);
  EXPECT_EQ(result.status, health::TrainStatus::kEmptyTrainSplit);
  EXPECT_EQ(result.epochs_run, 0);
  EXPECT_NE(result.status_message.find(train.error()), std::string::npos)
      << result.status_message;
}

TEST(TrainStreamedTest, CheckpointResumeIsBitwise) {
  const LoaderFixture fixture("streamed_resume", /*admissions=*/60);
  const int64_t features =
      static_cast<int64_t>(fixture.standardizer.means().size());
  const std::string ckpt = testing::TempDir() + "/streamed_resume.ckpt";
  std::remove(ckpt.c_str());

  // Uninterrupted 4-epoch run.
  train::TrainerConfig config;
  config.max_epochs = 4;
  config.seed = 13;
  std::vector<Tensor> uninterrupted;
  {
    ShardedLoader train = fixture.MakeLoader();
    TinyGruModel model(features, 8, /*seed=*/5);
    const train::TrainResult result = train::Trainer(config).TrainStreamed(
        &model, &train, nullptr, nullptr);
    ASSERT_EQ(result.status, health::TrainStatus::kOk);
    uninterrupted = ParamValues(&model);
  }

  // Same run killed after epoch 2 (checkpointing every epoch)...
  {
    train::TrainerConfig half = config;
    half.max_epochs = 2;
    half.checkpoint_path = ckpt;
    half.checkpoint_every = 1;
    ShardedLoader train = fixture.MakeLoader();
    TinyGruModel model(features, 8, /*seed=*/5);
    ASSERT_EQ(train::Trainer(half)
                  .TrainStreamed(&model, &train, nullptr, nullptr)
                  .status,
              health::TrainStatus::kOk);
  }
  // ... then resumed with a fresh model and a fresh loader.
  {
    train::TrainerConfig resumed = config;
    resumed.checkpoint_path = ckpt;
    resumed.checkpoint_every = 1;
    resumed.resume = true;
    ShardedLoader train = fixture.MakeLoader();
    TinyGruModel model(features, 8, /*seed=*/5);
    const train::TrainResult result = train::Trainer(resumed).TrainStreamed(
        &model, &train, nullptr, nullptr);
    ASSERT_EQ(result.status, health::TrainStatus::kOk);
    const std::vector<Tensor> resumed_params = ParamValues(&model);
    ASSERT_EQ(resumed_params.size(), uninterrupted.size());
    for (size_t i = 0; i < resumed_params.size(); ++i) {
      ASSERT_EQ(resumed_params[i].shape(), uninterrupted[i].shape());
      EXPECT_EQ(std::memcmp(resumed_params[i].data(),
                            uninterrupted[i].data(),
                            resumed_params[i].size() * sizeof(float)),
                0)
          << "parameter " << i;
    }
  }
}

}  // namespace
}  // namespace data
}  // namespace elda
