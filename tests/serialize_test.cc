#include <cstdio>
#include <fstream>
#include <string>

#include "gtest/gtest.h"
#include "nn/gru.h"
#include "nn/linear.h"
#include "nn/serialize.h"
#include "tensor/tensor_ops.h"

namespace elda {
namespace nn {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

template <typename T>
void AppendPod(std::string* out, const T& value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(T));
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Legacy v1 layout: magic | uint32 1 | uint64 count | per parameter:
// uint32 name_len | name | uint32 rank | int64 dims | float data.
std::string V1Header(uint64_t count) {
  std::string bytes = "ELDA";
  AppendPod(&bytes, static_cast<uint32_t>(1));
  AppendPod(&bytes, count);
  return bytes;
}

// A module with nesting, for name-path coverage.
class SmallNet : public Module {
 public:
  explicit SmallNet(uint64_t seed)
      : rng_(seed), gru_(3, 4, &rng_), head_(4, 1, true, &rng_) {
    RegisterSubmodule("gru", &gru_);
    RegisterSubmodule("head", &head_);
  }
  Rng rng_;
  Gru gru_;
  Linear head_;
};

TEST(SerializeTest, RoundTripRestoresExactValues) {
  SmallNet source(1);
  const std::string path = TempPath("roundtrip.eldaw");
  std::string error;
  ASSERT_TRUE(SaveParameters(source, path, &error)) << error;

  SmallNet target(2);  // different init
  // Confirm they differ before loading.
  bool differs = false;
  auto a = source.NamedParameters();
  auto b = target.NamedParameters();
  for (size_t i = 0; i < a.size(); ++i) {
    if (!AllClose(a[i].second.value(), b[i].second.value())) differs = true;
  }
  ASSERT_TRUE(differs);

  ASSERT_TRUE(LoadParameters(&target, path, &error)) << error;
  b = target.NamedParameters();
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].first, b[i].first);
    EXPECT_TRUE(AllClose(a[i].second.value(), b[i].second.value()))
        << a[i].first;
  }
}

TEST(SerializeTest, LoadedModelProducesIdenticalOutputs) {
  SmallNet source(3);
  SmallNet target(4);
  const std::string path = TempPath("outputs.eldaw");
  ASSERT_TRUE(SaveParameters(source, path));
  ASSERT_TRUE(LoadParameters(&target, path));
  Rng rng(5);
  ag::Variable x = ag::Constant(Tensor::Normal({2, 6, 3}, 0, 1, &rng));
  Tensor ys = source.gru_.Forward(x).value();
  Tensor yt = target.gru_.Forward(x).value();
  EXPECT_TRUE(AllClose(ys, yt));
}

TEST(SerializeTest, RejectsArchitectureMismatch) {
  SmallNet source(6);
  const std::string path = TempPath("mismatch.eldaw");
  ASSERT_TRUE(SaveParameters(source, path));
  Rng rng(7);
  Linear different(3, 4, true, &rng);  // fewer parameters, other names
  std::string error;
  EXPECT_FALSE(LoadParameters(&different, path, &error));
  EXPECT_FALSE(error.empty());
}

TEST(SerializeTest, RejectsShapeMismatch) {
  Rng rng1(8);
  Linear small(3, 4, true, &rng1);
  const std::string path = TempPath("shape.eldaw");
  ASSERT_TRUE(SaveParameters(small, path));
  Rng rng2(9);
  Linear big(3, 5, true, &rng2);  // same names ("weight", "bias"), new shape
  std::string error;
  EXPECT_FALSE(LoadParameters(&big, path, &error));
  EXPECT_NE(error.find("shape"), std::string::npos);
}

TEST(SerializeTest, RejectsGarbageFile) {
  const std::string path = TempPath("garbage.eldaw");
  std::ofstream(path) << "this is not a checkpoint";
  Rng rng(10);
  Linear layer(2, 2, true, &rng);
  std::string error;
  EXPECT_FALSE(LoadParameters(&layer, path, &error));
  EXPECT_NE(error.find("not an ELDA checkpoint"), std::string::npos);
}

TEST(SerializeTest, RejectsTruncatedFile) {
  SmallNet source(11);
  const std::string path = TempPath("truncated.eldaw");
  ASSERT_TRUE(SaveParameters(source, path));
  // Truncate to half.
  std::ifstream in(path, std::ios::binary);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  in.close();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(content.data(),
            static_cast<std::streamsize>(content.size() / 2));
  out.close();
  SmallNet target(12);
  std::string error;
  EXPECT_FALSE(LoadParameters(&target, path, &error));
}

TEST(SerializeTest, LegacyV1FileStillLoads) {
  Rng rng(20);
  Linear layer(2, 2, true, &rng);
  const auto named = layer.NamedParameters();
  std::string bytes = V1Header(named.size());
  std::vector<float> expected;
  float next = 0.25f;
  for (const auto& [name, var] : named) {
    AppendPod(&bytes, static_cast<uint32_t>(name.size()));
    bytes.append(name);
    const Tensor& value = var.value();
    AppendPod(&bytes, static_cast<uint32_t>(value.dim()));
    for (int64_t d : value.shape()) AppendPod(&bytes, d);
    for (int64_t i = 0; i < value.size(); ++i) {
      AppendPod(&bytes, next);
      expected.push_back(next);
      next += 0.25f;
    }
  }
  const std::string path = TempPath("legacy_v1.eldaw");
  WriteBytes(path, bytes);

  std::string error;
  ASSERT_TRUE(LoadParameters(&layer, path, &error)) << error;
  size_t k = 0;
  for (const auto& [name, var] : layer.NamedParameters()) {
    const Tensor& value = var.value();
    for (int64_t i = 0; i < value.size(); ++i) {
      EXPECT_FLOAT_EQ(value[i], expected[k++]) << name;
    }
  }
}

TEST(SerializeTest, RejectsNonPositiveDims) {
  Rng rng(21);
  Linear layer(2, 2, true, &rng);
  std::string bytes = V1Header(layer.NamedParameters().size());
  const std::string name = "weight";
  AppendPod(&bytes, static_cast<uint32_t>(name.size()));
  bytes.append(name);
  AppendPod(&bytes, static_cast<uint32_t>(1));        // rank
  AppendPod(&bytes, static_cast<int64_t>(-4));        // negative dim
  const std::string path = TempPath("negative_dims.eldaw");
  WriteBytes(path, bytes);

  std::string error;
  EXPECT_FALSE(LoadParameters(&layer, path, &error));
  EXPECT_NE(error.find("rejected dimensions"), std::string::npos) << error;
}

TEST(SerializeTest, RejectsOversizedDimsBeforeAllocating) {
  Rng rng(22);
  Linear layer(2, 2, true, &rng);
  std::string bytes = V1Header(layer.NamedParameters().size());
  const std::string name = "weight";
  AppendPod(&bytes, static_cast<uint32_t>(name.size()));
  bytes.append(name);
  AppendPod(&bytes, static_cast<uint32_t>(2));  // rank
  // 2^20 x 2^20 floats = 4 TiB: must be rejected by the volume cap, not
  // attempted as an allocation.
  AppendPod(&bytes, int64_t{1} << 20);
  AppendPod(&bytes, int64_t{1} << 20);
  const std::string path = TempPath("oversized_dims.eldaw");
  WriteBytes(path, bytes);

  std::string error;
  EXPECT_FALSE(LoadParameters(&layer, path, &error));
  EXPECT_NE(error.find("rejected dimensions"), std::string::npos) << error;
}

TEST(SerializeTest, BitFlippedV2FileIsRejectedByChecksum) {
  SmallNet source(23);
  const std::string path = TempPath("bitflip.eldaw");
  ASSERT_TRUE(SaveParameters(source, path));
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  ASSERT_GT(bytes.size(), 50u);
  bytes[40] ^= 0x01;  // inside the params payload
  WriteBytes(path, bytes);

  SmallNet target(24);
  std::string error;
  EXPECT_FALSE(LoadParameters(&target, path, &error));
  EXPECT_NE(error.find("checksum mismatch"), std::string::npos) << error;
}

// A blob followed by stray bytes is not the blob that was written: the
// decoder must consume every byte, like every other decoder does.
TEST(SerializeTest, DecodeRejectsTrailingBytes) {
  SmallNet source(25);
  const std::string blob = EncodeParameters(source);
  SmallNet target(26);
  std::string error;
  EXPECT_FALSE(DecodeParameters(&target, blob + "junk", &error));
  EXPECT_NE(error.find("trailing"), std::string::npos) << error;
  EXPECT_TRUE(DecodeParameters(&target, blob, &error)) << error;
}

TEST(SerializeTest, MissingFileFailsGracefully) {
  Rng rng(13);
  Linear layer(2, 2, true, &rng);
  std::string error;
  EXPECT_FALSE(LoadParameters(&layer, "/nonexistent/path.eldaw", &error));
  EXPECT_NE(error.find("cannot open"), std::string::npos);
}

}  // namespace
}  // namespace nn
}  // namespace elda
