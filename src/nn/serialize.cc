#include "nn/serialize.h"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <map>

#include "health/ckpt_io.h"

namespace elda {
namespace nn {
namespace {

using util::Fail;

constexpr char kMagic[4] = {'E', 'L', 'D', 'A'};
constexpr uint32_t kLegacyVersion = 1;
constexpr char kParamsSection[] = "params";
constexpr size_t kMaxNameLength = 4096;

}  // namespace

void PutShapedTensor(util::ByteWriter* writer, const Tensor& tensor) {
  writer->Put(static_cast<uint32_t>(tensor.dim()));
  writer->PutArray(tensor.shape().data(), tensor.shape().size());
  writer->PutArray(tensor.data(), static_cast<size_t>(tensor.size()));
}

bool GetShapedTensor(util::ByteReader* reader, Tensor* tensor,
                     const std::string& what, std::string* error) {
  uint32_t rank = 0;
  if (!reader->Get(&rank) || rank > kMaxTensorRank) {
    return Fail(error, "corrupt tensor header for " + what);
  }
  std::vector<int64_t> shape;
  if (!reader->GetArray(&shape, rank)) {
    return Fail(error, "truncated shape for " + what);
  }
  int64_t volume = 1;
  for (int64_t d : shape) {
    if (d <= 0 || volume > kMaxTensorElements / d) {
      return Fail(error, "rejected dimensions for " + what +
                             " (non-positive or oversized)");
    }
    volume *= d;
  }
  const char* data = reader->Take(static_cast<size_t>(volume), sizeof(float));
  if (data == nullptr) return Fail(error, "truncated data for " + what);
  Tensor parsed = Tensor::Empty(shape);
  std::memcpy(parsed.data(), data, static_cast<size_t>(volume) * sizeof(float));
  *tensor = std::move(parsed);
  return true;
}

std::string EncodeParameters(const Module& module) {
  util::ByteWriter writer;
  const auto named = module.NamedParameters();
  writer.Put(static_cast<uint64_t>(named.size()));
  for (const auto& [name, var] : named) {
    writer.PutString<uint32_t>(name);
    PutShapedTensor(&writer, var.value());
  }
  return writer.Take();
}

bool DecodeParameters(Module* module, const std::string& blob,
                      std::string* error) {
  ELDA_CHECK(module != nullptr);
  util::ByteReader reader(blob);
  uint64_t count = 0;
  if (!reader.Get(&count)) return Fail(error, "truncated checkpoint");

  std::map<std::string, ag::Variable> targets;
  for (const auto& [name, var] : module->NamedParameters()) {
    targets.emplace(name, var);
  }
  if (count != targets.size()) {
    return Fail(error, "checkpoint holds " + std::to_string(count) +
                           " parameters, module declares " +
                           std::to_string(targets.size()));
  }
  // Decode into staging tensors first so a failure partway through leaves
  // the module untouched.
  std::vector<std::pair<ag::Variable, Tensor>> staged;
  staged.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    std::string name;
    if (!reader.GetString<uint32_t>(&name, kMaxNameLength)) {
      return Fail(error, "corrupt parameter name");
    }
    Tensor loaded;
    if (!GetShapedTensor(&reader, &loaded, name, error)) return false;
    auto it = targets.find(name);
    if (it == targets.end()) {
      return Fail(error, "checkpoint parameter " + name +
                             " not declared by the module");
    }
    if (it->second.value().shape() != loaded.shape()) {
      return Fail(error, "shape mismatch for " + name);
    }
    staged.emplace_back(it->second, std::move(loaded));
  }
  if (!reader.AtEnd()) {
    return Fail(error, "trailing bytes after the last parameter");
  }
  for (auto& [var, tensor] : staged) {
    *var.mutable_value() = tensor;
  }
  return true;
}

bool SaveParameters(const Module& module, const std::string& path,
                    std::string* error) {
  std::vector<health::Section> sections;
  sections.push_back({kParamsSection, EncodeParameters(module)});
  return health::WriteSectionedFile(path, sections, error);
}

bool LoadParameters(Module* module, const std::string& path,
                    std::string* error) {
  ELDA_CHECK(module != nullptr);
  std::ifstream in(path, std::ios::binary);
  if (!in) return Fail(error, "cannot open " + path);
  char magic[4];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Fail(error, path + " is not an ELDA checkpoint");
  }
  uint32_t version = 0;
  in.read(reinterpret_cast<char*>(&version), sizeof(version));
  if (!in) return Fail(error, path + " is truncated in the header");

  if (version == kLegacyVersion) {
    // v1: the rest of the file is the raw parameter blob, unchecksummed.
    std::string blob((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    return DecodeParameters(module, blob, error);
  }
  in.close();

  std::vector<health::Section> sections;
  if (!health::ReadSectionedFile(path, &sections, error)) return false;
  const health::Section* params =
      health::FindSection(sections, kParamsSection);
  if (params == nullptr) {
    return Fail(error, path + " has no '" + kParamsSection + "' section");
  }
  return DecodeParameters(module, params->payload, error);
}

}  // namespace nn
}  // namespace elda
