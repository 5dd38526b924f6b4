#include "health/ckpt_io.h"

#include <cstdio>
#include <cstring>
#include <fstream>

#include "health/crc32.h"
#include "health/health.h"
#include "util/byte_codec.h"

namespace elda {
namespace health {
namespace {

using util::Fail;

constexpr char kMagic[4] = {'E', 'L', 'D', 'A'};
constexpr uint32_t kMaxSections = 256;
constexpr size_t kMaxSectionName = 4096;
constexpr uint64_t kMaxSectionBytes = 1ULL << 33;  // 8 GiB

}  // namespace

bool WriteSectionedFile(const std::string& path,
                        const std::vector<Section>& sections,
                        std::string* error) {
  util::ByteWriter writer;
  writer.Append(kMagic, sizeof(kMagic));
  writer.Put(kSectionedFormatVersion);
  writer.Put(static_cast<uint32_t>(sections.size()));
  for (const Section& section : sections) {
    writer.PutString<uint32_t>(section.name);
    writer.PutString<uint64_t>(section.payload);
    writer.Put(Crc32(section.payload));
  }
  std::string buffer = writer.Take();

  int64_t flip_offset = 0;
  const WriteFault fault =
      GlobalFaultInjector()->NextWriteFault(&flip_offset);
  if (fault == WriteFault::kFail) {
    return Fail(error, "injected write failure for " + path);
  }
  if (fault == WriteFault::kFlipByte && !buffer.empty()) {
    // Silent corruption: the write "succeeds" but one byte is damaged; only
    // the CRC check at load time can catch it.
    buffer[static_cast<size_t>(flip_offset) % buffer.size()] ^= 0x01;
  }
  if (fault == WriteFault::kTruncate) {
    // A torn non-atomic write: half the bytes land in the final file.
    std::ofstream torn(path, std::ios::binary | std::ios::trunc);
    torn.write(buffer.data(),
               static_cast<std::streamsize>(buffer.size() / 2));
    return Fail(error, "injected torn write for " + path);
  }

  const std::string tmp_path = path + ".tmp";
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Fail(error, "cannot open " + tmp_path + " for writing");
    }
    out.write(buffer.data(), static_cast<std::streamsize>(buffer.size()));
    out.flush();
    if (!out) {
      std::remove(tmp_path.c_str());
      return Fail(error, "write failure on " + tmp_path);
    }
  }
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    return Fail(error, "cannot rename " + tmp_path + " over " + path);
  }
  return true;
}

bool ReadSectionedFile(const std::string& path, std::vector<Section>* sections,
                       std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Fail(error, "cannot open " + path);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  util::ByteReader reader(bytes);
  const char* magic = reader.Take(sizeof(kMagic));
  if (magic == nullptr || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Fail(error, path + " is not an ELDA checkpoint");
  }
  uint32_t version = 0;
  if (!reader.Get(&version)) {
    return Fail(error, path + " is truncated in the header");
  }
  if (version != kSectionedFormatVersion) {
    return Fail(error, path + " has unsupported checkpoint version " +
                           std::to_string(version));
  }
  uint32_t num_sections = 0;
  if (!reader.Get(&num_sections) || num_sections > kMaxSections) {
    return Fail(error, path + " has a corrupt section count");
  }
  std::vector<Section> parsed;
  parsed.reserve(num_sections);
  for (uint32_t i = 0; i < num_sections; ++i) {
    Section section;
    if (!reader.GetString<uint32_t>(&section.name, kMaxSectionName)) {
      return Fail(error, path + " has a corrupt section name (section " +
                             std::to_string(i) + ")");
    }
    uint32_t stored_crc = 0;
    if (!reader.GetString<uint64_t>(&section.payload, kMaxSectionBytes) ||
        !reader.Get(&stored_crc)) {
      return Fail(error, path + " is truncated in section '" + section.name +
                             "'");
    }
    const uint32_t actual_crc = Crc32(section.payload);
    if (actual_crc != stored_crc) {
      return Fail(error, "checksum mismatch in section '" + section.name +
                             "' of " + path + " (stored " +
                             std::to_string(stored_crc) + ", computed " +
                             std::to_string(actual_crc) + ")");
    }
    parsed.push_back(std::move(section));
  }
  if (!reader.AtEnd()) {
    return Fail(error, path + " has trailing bytes after the last section");
  }
  *sections = std::move(parsed);
  return true;
}

const Section* FindSection(const std::vector<Section>& sections,
                           const std::string& name) {
  for (const Section& section : sections) {
    if (section.name == name) return &section;
  }
  return nullptr;
}

}  // namespace health
}  // namespace elda
