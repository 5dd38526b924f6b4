#include "data/shard_io.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>

#include "health/crc32.h"
#include "util/byte_codec.h"
#include "util/logging.h"

namespace elda {
namespace data {
namespace {

constexpr uint32_t kHeaderMagic = 0x53444C45;  // "ELDS" little-endian
constexpr uint32_t kMetaMagic = 0x4D444C45;    // "ELDM"
constexpr uint32_t kRecordMagic = 0x52444C45;  // "ELDR"

// header: magic | version | num_features | flags | reserved | crc
constexpr uint64_t kHeaderSize = 4 + 4 + 4 + 4 + 8 + 4;
constexpr uint64_t kFrameHeaderSize = 8;  // frame_magic | payload_size
// payload prefix before the value/observed grids:
// length | num_steps | num_features | mortality | los | patient_id | cond
constexpr uint32_t kRecordPrefixSize = 4 + 4 + 4 + 4 + 4 + 8 + 8;

}  // namespace

std::string ShardPath(const std::string& prefix, int64_t index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "-%05lld.elds",
                static_cast<long long>(index));
  return prefix + buf;
}

std::vector<std::string> ListShards(const std::string& prefix) {
  std::vector<std::string> paths;
  for (int64_t i = 0;; ++i) {
    std::string path = ShardPath(prefix, i);
    struct stat st;
    if (::stat(path.c_str(), &st) != 0) break;
    paths.push_back(std::move(path));
  }
  return paths;
}

// ---------------------------------------------------------------------------
// ShardWriter

ShardWriter::ShardWriter(const std::string& path,
                         std::vector<std::string> feature_names)
    : path_(path), feature_names_(std::move(feature_names)) {
  file_ = std::fopen(path.c_str(), "wb");
  ELDA_CHECK(file_ != nullptr) << "cannot create shard " << path;

  util::ByteWriter header;
  header.Put<uint32_t>(kHeaderMagic);
  header.Put<uint32_t>(kShardFormatVersion);
  header.Put<uint32_t>(static_cast<uint32_t>(feature_names_.size()));
  header.Put<uint32_t>(0);  // flags
  header.Put<uint64_t>(0);  // reserved
  header.Put<uint32_t>(health::Crc32(header.bytes()));
  if (std::fwrite(header.bytes().data(), 1, header.size(), file_) !=
      header.size()) {
    failed_ = true;
  }

  util::ByteWriter meta;
  meta.Put<uint32_t>(static_cast<uint32_t>(feature_names_.size()));
  for (const std::string& name : feature_names_) {
    meta.PutString<uint32_t>(name);
  }
  WriteFrame(kMetaMagic, meta.bytes());
}

ShardWriter::~ShardWriter() { Close(); }

void ShardWriter::WriteFrame(uint32_t frame_magic, const std::string& payload) {
  if (file_ == nullptr || failed_) return;
  util::ByteWriter frame;
  frame.Reserve(kFrameHeaderSize + payload.size() + 4);
  frame.Put<uint32_t>(frame_magic);
  frame.PutString<uint32_t>(payload);
  frame.Put<uint32_t>(health::Crc32(payload));
  if (std::fwrite(frame.bytes().data(), 1, frame.size(), file_) !=
      frame.size()) {
    failed_ = true;
  }
}

void ShardWriter::Append(const EmrSample& sample) {
  ELDA_CHECK_EQ(sample.num_features,
                static_cast<int64_t>(feature_names_.size()));
  ELDA_CHECK(sample.length >= 0 && sample.length <= sample.num_steps);
  const size_t cells = static_cast<size_t>(sample.num_steps) *
                       static_cast<size_t>(sample.num_features);
  util::ByteWriter payload;
  payload.Reserve(kRecordPrefixSize + cells * (sizeof(float) + 1) + 8 +
                  (sample.decomp_labels.size() +
                   sample.phenotype_labels.size()) *
                      sizeof(float));
  payload.Put<uint32_t>(static_cast<uint32_t>(sample.length));
  payload.Put<uint32_t>(static_cast<uint32_t>(sample.num_steps));
  payload.Put<uint32_t>(static_cast<uint32_t>(sample.num_features));
  payload.Put<float>(sample.mortality_label);
  payload.Put<float>(sample.los_gt7_label);
  payload.Put<int64_t>(sample.patient_id);
  payload.Put<int64_t>(sample.condition);
  payload.PutArray(sample.values.data(), cells);
  payload.PutArray(sample.observed.data(), cells);
  // v2 label trailer. Counts are validated here so a malformed sample fails
  // at write time, not as a quarantined record at read time.
  const uint32_t num_decomp =
      static_cast<uint32_t>(sample.decomp_labels.size());
  ELDA_CHECK(num_decomp == 0 ||
             num_decomp == static_cast<uint32_t>(sample.num_steps));
  const uint32_t num_pheno =
      static_cast<uint32_t>(sample.phenotype_labels.size());
  ELDA_CHECK(num_pheno == 0 ||
             num_pheno == static_cast<uint32_t>(kNumPhenotypes));
  payload.Put<uint32_t>(num_decomp);
  payload.PutArray(sample.decomp_labels.data(), num_decomp);
  payload.Put<uint32_t>(num_pheno);
  payload.PutArray(sample.phenotype_labels.data(), num_pheno);
  WriteFrame(kRecordMagic, payload.bytes());
  ++num_records_;
}

bool ShardWriter::Close() {
  if (file_ == nullptr) return !failed_;
  if (std::fflush(file_) != 0) failed_ = true;
  if (std::fclose(file_) != 0) failed_ = true;
  file_ = nullptr;
  return !failed_;
}

// ---------------------------------------------------------------------------
// ShardReader

ShardReader::ShardReader(const std::string& path) : path_(path) {
  fd_ = ::open(path.c_str(), O_RDONLY);
  if (fd_ < 0) {
    Fail("cannot open shard " + path);
    return;
  }
  struct stat st;
  if (::fstat(fd_, &st) != 0) {
    Fail("cannot stat shard " + path);
    return;
  }
  map_size_ = static_cast<uint64_t>(st.st_size);
  if (map_size_ < kHeaderSize) {
    Fail("shard too short for header: " + path);
    return;
  }
  void* map = ::mmap(nullptr, map_size_, PROT_READ, MAP_PRIVATE, fd_, 0);
  if (map == MAP_FAILED) {
    map_ = nullptr;
    Fail("mmap failed for shard " + path);
    return;
  }
  map_ = static_cast<const uint8_t*>(map);

  util::ByteReader header(map_, kHeaderSize);
  uint32_t magic = 0, version = 0, num_features = 0, header_crc = 0;
  header.Get(&magic);
  header.Get(&version);
  header.Get(&num_features);
  header.Take(4 + 8);  // flags, reserved
  header.Get(&header_crc);
  num_features_ = num_features;
  if (magic != kHeaderMagic) {
    Fail("bad shard magic: " + path);
    return;
  }
  if (version < kMinShardFormatVersion || version > kShardFormatVersion) {
    Fail("unsupported shard version: " + path);
    return;
  }
  version_ = version;
  if (health::Crc32(map_, kHeaderSize - 4) != header_crc) {
    Fail("header CRC mismatch: " + path);
    return;
  }
  ok_ = true;
  ScanFrames();
}

ShardReader::~ShardReader() {
  if (map_ != nullptr) ::munmap(const_cast<uint8_t*>(map_), map_size_);
  if (fd_ >= 0) ::close(fd_);
}

void ShardReader::Fail(std::string message) {
  ok_ = false;
  if (error_.empty()) error_ = std::move(message);
}

void ShardReader::ScanFrames() {
  util::ByteReader scan(map_ + kHeaderSize, map_size_ - kHeaderSize);
  bool meta_seen = false;
  while (scan.remaining() >= kFrameHeaderSize) {
    uint32_t frame_magic = 0;
    std::string_view payload;
    uint32_t crc = 0;
    scan.Get(&frame_magic);
    if (frame_magic != kMetaMagic && frame_magic != kRecordMagic) {
      tail_truncated_ = true;  // chain broken; keep the valid prefix
      break;
    }
    if (!scan.GetView<uint32_t>(&payload) || !scan.Get(&crc)) {
      tail_truncated_ = true;  // torn tail: writer died mid-record
      break;
    }
    if (frame_magic == kMetaMagic) {
      // The names are the shard's schema: a meta frame that fails its CRC,
      // does not parse or names other than num_features columns fails the
      // whole shard, where a bad record only quarantines itself.
      if (health::Crc32(payload) != crc) {
        Fail("meta frame CRC mismatch: " + path_);
        return;
      }
      if (!ParseMeta(payload) ||
          static_cast<int64_t>(feature_names_.size()) != num_features_) {
        Fail("unparseable meta frame: " + path_);
        return;
      }
      meta_seen = true;
    } else {
      RecordRef ref;
      ref.payload_offset = static_cast<uint64_t>(
          payload.data() - reinterpret_cast<const char*>(map_));
      ref.payload_size = static_cast<uint32_t>(payload.size());
      ref.crc = crc;
      records_.push_back(ref);
    }
  }
  if (scan.remaining() != 0) tail_truncated_ = true;
  if (!meta_seen) Fail("no meta frame: " + path_);
}

bool ShardReader::ParseMeta(std::string_view payload) {
  util::ByteReader reader(payload);
  uint32_t count = 0;
  if (!reader.Get(&count)) return false;
  std::vector<std::string> names;
  for (uint32_t i = 0; i < count; ++i) {
    std::string name;
    if (!reader.GetString<uint32_t>(&name)) return false;
    names.push_back(std::move(name));
  }
  if (!reader.AtEnd()) return false;
  feature_names_ = std::move(names);
  return true;
}

std::string_view ShardReader::Payload(int64_t i) const {
  ELDA_CHECK(i >= 0 && i < size());
  const RecordRef& ref = records_[static_cast<size_t>(i)];
  return std::string_view(
      reinterpret_cast<const char*>(map_) + ref.payload_offset,
      ref.payload_size);
}

int64_t ShardReader::PeekLength(int64_t i) const {
  util::ByteReader reader(Payload(i));
  uint32_t length = 0;
  return reader.Get(&length) ? length : -1;
}

bool ShardReader::PeekShape(int64_t i, int64_t* length,
                            int64_t* num_steps) const {
  util::ByteReader reader(Payload(i));
  uint32_t len = 0, steps = 0;
  if (!reader.Get(&len) || !reader.Get(&steps)) return false;
  *length = len;
  *num_steps = steps;
  return true;
}

bool ShardReader::Read(int64_t i, EmrSample* out) {
  const std::string_view payload = Payload(i);
  if (health::Crc32(payload) != records_[static_cast<size_t>(i)].crc ||
      !Decode(payload, out)) {
    ++num_quarantined_;
    return false;
  }
  return true;
}

bool ShardReader::Decode(std::string_view payload, EmrSample* out) const {
  util::ByteReader reader(payload);
  uint32_t length = 0, num_steps = 0, num_features = 0;
  float mortality = 0.0f, los = 0.0f;
  int64_t patient_id = 0, condition = 0;
  reader.Get(&length);
  reader.Get(&num_steps);
  reader.Get(&num_features);
  reader.Get(&mortality);
  reader.Get(&los);
  reader.Get(&patient_id);
  reader.Get(&condition);
  if (!reader.ok() || num_features != num_features_ || length > num_steps) {
    return false;
  }
  const size_t cells = static_cast<size_t>(num_steps) * num_features;
  const char* values = reader.Take(cells, sizeof(float));
  const char* observed = reader.Take(cells);
  if (values == nullptr || observed == nullptr) return false;
  // v1 payloads end at the grids; v2 payloads carry the label trailer.
  std::vector<float> decomp, pheno;
  if (version_ >= 2) {
    uint32_t num_decomp = 0, num_pheno = 0;
    if (!reader.Get(&num_decomp) ||
        (num_decomp != 0 && num_decomp != num_steps) ||
        !reader.GetArray(&decomp, num_decomp) || !reader.Get(&num_pheno) ||
        (num_pheno != 0 && num_pheno != kNumPhenotypes) ||
        !reader.GetArray(&pheno, num_pheno)) {
      return false;
    }
  }
  if (!reader.AtEnd()) return false;
  EmrSample sample(num_steps, num_features);
  sample.length = length;
  sample.mortality_label = mortality;
  sample.los_gt7_label = los;
  sample.patient_id = patient_id;
  sample.condition = condition;
  std::memcpy(sample.values.data(), values, cells * sizeof(float));
  std::memcpy(sample.observed.data(), observed, cells);
  sample.decomp_labels = std::move(decomp);
  sample.phenotype_labels = std::move(pheno);
  *out = std::move(sample);
  return true;
}

void ShardReader::ReleasePages() {
  if (map_ == nullptr || map_size_ == 0) return;
  // Best-effort: dropping clean mapped pages only affects residency, never
  // correctness, so the return value is deliberately ignored.
  ::madvise(const_cast<uint8_t*>(map_), map_size_, MADV_DONTNEED);
}

}  // namespace data
}  // namespace elda
