// CRC-framed binary shard format for out-of-core cohorts.
//
// A shard is a fixed-size header followed by a sequence of CRC-framed
// records, one per EmrSample:
//
//   header : "ELDS" | u32 version | u32 num_features | u32 flags
//            | u64 reserved | u32 header_crc
//   frame  : u32 frame_magic | u32 payload_size | payload
//            | u32 crc32(payload)
//
// Frame magics: "ELDM" (shard metadata: feature names, written once right
// after the header) and "ELDR" (one sample). A sample payload is
//
//   u32 length | u32 num_steps | u32 num_features
//   | f32 mortality | f32 los_gt7 | i64 patient_id | i64 condition
//   | f32 values[num_steps * num_features]
//   | u8  observed[num_steps * num_features]
//   | u32 num_decomp  | f32 decomp[num_decomp]        (v2 label trailer)
//   | u32 num_pheno   | f32 phenotype[num_pheno]
//
// The v2 label trailer rides at the very END of the payload so the
// PeekLength / PeekShape prefix reads are layout-identical across versions.
// num_decomp is 0 or num_steps; num_pheno is 0 or kNumPhenotypes (samples
// without multi-task labels write empty counts). v1 shards have no trailer;
// readers accept both versions and surface v1 records with empty label
// vectors.
//
// Floats are stored as raw IEEE-754 bit patterns, so a write/read round
// trip is bitwise. Writers stream records through a bounded buffer
// (million-stay cohorts never materialize); readers memory-map the shard,
// so resident memory is bounded by the pages actually touched, and
// `ReleasePages()` gives them back to the OS between epochs.
//
// Failure containment:
//   - The frame chain is scanned once at open using only the 8-byte frame
//     headers; a torn tail (writer killed mid-record) ends the scan and the
//     valid prefix stays readable (`tail_truncated()` reports it).
//   - Payload CRCs are validated at decode time, not open time. A corrupt
//     record makes `Read()` return false and is counted in
//     `num_quarantined()`; it never aborts the process.
//   - The meta frame (feature names) is checked at open: a shard whose meta
//     frame is missing, fails its CRC, does not parse or names other than
//     the header's feature count is not `ok()`.

#ifndef ELDA_DATA_SHARD_IO_H_
#define ELDA_DATA_SHARD_IO_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "data/emr.h"

namespace elda {
namespace data {

// v2 appended the multi-task label trailer (writers emit v2; readers accept
// v1 and v2 — v1 records simply decode with empty label vectors).
inline constexpr uint32_t kShardFormatVersion = 2;
inline constexpr uint32_t kMinShardFormatVersion = 1;

// Canonical shard file name: "<prefix>-<index padded to 5>.elds".
std::string ShardPath(const std::string& prefix, int64_t index);

// Lists existing shards "<prefix>-00000.elds", "<prefix>-00001.elds", ...
// stopping at the first missing index. Deterministic (no directory order
// dependence).
std::vector<std::string> ListShards(const std::string& prefix);

// Streaming writer. Appends one CRC-framed record per sample through a
// bounded in-process buffer; nothing about the cohort is retained.
class ShardWriter {
 public:
  // Creates/truncates `path`, writes the header and the metadata frame.
  ShardWriter(const std::string& path,
              std::vector<std::string> feature_names);
  ~ShardWriter();

  ShardWriter(const ShardWriter&) = delete;
  ShardWriter& operator=(const ShardWriter&) = delete;

  void Append(const EmrSample& sample);

  // Flushes and closes the file. Returns false on I/O error. Safe to call
  // more than once.
  bool Close();

  int64_t num_records() const { return num_records_; }
  const std::string& path() const { return path_; }

 private:
  void WriteFrame(uint32_t frame_magic, const std::string& payload);

  std::string path_;
  std::vector<std::string> feature_names_;
  FILE* file_ = nullptr;
  int64_t num_records_ = 0;
  bool failed_ = false;
};

// Memory-mapped reader. The frame chain is scanned once at construction;
// record payloads are decoded (and CRC-checked) on demand.
class ShardReader {
 public:
  explicit ShardReader(const std::string& path);
  ~ShardReader();

  ShardReader(const ShardReader&) = delete;
  ShardReader& operator=(const ShardReader&) = delete;

  bool ok() const { return ok_; }
  const std::string& error() const { return error_; }

  int64_t size() const { return static_cast<int64_t>(records_.size()); }
  int64_t num_features() const { return num_features_; }
  // Format version of the open shard (1 = no label trailer).
  uint32_t version() const { return version_; }
  const std::vector<std::string>& feature_names() const {
    return feature_names_;
  }

  // Decodes record `i` into `*out`. Returns false (and bumps
  // num_quarantined) if the payload fails its CRC or shape checks; `*out`
  // is untouched in that case.
  bool Read(int64_t i, EmrSample* out);

  // Valid-prefix length of record `i` without decoding the full payload
  // (reads only the first payload word). Used for length-bucketed batching.
  // Returns -1 for a record too short to hold a header.
  int64_t PeekLength(int64_t i) const;

  // Like PeekLength but also reports the record's grid rows. Returns false
  // for a record too short to hold the shape prefix.
  bool PeekShape(int64_t i, int64_t* length, int64_t* num_steps) const;

  // True if the scan hit a torn tail (e.g. the writer was killed); the
  // records before the tear are still readable.
  bool tail_truncated() const { return tail_truncated_; }
  int64_t num_quarantined() const {
    return num_quarantined_.load(std::memory_order_relaxed);
  }

  // Advises the kernel to drop this shard's resident pages (the mapping
  // stays valid; pages fault back in on next access). Called by the loader
  // between epochs to bound RSS.
  void ReleasePages();

 private:
  struct RecordRef {
    uint64_t payload_offset = 0;
    uint32_t payload_size = 0;
    uint32_t crc = 0;  // stored frame CRC, checked at decode time
  };

  void Fail(std::string message);
  void ScanFrames();
  bool ParseMeta(std::string_view payload);
  std::string_view Payload(int64_t i) const;
  // Parses one CRC-checked record payload; false on any shape mismatch.
  bool Decode(std::string_view payload, EmrSample* out) const;

  std::string path_;
  int fd_ = -1;
  const uint8_t* map_ = nullptr;
  uint64_t map_size_ = 0;

  bool ok_ = false;
  std::string error_;
  uint32_t version_ = kShardFormatVersion;
  int64_t num_features_ = 0;
  std::vector<std::string> feature_names_;
  std::vector<RecordRef> records_;
  bool tail_truncated_ = false;
  // Atomic: loaders decode records from several threads concurrently.
  std::atomic<int64_t> num_quarantined_{0};
};

}  // namespace data
}  // namespace elda

#endif  // ELDA_DATA_SHARD_IO_H_
