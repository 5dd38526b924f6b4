// CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320) used to checksum
// checkpoint sections so that torn writes and bit rot are detected at load
// time instead of silently corrupting a training run.

#ifndef ELDA_HEALTH_CRC32_H_
#define ELDA_HEALTH_CRC32_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace elda {
namespace health {

// Checksum of `size` bytes at `data`. Pass a previous result as `crc` to
// continue an incremental computation over concatenated buffers:
//   Crc32(b, nb, Crc32(a, na)) == Crc32(ab, na + nb).
uint32_t Crc32(const void* data, size_t size, uint32_t crc = 0);

inline uint32_t Crc32(std::string_view bytes, uint32_t crc = 0) {
  return Crc32(bytes.data(), bytes.size(), crc);
}

}  // namespace health
}  // namespace elda

#endif  // ELDA_HEALTH_CRC32_H_
