// Little-endian byte codec shared by every on-disk and state format.
//
// ByteWriter appends raw values to a std::string; ByteReader walks a
// (pointer, size) view of bytes it does not own. Values travel as their
// in-memory bit patterns (the formats are little-endian, like the hosts
// they run on), so floats round-trip bit for bit.
//
// The reader is the one place that bounds-checks untrusted bytes. Every
// read goes through Take, whose single overflow-safe test is
// `count > (size - pos) / elem_size`: a length or count field cannot drive
// a read past the end, and array reads are checked against the bytes that
// are really there before a caller allocates for them. A failed read
// poisons the reader (ok() turns false and every later read fails), so a
// decoder may chain reads and test once.

#ifndef ELDA_UTIL_BYTE_CODEC_H_
#define ELDA_UTIL_BYTE_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace elda {
namespace util {

// Stores `message` in `*error` (when non-null) and returns false, so a
// decoder can `return Fail(error, "...")`.
bool Fail(std::string* error, const std::string& message);

class ByteWriter {
 public:
  template <typename T>
  void Put(T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    Append(&value, sizeof(T));
  }

  // `count` values in one append (a float span, an index array).
  template <typename T>
  void PutArray(const T* values, size_t count) {
    static_assert(std::is_trivially_copyable_v<T>);
    Append(values, count * sizeof(T));
  }

  // The length as a LenT, then the bytes.
  template <typename LenT>
  void PutString(std::string_view value) {
    Put(static_cast<LenT>(value.size()));
    Append(value.data(), value.size());
  }

  void Append(const void* data, size_t size) {
    out_.append(static_cast<const char*>(data), size);
  }
  void Reserve(size_t size) { out_.reserve(size); }

  size_t size() const { return out_.size(); }
  const std::string& bytes() const { return out_; }
  std::string Take() { return std::move(out_); }

 private:
  std::string out_;
};

class ByteReader {
 public:
  ByteReader(const void* data, size_t size)
      : data_(static_cast<const char*>(data)), size_(size) {}
  explicit ByteReader(std::string_view bytes)
      : ByteReader(bytes.data(), bytes.size()) {}

  // The next `count * elem_size` bytes, or nullptr (poisoning the reader)
  // when fewer remain. The only bound in the codec.
  const char* Take(size_t count, size_t elem_size = 1) {
    if (!ok_ || count > (size_ - pos_) / elem_size) {
      ok_ = false;
      return nullptr;
    }
    const char* at = data_ + pos_;
    pos_ += count * elem_size;
    return at;
  }

  template <typename T>
  bool Get(T* value) {
    return GetArray(value, 1);
  }

  template <typename T>
  bool GetArray(T* values, size_t count) {
    static_assert(std::is_trivially_copyable_v<T>);
    const char* at = Take(count, sizeof(T));
    if (at == nullptr) return false;
    if (count > 0) std::memcpy(values, at, count * sizeof(T));
    return true;
  }

  // Resizes `*values` to `count` only once the bytes are known to be there.
  template <typename T>
  bool GetArray(std::vector<T>* values, size_t count) {
    static_assert(std::is_trivially_copyable_v<T>);
    const char* at = Take(count, sizeof(T));
    if (at == nullptr) return false;
    values->resize(count);
    if (count > 0) std::memcpy(values->data(), at, count * sizeof(T));
    return true;
  }

  // A string written by PutString<LenT>, as a view into the reader's
  // bytes; lengths above `max_length` (or negative, for a signed LenT) are
  // rejected.
  template <typename LenT>
  bool GetView(std::string_view* value,
               size_t max_length = std::numeric_limits<size_t>::max()) {
    LenT length = 0;
    if (!Get(&length)) return false;
    if constexpr (std::is_signed_v<LenT>) {
      if (length < 0) return Poison();
    }
    if (static_cast<uint64_t>(length) > max_length) return Poison();
    const char* at = Take(static_cast<size_t>(length));
    if (at == nullptr) return false;
    *value = std::string_view(at, static_cast<size_t>(length));
    return true;
  }

  template <typename LenT>
  bool GetString(std::string* value,
                 size_t max_length = std::numeric_limits<size_t>::max()) {
    std::string_view view;
    if (!GetView<LenT>(&view, max_length)) return false;
    value->assign(view);
    return true;
  }

  // Marks the payload bad (a decoded value failed validation); returns
  // false.
  bool Poison() {
    ok_ = false;
    return false;
  }

  // True when every read so far succeeded.
  bool ok() const { return ok_; }
  // True when every read succeeded and every byte was consumed.
  bool AtEnd() const { return ok_ && pos_ == size_; }
  size_t remaining() const { return size_ - pos_; }

 private:
  const char* data_;
  size_t size_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace util
}  // namespace elda

#endif  // ELDA_UTIL_BYTE_CODEC_H_
