#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/assert.hpp"

namespace bacp::snapshot {

/// Scalar types the codec moves in bulk. Restricting to fixed-width
/// arithmetic scalars (never structs) keeps padding bytes out of the
/// byte stream, so two snapshots of identical state are identical byte
/// sequences — the property the canonical-bytes tests and the per-section
/// checksums rest on.
template <typename T>
concept CodecScalar = std::is_arithmetic_v<T> && std::has_unique_object_representations_v<T>;

/// Append-only byte sink for one snapshot section. Scalars are written in
/// host byte order (snapshots are an in-process warm-state transport, not
/// an interchange format); doubles travel as their raw 64-bit patterns so
/// restore is bit-exact.
class Writer {
 public:
  explicit Writer(std::vector<std::uint8_t>& out) : out_(&out) {}

  void u8(std::uint8_t value) { raw(&value, sizeof(value)); }
  void u16(std::uint16_t value) { raw(&value, sizeof(value)); }
  void u32(std::uint32_t value) { raw(&value, sizeof(value)); }
  void u64(std::uint64_t value) { raw(&value, sizeof(value)); }
  void f64(double value) { u64(std::bit_cast<std::uint64_t>(value)); }

  /// Length-prefixed scalar array (the length doubles as a shape check on
  /// restore).
  template <CodecScalar T>
  void scalars(std::span<const T> values) {
    u64(values.size());
    raw(values.data(), values.size() * sizeof(T));
  }

  /// Unprefixed scalar run: the caller records the shape elsewhere (e.g. a
  /// total written up front for many runs) and restore reads the same runs
  /// back through Reader::elements_into.
  template <CodecScalar T>
  void elements(std::span<const T> values) {
    raw(values.data(), values.size() * sizeof(T));
  }

  /// Appends `count` bytes for the caller to fill in place — for packed
  /// records whose layout the caller owns. The span is invalidated by the
  /// next write.
  std::span<std::uint8_t> bytes(std::size_t count) {
    const std::size_t offset = out_->size();
    out_->resize(offset + count);
    return {out_->data() + offset, count};
  }

  /// Length-prefixed UTF-8 string.
  void str(std::string_view value) {
    u64(value.size());
    raw(value.data(), value.size());
  }

 private:
  void raw(const void* data, std::size_t bytes) {
    // resize + memcpy, not insert(): GCC 12's -Wstringop-overflow misfires
    // on byte-vector range inserts from raw pointers at -O3.
    if (bytes == 0) return;  // empty spans may carry a null data pointer
    const std::size_t offset = out_->size();
    out_->resize(offset + bytes);
    std::memcpy(out_->data() + offset, data, bytes);
  }

  std::vector<std::uint8_t>* out_;
};

/// Bounds-checked cursor over one snapshot section. Underrun or a shape
/// mismatch aborts via BACP_ASSERT: restore_state() is only handed
/// validated SystemSnapshots (sealed by the producing save_state(), or
/// checked by snapshot::validate_framing on load), so a malformed read
/// here is a program bug, not an input error.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint8_t u8() { return take<std::uint8_t>(); }
  std::uint16_t u16() { return take<std::uint16_t>(); }
  std::uint32_t u32() { return take<std::uint32_t>(); }
  std::uint64_t u64() { return take<std::uint64_t>(); }
  double f64() { return std::bit_cast<double>(u64()); }

  /// Reads a scalar array written by Writer::scalars into `values`,
  /// asserting the stored length matches `values.size()` (component
  /// geometry fixes every array shape, so a mismatch means the snapshot
  /// belongs to a different configuration).
  template <CodecScalar T>
  void scalars_into(std::span<T> values) {
    const std::uint64_t count = u64();
    BACP_ASSERT(count == values.size(), "snapshot array length mismatch");
    raw(values.data(), values.size() * sizeof(T));
  }

  /// Reads an unprefixed run written by Writer::elements into `values`.
  template <CodecScalar T>
  void elements_into(std::span<T> values) {
    raw(values.data(), values.size() * sizeof(T));
  }

  /// Reads a scalar array of stored length (for arrays whose size is data,
  /// e.g. the allocation history).
  template <CodecScalar T>
  std::vector<T> scalars() {
    const std::uint64_t count = u64();
    BACP_ASSERT(count <= remaining() / sizeof(T), "snapshot array overruns section");
    std::vector<T> values(static_cast<std::size_t>(count));
    raw(values.data(), values.size() * sizeof(T));
    return values;
  }

  /// Reads a scalar array of stored length into `values`, reusing its
  /// capacity (restore paths that must not allocate per call).
  template <CodecScalar T>
  void assign_scalars(std::vector<T>& values) {
    const std::uint64_t count = u64();
    BACP_ASSERT(count <= remaining() / sizeof(T), "snapshot array overruns section");
    values.resize(static_cast<std::size_t>(count));
    raw(values.data(), values.size() * sizeof(T));
  }

  /// Borrows the next `count` bytes of the section (packed records the
  /// caller decodes itself; no copy).
  std::span<const std::uint8_t> bytes(std::size_t count) {
    BACP_ASSERT(count <= remaining(), "snapshot section underrun");
    const std::span<const std::uint8_t> run = bytes_.subspan(cursor_, count);
    cursor_ += count;
    return run;
  }

  std::string str() {
    const std::uint64_t count = u64();
    BACP_ASSERT(count <= remaining(), "snapshot string overruns section");
    std::string value(static_cast<std::size_t>(count), '\0');
    raw(value.data(), value.size());
    return value;
  }

  std::size_t remaining() const { return bytes_.size() - cursor_; }
  bool exhausted() const { return remaining() == 0; }

 private:
  template <typename T>
  T take() {
    T value;
    raw(&value, sizeof(T));
    return value;
  }

  void raw(void* data, std::size_t bytes) {
    BACP_ASSERT(bytes <= remaining(), "snapshot section underrun");
    if (bytes == 0) return;  // empty destinations may carry a null pointer
    std::memcpy(data, bytes_.data() + cursor_, bytes);
    cursor_ += bytes;
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t cursor_ = 0;
};

}  // namespace bacp::snapshot
