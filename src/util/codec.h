// Byte-level serialization for wire messages.
//
// All messages crossing the simulated network are encoded to bytes so that
// (a) message *size* is physically meaningful — the bandwidth model and the
// "traffic between Matrix servers corresponds to overlap-region size" result
// depend on it — and (b) encode/decode round-trips are testable invariants.
//
// Encoding: little-endian fixed-width integers, IEEE-754 doubles, LEB128
// varints for counts, length-prefixed strings.  No alignment padding.
// Decoding is canonical: ByteReader accepts only the one encoding ByteWriter
// produces for a value (minimal varints, 0/1 flags), so re-encoding any
// accepted input reproduces its bytes.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/ids.h"
#include "util/payload_bytes.h"

namespace matrix {

/// Bytes ByteWriter::varint spends on `v`: one per started 7-bit group.
[[nodiscard]] constexpr std::size_t varint_size(std::uint64_t v) {
  return (static_cast<std::size_t>(std::bit_width(v | 1)) + 6) / 7;
}

/// Length of the run of zero bytes that ends `bytes` (its zero tail).
[[nodiscard]] inline std::size_t zero_tail_length(
    std::span<const std::uint8_t> bytes) {
  if (bytes.empty() || bytes.back() != 0) return 0;
  // Filler tails run to hundreds of bytes: skip them a block at a time
  // (memcmp is vectorized), then a word, then a byte at a time.
  static constexpr std::uint8_t kZeros[64] = {};
  const std::uint8_t* data = bytes.data();
  std::size_t end = bytes.size();
  while (end >= sizeof kZeros &&
         std::memcmp(data + end - sizeof kZeros, kZeros, sizeof kZeros) == 0) {
    end -= sizeof kZeros;
  }
  for (std::uint64_t word = 0; end >= sizeof word; end -= sizeof word) {
    std::memcpy(&word, data + end - sizeof word, sizeof word);
    if (word != 0) break;
  }
  while (end != 0 && data[end - 1] == 0) --end;
  return bytes.size() - end;
}

/// Writes primitives through a cursor into storage already sized for them
/// (ByteWriter::extend).  Nothing is bounds-checked: the caller sizes the
/// storage first, e.g. with a ByteCounter run over the same calls.
class ByteCursor {
 public:
  explicit ByteCursor(std::uint8_t* at) : at_(at) {}

  void u8(std::uint8_t v) { *at_++ = v; }
  void u16(std::uint16_t v) { append_le(v); }
  void u32(std::uint32_t v) { append_le(v); }
  void u64(std::uint64_t v) { append_le(v); }
  void i64(std::int64_t v) { append_le(static_cast<std::uint64_t>(v)); }
  void f64(double v) { append_le(std::bit_cast<std::uint64_t>(v)); }

  /// LEB128 unsigned varint — compact for small counts.
  void varint(std::uint64_t v) {
    while (v >= 0x80) {
      *at_++ = static_cast<std::uint8_t>(v) | 0x80;
      v >>= 7;
    }
    *at_++ = static_cast<std::uint8_t>(v);
  }

  void str(std::string_view s) {
    raw({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
  }

  void raw(std::span<const std::uint8_t> bytes) {
    raw_head(bytes, bytes.size());
  }

  /// raw()'s length prefix, then only the first `stored` bytes: the rest
  /// are zeros the caller carries as a count instead (Envelope::zero_tail).
  void raw_head(std::span<const std::uint8_t> bytes, std::size_t stored) {
    varint(bytes.size());
    // memcpy's pointers must be non-null even for zero sizes.
    if (stored != 0) std::memcpy(at_, bytes.data(), stored);
    at_ += stored;
  }

  template <typename Tag>
  void id(Id<Tag> v) {
    varint(v.value());
  }

 private:
  template <typename T>
  void append_le(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      at_[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
    at_ += sizeof(T);
  }

  std::uint8_t* at_;
};

/// Appends primitive values to a growing byte buffer.
class ByteWriter {
 public:
  ByteWriter() = default;

  /// Adopts `recycled` as the backing buffer (cleared, capacity preserved).
  /// Pairs with BufferPool / Network::rent_buffer so steady-state encoding
  /// reuses payload storage instead of allocating.
  explicit ByteWriter(std::vector<std::uint8_t> recycled)
      : buf_(std::move(recycled)) {
    buf_.clear();
  }

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const { return buf_; }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }

  /// Drops the zero bytes that end the buffer and returns how many there
  /// were.
  std::size_t trim_zero_tail() {
    const std::size_t n = zero_tail_length(buf_);
    buf_.resize(buf_.size() - n);
    return n;
  }

  /// Grows the buffer by `n` bytes and returns a cursor over them — one
  /// size check for a whole run of writes.  The cursor is invalidated by
  /// the next call that grows the buffer.
  [[nodiscard]] ByteCursor extend(std::size_t n) {
    const std::size_t at = buf_.size();
    buf_.resize(at + n);
    return ByteCursor(buf_.data() + at);
  }

  void u8(std::uint8_t v) { extend(1).u8(v); }
  void u16(std::uint16_t v) { extend(2).u16(v); }
  void u32(std::uint32_t v) { extend(4).u32(v); }
  void u64(std::uint64_t v) { extend(8).u64(v); }
  void i64(std::int64_t v) { extend(8).i64(v); }
  void f64(double v) { extend(8).f64(v); }
  void varint(std::uint64_t v) { extend(varint_size(v)).varint(v); }
  void str(std::string_view s) {
    extend(varint_size(s.size()) + s.size()).str(s);
  }
  void raw(std::span<const std::uint8_t> bytes) {
    extend(varint_size(bytes.size()) + bytes.size()).raw(bytes);
  }

  template <typename Tag>
  void id(Id<Tag> v) {
    varint(v.value());
  }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Counts the bytes a ByteCursor would write for the same calls, so a
/// generic encoder can size its frame exactly before writing it.
class ByteCounter {
 public:
  [[nodiscard]] std::size_t size() const { return n_; }

  void u8(std::uint8_t) { n_ += 1; }
  void u32(std::uint32_t) { n_ += 4; }
  void u64(std::uint64_t) { n_ += 8; }
  void i64(std::int64_t) { n_ += 8; }
  void f64(double) { n_ += 8; }
  void varint(std::uint64_t v) { n_ += varint_size(v); }
  void str(std::string_view s) { n_ += varint_size(s.size()) + s.size(); }
  void raw(std::span<const std::uint8_t> b) {
    n_ += varint_size(b.size()) + b.size();
  }

  template <typename Tag>
  void id(Id<Tag> v) {
    varint(v.value());
  }

 private:
  std::size_t n_ = 0;
};

/// Reads primitives back out of a byte buffer.  All reads are bounds-checked;
/// a malformed or non-canonical buffer flips `ok()` to false and subsequent
/// reads return zero values instead of touching out-of-range memory.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] bool at_end() const { return pos_ == bytes_.size(); }
  [[nodiscard]] std::size_t remaining() const { return bytes_.size() - pos_; }
  /// Current read offset — lets frame parsers record field positions
  /// (e.g. the peer-forwarded flag a raw relay flips in place).
  [[nodiscard]] std::size_t pos() const { return pos_; }

  /// Like raw(), but returns a view into the underlying buffer instead of
  /// copying — for the zero-copy frame fast paths.
  std::span<const std::uint8_t> raw_span() {
    const std::uint64_t n = varint();
    if (!check(n)) return {};
    std::span<const std::uint8_t> out = bytes_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  std::uint8_t u8() {
    if (!check(1)) return 0;
    return bytes_[pos_++];
  }

  std::uint16_t u16() { return read_le<std::uint16_t>(); }
  std::uint32_t u32() { return read_le<std::uint32_t>(); }
  std::uint64_t u64() { return read_le<std::uint64_t>(); }
  std::int64_t i64() { return static_cast<std::int64_t>(read_le<std::uint64_t>()); }

  double f64() {
    const std::uint64_t bits = read_le<std::uint64_t>();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }

  /// A 0/1 byte (bools, optional presence).  Any other value fails: it
  /// would decode to a value that re-encodes differently.
  bool flag() {
    const std::uint8_t v = u8();
    if (v > 1) ok_ = false;
    return v == 1;
  }

  /// Minimal LEB128 only: a zero final group after the first, or bits past
  /// the 64th, fail rather than alias a shorter encoding.
  std::uint64_t varint() {
    std::uint64_t v = 0;
    for (int shift = 0; shift < 64 && check(1); shift += 7) {
      const std::uint8_t byte = bytes_[pos_++];
      v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) != 0) continue;
      if ((byte == 0 && shift > 0) || (shift == 63 && byte > 1)) break;
      return v;
    }
    ok_ = false;
    return 0;
  }

  /// A varint element count, bounded by the bytes left (every element takes
  /// at least one), so a hostile count fails before anything is allocated.
  std::size_t count() {
    const std::uint64_t n = varint();
    return check(n) ? static_cast<std::size_t>(n) : 0;
  }

  std::string str() {
    const std::uint64_t n = varint();
    if (!check(n)) return {};
    std::string s(reinterpret_cast<const char*>(bytes_.data() + pos_), n);
    pos_ += n;
    return s;
  }

  std::vector<std::uint8_t> raw() {
    const std::uint64_t n = varint();
    if (!check(n)) return {};
    std::vector<std::uint8_t> out(bytes_.begin() + static_cast<std::ptrdiff_t>(pos_),
                                  bytes_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += n;
    return out;
  }

  /// Like raw(), but into the inline PayloadBytes container — no heap
  /// allocation for typical game payload sizes.
  PayloadBytes raw_payload() {
    const std::uint64_t n = varint();
    if (!check(n)) return {};
    PayloadBytes out(bytes_.data() + pos_, n);
    pos_ += n;
    return out;
  }

  template <typename IdType>
  IdType id() {
    return IdType(varint());
  }

 private:
  bool check(std::uint64_t n) {
    if (!ok_ || n > bytes_.size() - pos_) {
      ok_ = false;
      return false;
    }
    return true;
  }

  template <typename T>
  T read_le() {
    if (!check(sizeof(T))) return T{};
    const std::uint8_t* in = bytes_.data() + pos_;
    pos_ += sizeof(T);
    T v;
    if constexpr (std::endian::native == std::endian::little) {
      // One wide load.  Optimizers do not reliably merge the portable byte
      // loop below once it is inlined into a long field sequence.
      std::memcpy(&v, in, sizeof v);
    } else {
      std::uint64_t acc = 0;
      for (std::size_t i = 0; i < sizeof(T); ++i) {
        acc |= static_cast<std::uint64_t>(in[i]) << (8 * i);
      }
      v = static_cast<T>(acc);
    }
    return v;
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace matrix
