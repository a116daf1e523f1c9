// Minimal, dependency-free binary serialization.
//
// Integers are LEB128 varints, so serialized sizes track information content:
// an FTVC entry whose version is 0 costs one byte for the version, matching
// the paper's Section 6.9 observation that versions add ~log2(f) bits per
// vector-clock entry. Benches that report piggyback bytes rely on this.
#pragma once

#include <bit>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/util/bytes.h"

namespace optrec {

/// Thrown when a Reader runs past the end of its buffer or decodes a
/// malformed varint. Round-trips of our own encodings never throw (tests
/// assert this); on bytes read off a socket these errors are expected and
/// must be caught — see FrameError in src/wire/wire_codec.h.
class DecodeError : public std::runtime_error {
 public:
  explicit DecodeError(const std::string& what) : std::runtime_error(what) {}
};

/// DecodeError subtype for input that ends mid-value: the distinction a
/// stream consumer cares about, because truncation can mean "wait for more
/// bytes" where corruption always means "drop the connection".
class TruncatedError : public DecodeError {
 public:
  explicit TruncatedError(const std::string& what) : DecodeError(what) {}
};

/// Size in bytes of `v` when varint-encoded (7 value bits per byte); used to
/// count without writing and by overhead benches to model wire cost.
inline std::size_t varint_size(std::uint64_t v) {
  return (static_cast<std::size_t>(std::bit_width(v | 1)) + 6) / 7;
}

/// Appends primitive values to a byte buffer, or, in count-only mode,
/// stores nothing and only advances size(). Sizing a value by running its
/// one encode() in count-only mode (encoded_size below) allocates nothing
/// and cannot drift from the encoder, because there is no second formula.
class Writer {
 public:
  /// Starts with room for kInitialReserve bytes, so a small encode (an app
  /// payload, a log record header) allocates once instead of growing
  /// through 1, 2, 4, ... bytes.
  Writer() { out_.reserve(kInitialReserve); }
  /// Encode into `reuse`: it is cleared, its capacity kept (pooled frames).
  explicit Writer(Bytes&& reuse) : out_(std::move(reuse)) { out_.clear(); }
  /// A writer that stores nothing; size() is what an encode would write.
  static Writer count_only() { return Writer(CountOnly{}); }

  void put_u8(std::uint8_t v) {
    if (count_only_) {
      ++counted_;
    } else {
      out_.push_back(v);
    }
  }
  void put_bool(bool v) { put_u8(v ? 1 : 0); }
  /// Unsigned LEB128.
  void put_u32(std::uint32_t v) { put_varint(v); }
  void put_u64(std::uint64_t v) { put_varint(v); }
  /// ZigZag + LEB128 so small negatives stay small.
  void put_i64(std::int64_t v);
  void put_bytes(const Bytes& b);
  void put_string(const std::string& s);

  /// Reserve room for `n` more bytes; a no-op in count-only mode.
  void reserve(std::size_t n) {
    if (!count_only_) out_.reserve(out_.size() + n);
  }

  /// Number of bytes written (or, in count-only mode, counted) so far.
  std::size_t size() const { return count_only_ ? counted_ : out_.size(); }
  const Bytes& buffer() const { return out_; }
  Bytes take() { return std::move(out_); }

 private:
  static constexpr std::size_t kInitialReserve = 32;
  struct CountOnly {};
  explicit Writer(CountOnly) : count_only_(true) {}

  void put_varint(std::uint64_t v) {
    if (count_only_) {
      counted_ += varint_size(v);
    } else {
      append_varint(v);
    }
  }
  void append_varint(std::uint64_t v);
  void put_raw(const std::uint8_t* data, std::size_t n);
  Bytes out_;
  bool count_only_ = false;
  std::size_t counted_ = 0;
};

/// Exact size of `value.encode(w)` in bytes, computed without allocating.
template <class T>
std::size_t encoded_size(const T& value) {
  Writer w = Writer::count_only();
  value.encode(w);
  return w.size();
}

/// Reads values written by Writer, in the same order.
class Reader {
 public:
  explicit Reader(const Bytes& buf) : buf_(buf) {}

  std::uint8_t get_u8();
  bool get_bool() { return get_u8() != 0; }
  std::uint32_t get_u32();
  std::uint64_t get_u64();
  std::int64_t get_i64();
  Bytes get_bytes();
  std::string get_string();

  bool at_end() const { return pos_ == buf_.size(); }
  std::size_t remaining() const { return buf_.size() - pos_; }

 private:
  std::uint64_t get_varint();
  const Bytes& buf_;
  std::size_t pos_ = 0;
};

}  // namespace optrec
