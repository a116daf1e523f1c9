#include "src/util/serialization.h"

namespace optrec {

void Writer::append_varint(std::uint64_t v) {
  while (v >= 0x80) {
    out_.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out_.push_back(static_cast<std::uint8_t>(v));
}

void Writer::put_i64(std::int64_t v) {
  const auto u = static_cast<std::uint64_t>(v);
  put_varint((u << 1) ^ static_cast<std::uint64_t>(v >> 63));
}

void Writer::put_raw(const std::uint8_t* data, std::size_t n) {
  if (count_only_) {
    counted_ += n;
  } else {
    out_.insert(out_.end(), data, data + n);
  }
}

void Writer::put_bytes(const Bytes& b) {
  put_varint(b.size());
  put_raw(b.data(), b.size());
}

void Writer::put_string(const std::string& s) {
  put_varint(s.size());
  put_raw(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
}

std::uint8_t Reader::get_u8() {
  if (pos_ >= buf_.size()) throw TruncatedError("get_u8 past end");
  return buf_[pos_++];
}

std::uint64_t Reader::get_varint() {
  std::uint64_t result = 0;
  int shift = 0;
  while (true) {
    if (pos_ >= buf_.size()) throw TruncatedError("varint past end");
    const std::uint8_t byte = buf_[pos_++];
    if (shift >= 64) throw DecodeError("varint too long");
    result |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) break;
    shift += 7;
  }
  return result;
}

std::uint32_t Reader::get_u32() {
  const std::uint64_t v = get_varint();
  if (v > 0xffffffffull) throw DecodeError("u32 overflow");
  return static_cast<std::uint32_t>(v);
}

std::uint64_t Reader::get_u64() { return get_varint(); }

std::int64_t Reader::get_i64() {
  const std::uint64_t u = get_varint();
  return static_cast<std::int64_t>((u >> 1) ^ (~(u & 1) + 1));
}

Bytes Reader::get_bytes() {
  const std::uint64_t n = get_varint();
  if (n > remaining()) throw TruncatedError("bytes length past end");
  Bytes out(buf_.begin() + static_cast<std::ptrdiff_t>(pos_),
            buf_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

std::string Reader::get_string() {
  const std::uint64_t n = get_varint();
  if (n > remaining()) throw TruncatedError("string length past end");
  std::string out(buf_.begin() + static_cast<std::ptrdiff_t>(pos_),
                  buf_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

}  // namespace optrec
