#include "src/clocks/ftvc.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace optrec {

std::string FtvcEntry::to_string() const {
  std::ostringstream os;
  os << '(' << ver << ',' << ts << ')';
  return os.str();
}

Ftvc::Ftvc(ProcessId owner, std::size_t n) : owner_(owner), entries_(n) {
  if (owner >= n) throw std::out_of_range("Ftvc: owner out of range");
  entries_[owner].ts = 1;
}

void Ftvc::merge_deliver(const Ftvc& mclock) {
  if (mclock.size() != size()) {
    throw std::invalid_argument("Ftvc: size mismatch in merge");
  }
  for (std::size_t j = 0; j < entries_.size(); ++j) {
    entries_[j] = std::max(entries_[j], mclock.entries_[j]);
  }
  ++entries_[owner_].ts;
}

void Ftvc::on_restart() {
  auto& self = entries_.at(owner_);
  ++self.ver;
  self.ts = 0;
}

void Ftvc::on_rollback() { ++entries_.at(owner_).ts; }

void Ftvc::force_self_ts(Timestamp ts) {
  auto& self = entries_.at(owner_);
  if (ts < self.ts) {
    throw std::invalid_argument("force_self_ts: timestamp must not decrease");
  }
  self.ts = ts;
}

void Ftvc::raise_self(FtvcEntry floor) {
  auto& self = entries_.at(owner_);
  self = std::max(self, floor);
}

bool Ftvc::dominated_by(const Ftvc& other) const {
  if (other.size() != size()) return false;
  for (std::size_t j = 0; j < entries_.size(); ++j) {
    if (entries_[j] > other.entries_[j]) return false;
  }
  return true;
}

bool Ftvc::less_than(const Ftvc& other) const {
  return dominated_by(other) && entries_ != other.entries_;
}

bool Ftvc::concurrent_with(const Ftvc& other) const {
  return !less_than(other) && !other.less_than(*this) &&
         entries_ != other.entries_;
}

void Ftvc::encode(Writer& w) const {
  w.put_u32(owner_);
  w.put_u32(static_cast<std::uint32_t>(entries_.size()));
  for (const auto& e : entries_) e.encode(w);
}

Ftvc Ftvc::decode(Reader& r) {
  Ftvc c;
  c.owner_ = r.get_u32();
  const std::uint32_t n = r.get_u32();
  // Each entry costs at least two bytes (two varints), so a count beyond
  // remaining()/2 cannot be honest. Checking before the resize keeps a
  // corrupt count from forcing a multi-gigabyte allocation.
  if (n > r.remaining() / 2) {
    throw DecodeError("ftvc entry count exceeds remaining bytes");
  }
  c.entries_.resize(n);
  for (auto& e : c.entries_) e = FtvcEntry::decode(r);
  return c;
}

std::size_t Ftvc::wire_size() const { return encoded_size(*this); }

std::string Ftvc::to_string() const {
  std::ostringstream os;
  os << '[';
  for (std::size_t j = 0; j < entries_.size(); ++j) {
    if (j) os << ' ';
    os << entries_[j].to_string();
  }
  os << ']';
  return os.str();
}

}  // namespace optrec
