#include "src/clocks/vector_clock.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace optrec {

VectorClock::VectorClock(ProcessId owner, std::size_t n)
    : owner_(owner), ticks_(n, 0) {
  if (owner >= n) throw std::out_of_range("VectorClock: owner out of range");
  ticks_[owner] = 1;
}

void VectorClock::merge_deliver(const VectorClock& incoming) {
  if (incoming.size() != size()) {
    throw std::invalid_argument("VectorClock: size mismatch in merge");
  }
  for (std::size_t j = 0; j < ticks_.size(); ++j) {
    ticks_[j] = std::max(ticks_[j], incoming.ticks_[j]);
  }
  tick();
}

bool VectorClock::dominated_by(const VectorClock& other) const {
  if (other.size() != size()) return false;
  for (std::size_t j = 0; j < ticks_.size(); ++j) {
    if (ticks_[j] > other.ticks_[j]) return false;
  }
  return true;
}

bool VectorClock::less_than(const VectorClock& other) const {
  return dominated_by(other) && !(ticks_ == other.ticks_);
}

bool VectorClock::concurrent_with(const VectorClock& other) const {
  return !less_than(other) && !other.less_than(*this) && !(*this == other);
}

void VectorClock::encode(Writer& w) const {
  w.put_u32(owner_);
  w.put_u32(static_cast<std::uint32_t>(ticks_.size()));
  for (Timestamp t : ticks_) w.put_u64(t);
}

VectorClock VectorClock::decode(Reader& r) {
  VectorClock c;
  c.owner_ = r.get_u32();
  const std::uint32_t n = r.get_u32();
  c.ticks_.resize(n);
  for (auto& t : c.ticks_) t = r.get_u64();
  return c;
}

std::size_t VectorClock::wire_size() const { return encoded_size(*this); }

std::string VectorClock::to_string() const {
  std::ostringstream os;
  os << '[';
  for (std::size_t j = 0; j < ticks_.size(); ++j) {
    if (j) os << ' ';
    os << ticks_[j];
  }
  os << ']';
  return os.str();
}

}  // namespace optrec
