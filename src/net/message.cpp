#include "src/net/message.h"

#include <sstream>

#include "src/util/serialization.h"

namespace optrec {

void Message::encode(Writer& w) const {
  w.put_u8(static_cast<std::uint8_t>(kind));
  w.put_u32(src);
  w.put_u32(dst);
  w.put_u32(src_version);
  w.put_u64(send_seq);
  w.put_bool(retransmission);
  if (clock.size() > 0) {
    w.put_bool(true);
    clock.encode(w);
  } else {
    w.put_bool(false);
  }
  w.put_bytes(payload);
  w.put_u64(sender_state);
}

Message Message::decode(Reader& r) {
  Message m;
  m.kind = static_cast<MessageKind>(r.get_u8());
  m.src = r.get_u32();
  m.dst = r.get_u32();
  m.src_version = r.get_u32();
  m.send_seq = r.get_u64();
  m.retransmission = r.get_bool();
  if (r.get_bool()) m.clock = Ftvc::decode(r);
  m.payload = r.get_bytes();
  m.sender_state = r.get_u64();
  return m;
}

std::size_t Message::wire_size() const {
  // The oracle's sender_state tag is bookkeeping, not wire content.
  return encoded_size(*this) - varint_size(sender_state);
}

std::string Message::describe() const {
  std::ostringstream os;
  os << (kind == MessageKind::kApp ? "msg" : "ctl") << '#' << id << " P" << src
     << "->P" << dst << " v" << src_version << " seq" << send_seq;
  if (clock.size() > 0) os << ' ' << clock.to_string();
  if (retransmission) os << " (rexmit)";
  return os.str();
}

void Token::encode(Writer& w) const {
  w.put_u32(from);
  w.put_u32(failed.ver);
  w.put_u64(failed.ts);
  if (restored_clock) {
    w.put_bool(true);
    restored_clock->encode(w);
  } else {
    w.put_bool(false);
  }
  w.put_u32(origin_pid);
  w.put_u32(origin_ver);
}

Token Token::decode(Reader& r) {
  Token t;
  t.from = r.get_u32();
  t.failed.ver = r.get_u32();
  t.failed.ts = r.get_u64();
  if (r.get_bool()) t.restored_clock = Ftvc::decode(r);
  t.origin_pid = r.get_u32();
  t.origin_ver = r.get_u32();
  return t;
}

std::size_t Token::wire_size() const {
  // The metrics-attribution trailer is bookkeeping, not wire content.
  return encoded_size(*this) - varint_size(origin_pid) -
         varint_size(origin_ver);
}

std::string Token::describe() const {
  std::ostringstream os;
  os << "token P" << from << ' ' << failed.to_string();
  if (restored_clock) os << " +clock";
  return os.str();
}

}  // namespace optrec
