#include "src/wire/wire_codec.h"

#include "src/util/serialization.h"

namespace optrec {

namespace {
/// Internal frame tag for the FIFO differential-clock variant. Kept out of
/// the public FrameType: diff frames only make sense between a paired
/// DiffWireEncoder/Decoder, never on the stateless path.
constexpr std::uint8_t kDiffMessageTag = 3;

struct MessageFrame {
  const Message& msg;
  void encode(Writer& w) const {
    w.put_u8(static_cast<std::uint8_t>(FrameType::kMessage));
    msg.encode(w);      // ends with the sender_state telemetry trailer
    w.put_u64(msg.id);  // substrate id, also telemetry
  }
};

struct TokenFrame {
  const Token& token;
  void encode(Writer& w) const {
    w.put_u8(static_cast<std::uint8_t>(FrameType::kToken));
    token.encode(w);  // ends with the attribution telemetry trailer
  }
};

/// Encode `image` into `reuse` (cleared, capacity kept) after reserving its
/// exact size: at most one allocation, none when the capacity suffices.
template <class Image>
Bytes encode_exact(const Image& image, Bytes&& reuse) {
  const std::size_t size = encoded_size(image);
  Writer w(std::move(reuse));
  w.reserve(size);
  image.encode(w);
  return w.take();
}

template <class Image>
FrameRef encode_pooled(const Image& image, FramePool& pool) {
  FrameRef frame = pool.acquire();
  frame.mutable_bytes() =
      encode_exact(image, std::move(frame.mutable_bytes()));
  return frame;
}
}  // namespace

Bytes encode_message_frame(const Message& msg) {
  return encode_exact(MessageFrame{msg}, Bytes{});
}

Bytes encode_token_frame(const Token& token) {
  return encode_exact(TokenFrame{token}, Bytes{});
}

FrameRef encode_message_frame(const Message& msg, FramePool& pool) {
  return encode_pooled(MessageFrame{msg}, pool);
}

FrameRef encode_token_frame(const Token& token, FramePool& pool) {
  return encode_pooled(TokenFrame{token}, pool);
}

Frame decode_frame(const Bytes& wire) {
  if (wire.empty()) {
    throw FrameError(FrameError::Kind::kTruncated, "empty frame");
  }
  if (wire.size() > kMaxFrameBytes) {
    throw FrameError(FrameError::Kind::kOversized,
                     "frame exceeds kMaxFrameBytes");
  }
  Reader r(wire);
  Frame f;
  try {
    const std::uint8_t tag = r.get_u8();
    switch (tag) {
      case static_cast<std::uint8_t>(FrameType::kMessage):
        f.type = FrameType::kMessage;
        f.message = Message::decode(r);
        f.message.id = r.get_u64();
        break;
      case static_cast<std::uint8_t>(FrameType::kToken):
        f.type = FrameType::kToken;
        f.token = Token::decode(r);
        break;
      default:
        throw FrameError(FrameError::Kind::kCorrupt, "unknown frame type tag");
    }
  } catch (const FrameError&) {
    throw;
  } catch (const TruncatedError& e) {
    throw FrameError(FrameError::Kind::kTruncated, e.what());
  } catch (const DecodeError& e) {
    throw FrameError(FrameError::Kind::kCorrupt, e.what());
  }
  if (!r.at_end()) {
    throw FrameError(FrameError::Kind::kTrailing, "trailing bytes after frame");
  }
  return f;
}

std::size_t message_wire_bytes(const Message& msg) {
  return 1 + msg.wire_size();  // frame tag + body sans telemetry
}

std::size_t token_wire_bytes(const Token& token) {
  return 1 + token.wire_size();
}

std::size_t message_piggyback_bytes(const Message& msg) {
  return message_wire_bytes(msg) - msg.payload.size();
}

Bytes DiffWireEncoder::encode_message(const Message& msg) {
  Writer w;
  w.put_u8(kDiffMessageTag);
  w.put_u8(static_cast<std::uint8_t>(msg.kind));
  w.put_u32(msg.src);
  w.put_u32(msg.dst);
  w.put_u32(msg.src_version);
  w.put_u64(msg.send_seq);
  w.put_bool(msg.retransmission);
  w.put_bytes(clocks_.encode_for(msg.dst, msg.clock));
  w.put_bytes(msg.payload);
  w.put_u64(msg.sender_state);
  w.put_u64(msg.id);
  return w.take();
}

Message DiffWireDecoder::decode_message(const Bytes& wire) {
  Reader r(wire);
  if (r.get_u8() != kDiffMessageTag) {
    throw DecodeError("not a diff message frame");
  }
  Message m;
  m.kind = static_cast<MessageKind>(r.get_u8());
  m.src = r.get_u32();
  m.dst = r.get_u32();
  m.src_version = r.get_u32();
  m.send_seq = r.get_u64();
  m.retransmission = r.get_bool();
  m.clock = clocks_.decode_from(m.src, r.get_bytes());
  m.payload = r.get_bytes();
  m.sender_state = r.get_u64();
  m.id = r.get_u64();
  if (!r.at_end()) throw DecodeError("trailing bytes after frame");
  return m;
}

}  // namespace optrec
