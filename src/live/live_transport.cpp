#include "src/live/live_transport.h"

#include <stdexcept>
#include <utility>

#include "src/wire/wire_codec.h"

namespace optrec {

LiveTransport::LiveTransport(const LiveClock& clock, std::size_t n,
                             std::uint64_t seed, LiveFaultConfig faults)
    : clock_(clock), faults_(faults), endpoints_(n, nullptr) {
  channels_.reserve(n);
  send_rng_.reserve(n);
  Rng base(seed);
  for (std::size_t i = 0; i < n; ++i) {
    channels_.push_back(std::make_unique<LiveChannel>());
    send_rng_.push_back(base.fork());
  }
  fanout_thread_ = std::thread([this] { fanout_main(); });
}

LiveTransport::~LiveTransport() {
  {
    std::lock_guard<std::mutex> lock(fanout_mu_);
    fanout_stop_ = true;
  }
  fanout_cv_.notify_all();
  fanout_thread_.join();
}

void LiveTransport::attach(ProcessId pid, Endpoint* endpoint) {
  if (endpoint == nullptr) throw std::invalid_argument("attach: null endpoint");
  endpoints_.at(pid) = endpoint;
}

SimTime LiveTransport::draw_delay(Rng& rng) {
  return rng.uniform_range(faults_.min_delay, faults_.max_delay);
}

SimTime LiveTransport::link_clear_at(ProcessId src, ProcessId dst,
                                     SimTime t) const {
  // Mirror Network::connected: unlisted processes share group 0, traffic
  // crossing groups is held until the heal. Windows may overlap, so iterate
  // to a fixpoint (the schedule is tiny — scripted events, not traffic).
  bool moved = true;
  while (moved) {
    moved = false;
    for (const PartitionEvent& event : faults_.partitions) {
      if (t < event.at || t >= event.heal_at) continue;
      std::uint32_t src_group = 0;
      std::uint32_t dst_group = 0;
      std::uint32_t group_id = 1;
      for (const auto& group : event.groups) {
        for (ProcessId pid : group) {
          if (pid == src) src_group = group_id;
          if (pid == dst) dst_group = group_id;
        }
        ++group_id;
      }
      if (src_group != dst_group) {
        t = event.heal_at;
        moved = true;
      }
    }
  }
  return t;
}

void LiveTransport::push_wire(ProcessId src, ProcessId dst, FrameRef wire,
                              bool app, bool token, SimTime delay) {
  LiveFrame f;
  f.kind = LiveFrame::Kind::kWire;
  f.src = src;
  f.wire = std::move(wire);
  f.app = app;
  f.token = token;
  f.sent_at = clock_.now();
  f.not_before = link_clear_at(src, dst, f.sent_at + delay);
  channels_.at(dst)->push(std::move(f));
}

void LiveTransport::fanout_main() {
  std::unique_lock<std::mutex> lock(fanout_mu_);
  for (;;) {
    fanout_cv_.wait(lock,
                    [this] { return fanout_stop_ || !fanout_queue_.empty(); });
    if (fanout_queue_.empty()) {
      if (fanout_stop_) return;
      continue;
    }
    PendingBroadcast b = std::move(fanout_queue_.front());
    fanout_queue_.pop_front();
    lock.unlock();
    for (std::size_t i = 0; i < b.dst_delays.size(); ++i) {
      const auto& [dst, delay] = b.dst_delays[i];
      // Shared ref: every destination's channel frame points at the same
      // encoded token image (one atomic inc per clone, zero byte copies).
      FrameRef wire =
          i + 1 == b.dst_delays.size() ? std::move(b.wire) : b.wire;
      push_wire(b.src, dst, std::move(wire), /*app=*/false, /*token=*/true,
                delay);
    }
    lock.lock();
  }
}

MsgId LiveTransport::send(Message msg) {
  if (msg.src == msg.dst) throw std::invalid_argument("send: src == dst");
  if (msg.dst >= endpoints_.size() || endpoints_[msg.dst] == nullptr) {
    throw std::out_of_range("send: unknown destination");
  }
  msg.id = next_msg_id_.fetch_add(1, std::memory_order_relaxed);
  messages_sent_.fetch_add(1, std::memory_order_relaxed);
  message_bytes_.fetch_add(message_wire_bytes(msg), std::memory_order_relaxed);
  if (trace_) {
    TraceEvent e;
    e.at = clock_.now();
    e.type = TraceEventType::kSend;
    e.pid = msg.src;
    e.clock = msg.clock.size() > msg.src ? msg.clock.entry(msg.src)
                                         : FtvcEntry{msg.src_version, 0};
    e.peer = msg.dst;
    e.msg_id = msg.id;
    e.send_seq = msg.send_seq;
    e.msg_version = msg.src_version;
    if (msg.kind == MessageKind::kControl) e.detail |= kTraceSendControl;
    if (msg.retransmission) e.detail |= kTraceSendRetransmission;
    e.mclock = msg.clock.entries();
    trace_->emit(std::move(e));
  }
  Rng& rng = send_rng_.at(msg.src);
  const bool app = msg.kind == MessageKind::kApp;
  if (app) {
    app_messages_sent_.fetch_add(1, std::memory_order_relaxed);
    if (rng.chance(faults_.drop_prob)) {
      messages_dropped_.fetch_add(1, std::memory_order_relaxed);
      return msg.id;
    }
  }
  // Encode once into a pooled buffer; a duplicate delivery shares the ref.
  FrameRef wire = FramePool::global().wrap(encode_message_frame(msg));
  if (app && rng.chance(faults_.duplicate_prob)) {
    messages_duplicated_.fetch_add(1, std::memory_order_relaxed);
    push_wire(msg.src, msg.dst, wire, app, /*token=*/false, draw_delay(rng));
  }
  const SimTime delay = draw_delay(rng);
  push_wire(msg.src, msg.dst, std::move(wire), app, /*token=*/false, delay);
  return msg.id;
}

void LiveTransport::broadcast_token(const Token& token) {
  token_broadcasts_.fetch_add(1, std::memory_order_relaxed);
  if (trace_) {
    TraceEvent e;
    e.at = clock_.now();
    e.type = TraceEventType::kTokenBroadcast;
    e.pid = token.from;
    e.clock = token.failed;
    e.ref = token.failed;
    if (token.origin_pid != kNoProcess) {
      e.origin = token.origin_pid;
      e.origin_ver = token.origin_ver;
    } else {
      e.origin = token.from;
      e.origin_ver = token.failed.ver;
    }
    trace_->emit(std::move(e));
  }
  // Account + draw everything on the announcing worker (cheap), then let
  // the fan-out thread do the O(n) encode-once pushes. tokens_sent_ is
  // bumped here, before the handoff, so tokens_in_flight() covers frames
  // that are queued for fan-out but not yet pushed.
  PendingBroadcast b;
  b.src = token.from;
  Rng& rng = send_rng_.at(token.from);
  const std::size_t bytes = token_wire_bytes(token);
  for (ProcessId dst = 0; dst < endpoints_.size(); ++dst) {
    if (dst == token.from || endpoints_[dst] == nullptr) continue;
    tokens_sent_.fetch_add(1, std::memory_order_relaxed);
    token_bytes_.fetch_add(bytes, std::memory_order_relaxed);
    b.dst_delays.emplace_back(dst, draw_delay(rng));
  }
  if (b.dst_delays.empty()) return;
  b.wire = FramePool::global().wrap(encode_token_frame(token));
  {
    std::lock_guard<std::mutex> lock(fanout_mu_);
    fanout_queue_.push_back(std::move(b));
  }
  fanout_cv_.notify_one();
}

void LiveTransport::send_token(ProcessId dst, const Token& token) {
  tokens_sent_.fetch_add(1, std::memory_order_relaxed);
  token_bytes_.fetch_add(token_wire_bytes(token), std::memory_order_relaxed);
  Rng& rng = send_rng_.at(token.from);
  push_wire(token.from, dst, FramePool::global().wrap(encode_token_frame(token)),
            /*app=*/false, /*token=*/true, draw_delay(rng));
}

// Deliveries are counted with release order: a quiescence check that sees
// the delivery also sees every send its handler made.
void LiveTransport::note_delivered_message(bool app) {
  messages_delivered_.fetch_add(1, std::memory_order_relaxed);
  if (app) app_messages_delivered_.fetch_add(1, std::memory_order_release);
}

void LiveTransport::note_delivered_token() {
  tokens_delivered_.fetch_add(1, std::memory_order_release);
}

void LiveTransport::note_retry(bool token) {
  if (!token) messages_retried_.fetch_add(1, std::memory_order_relaxed);
}

Network::Stats LiveTransport::stats() const {
  Network::Stats s;
  s.messages_sent = messages_sent_.load(std::memory_order_relaxed);
  s.messages_delivered = messages_delivered_.load(std::memory_order_relaxed);
  s.app_messages_sent = app_messages_sent_.load(std::memory_order_relaxed);
  s.app_messages_delivered =
      app_messages_delivered_.load(std::memory_order_relaxed);
  s.messages_dropped = messages_dropped_.load(std::memory_order_relaxed);
  s.messages_duplicated = messages_duplicated_.load(std::memory_order_relaxed);
  s.messages_retried = messages_retried_.load(std::memory_order_relaxed);
  s.tokens_sent = tokens_sent_.load(std::memory_order_relaxed);
  s.tokens_delivered = tokens_delivered_.load(std::memory_order_relaxed);
  s.token_broadcasts = token_broadcasts_.load(std::memory_order_relaxed);
  s.message_bytes = message_bytes_.load(std::memory_order_relaxed);
  s.token_bytes = token_bytes_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace optrec
