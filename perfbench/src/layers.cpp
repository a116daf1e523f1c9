#include "perfbench/src/layers.h"

#include "src/clocks/ftvc.h"
#include "src/net/message.h"
#include "src/util/serialization.h"
#include "src/wire/wire_codec.h"

namespace perfbench {

using optrec::Ftvc;
using optrec::ProcessId;
using optrec::TraceEvent;
using optrec::TraceEventType;

namespace {

// Results feed this sink so the timed loops cannot be optimised away.
volatile std::uint64_t g_sink = 0;

}  // namespace

std::vector<Delivery> captured_deliveries(const std::vector<TraceEvent>& events,
                                          std::size_t n) {
  std::vector<Delivery> out;
  for (const TraceEvent& e : events) {
    if (e.type != TraceEventType::kDeliver || e.mclock.size() != n) continue;
    if (e.pid >= n) continue;
    const ProcessId owner = e.peer < n ? e.peer : e.pid;
    out.push_back({e.pid, Ftvc::with_entries(owner, e.mclock)});
  }
  return out;
}

void time_clocks(const std::vector<Delivery>& deliveries, std::size_t n,
                 LayerLedger& ledger, SpanRecorder* spans) {
  ScopedSpan span(spans, "clocks");
  if (deliveries.empty()) return;

  std::vector<Ftvc> local;
  for (ProcessId pid = 0; pid < n; ++pid) local.emplace_back(pid, n);
  std::uint64_t t0 = now_ns();
  for (const Delivery& d : deliveries) local[d.receiver].merge_deliver(d.clock);
  ledger.merge_ns += static_cast<double>(now_ns() - t0);
  ledger.merges += deliveries.size();
  for (const Ftvc& c : local) g_sink = g_sink + c.self().ts;

  std::uint64_t bytes = 0;
  t0 = now_ns();
  for (const Delivery& d : deliveries) {
    optrec::Writer w;
    d.clock.encode(w);
    bytes += w.size();
  }
  ledger.clock_encode_ns += static_cast<double>(now_ns() - t0);
  ledger.clock_encodes += deliveries.size();
  g_sink = g_sink + bytes;
}

void time_history(
    const std::vector<Delivery>& deliveries,
    const std::function<const optrec::History*(ProcessId)>& history_of,
    std::size_t n, LayerLedger& ledger, SpanRecorder* spans) {
  ScopedSpan span(spans, "history");
  std::vector<const optrec::History*> histories(n, nullptr);
  for (ProcessId pid = 0; pid < n; ++pid) {
    histories[pid] = history_of(pid);
    if (histories[pid] != nullptr) {
      ledger.history_bytes += histories[pid]->byte_size();
    }
  }
  std::uint64_t checks = 0;
  std::uint64_t verdicts = 0;
  const std::uint64_t t0 = now_ns();
  for (const Delivery& d : deliveries) {
    const optrec::History* h = histories[d.receiver];
    if (h == nullptr) continue;
    verdicts += h->is_obsolete(d.clock) ? 1 : 0;
    verdicts += h->is_deliverable(d.clock) ? 2 : 0;
    ++checks;
  }
  ledger.check_ns += static_cast<double>(now_ns() - t0);
  ledger.checks += checks;
  g_sink = g_sink + verdicts;
}

void time_wire(const std::vector<TraceEvent>& events, std::size_t payload_bytes,
               LayerLedger& ledger, SpanRecorder* spans) {
  ScopedSpan span(spans, "wire");
  std::vector<optrec::Message> sends;
  for (const TraceEvent& e : events) {
    if (e.type != TraceEventType::kSend) continue;
    if ((e.detail & optrec::kTraceSendControl) != 0) continue;
    optrec::Message msg;
    msg.id = e.msg_id;
    msg.kind = optrec::MessageKind::kApp;
    msg.src = e.pid;
    msg.dst = e.peer;
    msg.src_version = e.msg_version;
    msg.send_seq = e.send_seq;
    msg.clock = Ftvc::with_entries(e.pid, e.mclock);
    msg.payload = optrec::Bytes(payload_bytes, 0xab);
    msg.retransmission = (e.detail & optrec::kTraceSendRetransmission) != 0;
    sends.push_back(std::move(msg));
  }
  if (sends.empty()) return;

  std::vector<optrec::Bytes> frames;
  frames.reserve(sends.size());
  std::uint64_t t0 = now_ns();
  for (const optrec::Message& m : sends) {
    frames.push_back(optrec::encode_message_frame(m));
  }
  ledger.frame_encode_ns += static_cast<double>(now_ns() - t0);

  std::uint64_t decoded = 0;
  t0 = now_ns();
  for (const optrec::Bytes& f : frames) {
    decoded += optrec::decode_frame(f).message.send_seq;
  }
  ledger.frame_decode_ns += static_cast<double>(now_ns() - t0);
  g_sink = g_sink + decoded;

  ledger.frames += sends.size();
  for (const optrec::Message& m : sends) {
    ledger.piggyback_bytes += optrec::message_piggyback_bytes(m);
  }
}

void time_storage(const std::vector<const optrec::StableStorage*>& storages,
                  LayerLedger& ledger, SpanRecorder* spans) {
  ScopedSpan span(spans, "storage");
  ++ledger.runs;
  for (const optrec::StableStorage* s : storages) {
    ledger.stable_bytes += s->stable_bytes();
    const optrec::CheckpointStore& store = s->checkpoints();
    for (std::size_t i = 0; i < store.count(); ++i) {
      const optrec::Checkpoint& c = store.at(i);
      ledger.checkpoint_bytes += c.byte_size();
      const std::uint64_t t0 = now_ns();
      optrec::Writer w;
      c.encode(w);
      ledger.checkpoint_encode_ns += static_cast<double>(now_ns() - t0);
      g_sink = g_sink + w.size();
      ++ledger.checkpoints;
    }
  }
}

void report_layers(const LayerLedger& l, Outcome& out) {
  const auto per = [](double total, std::uint64_t count) {
    return count == 0 ? 0.0 : total / static_cast<double>(count);
  };
  out.set("clocks.merge_ns", per(l.merge_ns, l.merges), "ns");
  out.set("clocks.encode_ns", per(l.clock_encode_ns, l.clock_encodes), "ns");
  out.set("history.check_ns", per(l.check_ns, l.checks), "ns");
  out.set("history.bytes", per(static_cast<double>(l.history_bytes), l.runs),
          "B");
  out.set("wire.encode_ns", per(l.frame_encode_ns, l.frames), "ns");
  out.set("wire.decode_ns", per(l.frame_decode_ns, l.frames), "ns");
  out.set("wire.piggyback_bytes_per_msg",
          per(static_cast<double>(l.piggyback_bytes), l.frames), "B");
  out.set("storage.ckpt_bytes_mean",
          per(static_cast<double>(l.checkpoint_bytes), l.checkpoints), "B");
  out.set("storage.ckpt_encode_us",
          per(l.checkpoint_encode_ns, l.checkpoints) / 1e3, "us");
  out.set("storage.stable_bytes",
          per(static_cast<double>(l.stable_bytes), l.runs), "B");
}

}  // namespace perfbench
