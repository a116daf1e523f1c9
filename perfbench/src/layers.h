// Per-layer ledger of the traced run.
//
// The traced run records a protocol trace; these functions take the real
// inputs each layer saw (message clocks and frames from the trace, the
// processes' final histories and checkpoints) and time the layer's public
// functions on exactly those inputs. Each call opens a span named after the
// layer, so the span file shows where the traced run spent its time.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "perfbench/src/bench.h"
#include "src/clocks/ftvc.h"
#include "src/history/history.h"
#include "src/storage/stable_storage.h"
#include "src/trace/trace_event.h"

namespace perfbench {

struct LayerLedger {
  // clocks: Ftvc::merge_deliver / Ftvc::encode per captured message clock
  double merge_ns = 0;
  std::uint64_t merges = 0;
  double clock_encode_ns = 0;
  std::uint64_t clock_encodes = 0;
  // history: is_obsolete + is_deliverable per captured clock
  double check_ns = 0;
  std::uint64_t checks = 0;
  std::uint64_t history_bytes = 0;
  // wire: frame encode / decode per captured send
  double frame_encode_ns = 0;
  double frame_decode_ns = 0;
  std::uint64_t frames = 0;
  std::uint64_t piggyback_bytes = 0;
  // storage: checkpoints held at the end of the run
  std::uint64_t checkpoints = 0;
  std::uint64_t checkpoint_bytes = 0;
  double checkpoint_encode_ns = 0;
  std::uint64_t stable_bytes = 0;
  /// Traced runs folded in; history and stable bytes are reported per run.
  std::uint64_t runs = 0;
};

/// A delivered message clock and the process that delivered it.
struct Delivery {
  optrec::ProcessId receiver;
  optrec::Ftvc clock;
};

/// Every delivery the trace recorded among processes 0..n-1.
std::vector<Delivery> captured_deliveries(
    const std::vector<optrec::TraceEvent>& events, std::size_t n);

/// Merge every delivered message clock into a per-receiver clock, and
/// encode every captured clock once.
void time_clocks(const std::vector<Delivery>& deliveries, std::size_t n,
                 LayerLedger& ledger, SpanRecorder* spans);

/// Check every delivered message clock against its receiver's history;
/// `history_of` returns null for processes whose history is not reachable.
void time_history(
    const std::vector<Delivery>& deliveries,
    const std::function<const optrec::History*(optrec::ProcessId)>& history_of,
    std::size_t n, LayerLedger& ledger, SpanRecorder* spans);

/// Rebuild every recorded app send as a Message with `payload_bytes` of
/// payload, then encode and decode its wire frame.
void time_wire(const std::vector<optrec::TraceEvent>& events,
               std::size_t payload_bytes, LayerLedger& ledger,
               SpanRecorder* spans);

/// Size and encode every checkpoint the processes still hold.
void time_storage(const std::vector<const optrec::StableStorage*>& storages,
                  LayerLedger& ledger, SpanRecorder* spans);

/// Publish the ledger as clocks.*, history.*, wire.* and the checkpoint
/// metrics of storage.*.
void report_layers(const LayerLedger& ledger, Outcome& out);

}  // namespace perfbench
