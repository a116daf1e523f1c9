// Reference-counted, pooled wire-frame buffers.
//
// The zero-copy contract of the data plane: a frame is ENCODED ONCE into a
// FrameBuf and every subsequent hand-off — channel push, per-peer outbound
// ring, writev iovec, duplicate delivery, token fan-out to n-1 peers —
// moves or clones a FrameRef (one atomic increment), never the bytes.
// Release of the last reference recycles the node into a lock-free
// freelist ring. The message and token encoders (encode_*_frame(..., pool)
// in src/wire/wire_codec.h) write into an acquire()d node after reserving
// the exact frame size, so once the pool is warm a frame costs no
// allocation: the node and its vector capacity are both reused. wrap()
// adopts a vector encoded elsewhere and gives up the node's capacity; the
// TCP envelope headers and received frames still take that path.
//
// The rest of the per-message path still allocates: about 8 heap
// allocations per delivered message on the steady_live benchmark (the app
// payload encode and its copy in app_send, the clock copy at send, the
// decoded clock and payload, the message-log copy, the duplicate-filter
// node), down from about 36 when every sizing call built a full encode.
//
// Thread contract: the byte content of a shared buffer is written before
// the first FrameRef is published to another thread (publication rides the
// ring/channel release-acquire edges) and never mutated afterwards.
// mutable_bytes() checks uniqueness in debug builds only in the sense that
// callers must hold the sole reference — encode paths acquire a fresh
// buffer, fill it, then share.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "src/util/bytes.h"
#include "src/util/mpsc_ring.h"

namespace optrec {

class FramePool;

/// Pool node: header + the byte image. Managed exclusively through
/// FrameRef; never constructed by user code.
struct FrameBuf {
  std::atomic<std::uint32_t> refs{0};
  FramePool* pool = nullptr;
  Bytes bytes;
};

/// Intrusive refcounted handle to a FrameBuf. Copy = one relaxed atomic
/// increment; destruction of the last handle recycles the buffer.
class FrameRef {
 public:
  FrameRef() = default;
  explicit FrameRef(FrameBuf* buf) : buf_(buf) {}  // adopts one reference
  FrameRef(const FrameRef& other) : buf_(other.buf_) {
    if (buf_ != nullptr) buf_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  FrameRef(FrameRef&& other) noexcept : buf_(other.buf_) {
    other.buf_ = nullptr;
  }
  FrameRef& operator=(const FrameRef& other) {
    if (this != &other) {
      FrameRef tmp(other);
      swap(tmp);
    }
    return *this;
  }
  FrameRef& operator=(FrameRef&& other) noexcept {
    if (this != &other) {
      release();
      buf_ = other.buf_;
      other.buf_ = nullptr;
    }
    return *this;
  }
  ~FrameRef() { release(); }

  void swap(FrameRef& other) noexcept {
    FrameBuf* t = buf_;
    buf_ = other.buf_;
    other.buf_ = t;
  }
  void reset() { release(); }

  explicit operator bool() const { return buf_ != nullptr; }
  const Bytes& bytes() const { return buf_->bytes; }
  const std::uint8_t* data() const { return buf_->bytes.data(); }
  std::size_t size() const { return buf_ == nullptr ? 0 : buf_->bytes.size(); }
  /// Sole-owner mutation (encode-into paths). Callers must not have shared
  /// the ref yet.
  Bytes& mutable_bytes() { return buf_->bytes; }
  std::uint32_t use_count() const {
    return buf_ == nullptr ? 0 : buf_->refs.load(std::memory_order_relaxed);
  }

 private:
  void release();

  FrameBuf* buf_ = nullptr;
};

/// Lock-free freelist of FrameBuf nodes. acquire()/wrap() and the implicit
/// release via ~FrameRef are safe from any thread.
class FramePool {
 public:
  /// Pure counters (relaxed): how often the send path reused a node vs had
  /// to allocate, and how many nodes were dropped instead of pooled.
  struct Stats {
    std::uint64_t hits = 0;      // acquire/wrap served from the freelist
    std::uint64_t misses = 0;    // freelist empty: heap allocation
    std::uint64_t recycled = 0;  // last ref dropped, node returned to pool
    std::uint64_t discarded = 0; // node freed (pool full or buffer too big)
    std::uint64_t outstanding = 0;  // live refs' nodes not in the pool
  };

  explicit FramePool(std::size_t capacity = 4096) : free_(capacity) {}
  ~FramePool();

  /// Empty reusable buffer (retains recycled capacity) for encode-into.
  FrameRef acquire();
  /// Adopt an already-encoded image without copying.
  FrameRef wrap(Bytes&& encoded);

  Stats stats() const;

  /// Process-wide pool shared by every transport backend.
  static FramePool& global();

  /// Buffers above this capacity are freed on release instead of pooled,
  /// so one pathological frame cannot pin megabytes in the freelist.
  static constexpr std::size_t kMaxPooledCapacity = 64 * 1024;

 private:
  friend class FrameRef;
  FrameBuf* take_node();
  void recycle(FrameBuf* buf);

  BoundedMpmcRing<FrameBuf*> free_;
  std::atomic<std::size_t> pooled_{0};
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> recycled_{0};
  std::atomic<std::uint64_t> discarded_{0};
  std::atomic<std::uint64_t> outstanding_{0};
};

inline void FrameRef::release() {
  if (buf_ == nullptr) return;
  FrameBuf* buf = buf_;
  buf_ = nullptr;
  if (buf->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    buf->pool->recycle(buf);
  }
}

}  // namespace optrec
