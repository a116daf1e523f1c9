#include "src/history/history.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace optrec {

std::string HistoryRecord::to_string() const {
  std::ostringstream os;
  os << '(' << (kind == RecordKind::kToken ? 't' : 'm') << ',' << ver << ','
     << ts << ')';
  return os.str();
}

History::History(ProcessId owner, std::size_t n)
    : owner_(owner), per_process_(n) {
  if (owner >= n) throw std::out_of_range("History: owner out of range");
  for (std::size_t j = 0; j < n; ++j) {
    per_process_[j][0] = HistoryRecord{RecordKind::kMessage, 0, 0};
  }
  per_process_[owner][0] = HistoryRecord{RecordKind::kMessage, 0, 1};
}

void History::observe_message_clock(const Ftvc& mclock) {
  if (mclock.size() != per_process_.size()) {
    throw std::invalid_argument("History: clock size mismatch");
  }
  for (ProcessId j = 0; j < per_process_.size(); ++j) {
    const FtvcEntry& e = mclock.entry(j);
    auto& versions = per_process_[j];
    auto it = versions.find(e.ver);
    if (it == versions.end()) {
      versions[e.ver] = HistoryRecord{RecordKind::kMessage, e.ver, e.ts};
      continue;
    }
    // Token records dominate: a token's timestamp is the exact restored
    // point; no message information may replace it (DESIGN.md §3).
    if (it->second.kind == RecordKind::kToken) continue;
    if (it->second.ts < e.ts) {
      it->second.ts = e.ts;
    }
  }
}

void History::observe_token(ProcessId j, FtvcEntry token) {
  auto& slot = per_process_.at(j)[token.ver];
  if (slot.kind == RecordKind::kToken && slot.ver == token.ver) {
    // Re-announcements for the same version only ever strengthen: the
    // earliest restored point wins (relevant for the cascading baseline,
    // which re-announces on every rollback; a no-op for Damani-Garg, whose
    // tokens are unique per version).
    slot.ts = std::min(slot.ts, token.ts);
    return;
  }
  slot = HistoryRecord{RecordKind::kToken, token.ver, token.ts};
}

bool History::has_token(ProcessId j, Version v) const {
  const auto& versions = per_process_.at(j);
  auto it = versions.find(v);
  return it != versions.end() && it->second.kind == RecordKind::kToken;
}

std::optional<HistoryRecord> History::record(ProcessId j, Version v) const {
  const auto& versions = per_process_.at(j);
  auto it = versions.find(v);
  if (it == versions.end()) return std::nullopt;
  return it->second;
}

bool History::is_obsolete(const Ftvc& mclock) const {
  for (ProcessId j = 0; j < per_process_.size(); ++j) {
    const FtvcEntry& e = mclock.entry(j);
    auto rec = record(j, e.ver);
    if (rec && rec->kind == RecordKind::kToken && e.ts > rec->ts) {
      return true;  // depends on a lost state of version e.ver of process j
    }
  }
  return false;
}

std::optional<std::pair<ProcessId, Version>> History::first_missing_token(
    const Ftvc& mclock) const {
  for (ProcessId j = 0; j < per_process_.size(); ++j) {
    const Version ver = mclock.entry(j).ver;
    for (Version l = 0; l < ver; ++l) {
      if (!has_token(j, l)) return std::make_pair(j, l);
    }
  }
  return std::nullopt;
}

bool History::makes_orphan(ProcessId j, FtvcEntry token) const {
  auto rec = record(j, token.ver);
  return rec && rec->kind == RecordKind::kMessage && rec->ts > token.ts;
}

std::vector<HistoryRecord> History::records_for(ProcessId j) const {
  std::vector<HistoryRecord> out;
  for (const auto& [ver, rec] : per_process_.at(j)) out.push_back(rec);
  return out;
}

void History::encode(Writer& w) const {
  w.put_u32(owner_);
  w.put_u32(static_cast<std::uint32_t>(per_process_.size()));
  for (const auto& versions : per_process_) {
    w.put_u32(static_cast<std::uint32_t>(versions.size()));
    for (const auto& [ver, rec] : versions) {
      w.put_u8(static_cast<std::uint8_t>(rec.kind));
      w.put_u32(rec.ver);
      w.put_u64(rec.ts);
    }
  }
}

History History::decode(Reader& r) {
  History h;
  h.owner_ = r.get_u32();
  const std::uint32_t n = r.get_u32();
  h.per_process_.resize(n);
  for (auto& versions : h.per_process_) {
    const std::uint32_t count = r.get_u32();
    for (std::uint32_t k = 0; k < count; ++k) {
      HistoryRecord rec;
      rec.kind = static_cast<RecordKind>(r.get_u8());
      rec.ver = r.get_u32();
      rec.ts = r.get_u64();
      versions[rec.ver] = rec;
    }
  }
  return h;
}

std::size_t History::byte_size() const { return encoded_size(*this); }

std::string History::to_string() const {
  std::ostringstream os;
  for (ProcessId j = 0; j < per_process_.size(); ++j) {
    os << 'P' << j << ":{";
    bool first = true;
    for (const auto& [ver, rec] : per_process_[j]) {
      if (!first) os << ' ';
      first = false;
      os << rec.to_string();
    }
    os << "} ";
  }
  return os.str();
}

}  // namespace optrec
