#include "perfbench/src/kv_client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <limits>
#include <sstream>
#include <thread>

#include "perfbench/src/bench.h"
#include "src/service/service_app.h"

namespace perfbench {

using optrec::Bytes;
using optrec::DecodeError;
using optrec::service::Op;
using optrec::service::Request;
using optrec::service::Response;
using optrec::service::Status;

namespace {

/// The accounts every server pre-creates, and their balance.
const optrec::service::ServiceAppConfig kBank{};
/// KV key space and the loadgen's default put:get:transfer:balance mix.
constexpr std::uint64_t kKeys = 64;
constexpr std::uint32_t kMix[4] = {40, 40, 15, 5};
/// A request unanswered this long has failed.
constexpr double kTimeoutS = 5.0;

int dial(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

}  // namespace

KvClient::KvClient(KvClientConfig config)
    : config_(std::move(config)),
      rng_(config_.seed * 0x9e3779b97f4a7c15ull + 11),
      conns_(config_.node_ports.size()) {}

KvClient::~KvClient() {
  for (Conn& c : conns_) {
    if (c.fd >= 0) ::close(c.fd);
  }
}

bool KvClient::connect(double deadline_s) {
  for (std::size_t node = 0; node < conns_.size(); ++node) {
    while (conns_[node].fd < 0) {
      conns_[node].fd = dial(config_.node_ports[node]);
      if (conns_[node].fd >= 0) break;
      if (now_s() > deadline_s) return false;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  return true;
}

void KvClient::violate(const std::string& what) {
  if (violations_.size() < 32) violations_.push_back(what);
}

Request KvClient::next_request() {
  Request req;
  const auto& mix = kMix;
  const std::uint32_t total = mix[0] + mix[1] + mix[2] + mix[3];
  const auto pick = static_cast<std::uint32_t>(rng_.uniform(total));
  if (pick < mix[0]) {
    req.op = Op::kPut;
    req.key = rng_.uniform(kKeys);
    req.value = 1 + rng_.uniform(1000);
  } else if (pick < mix[0] + mix[1]) {
    req.op = Op::kGet;
    req.key = rng_.uniform(kKeys);
  } else if (pick < mix[0] + mix[1] + mix[2]) {
    req.op = Op::kTransfer;
    req.key = rng_.uniform(kBank.accounts);
    req.to_account = rng_.uniform(kBank.accounts);
    req.value = 1 + rng_.uniform(8);
  } else {
    req.op = Op::kBalance;
    req.key = rng_.uniform(kBank.accounts);
  }
  return req;
}

void KvClient::submit(Request req, double due, bool measured) {
  std::size_t vc;
  if (idle_.empty()) {
    vc = vclients_.size();
    vclients_.emplace_back();
    vclients_.back().id = vc + 1;
    vclients_.back().kver_floor.assign(kKeys, 0);
  } else {
    vc = idle_.back();
    idle_.pop_back();
  }
  VClient& v = vclients_[vc];
  req.client_id = v.id;
  req.seq = ++v.seq;

  const Bytes body = req.encode();
  if (capture_ && measured) cap_requests_.push_back(body);
  const std::size_t n = config_.node_of_pid.size();
  Conn& c = conns_.at(config_.node_of_pid.at(req.owner(n)));
  optrec::service::append_frame(c.tx, body);
  pending_.emplace(Key{req.client_id, req.seq},
                   Pending{req, vc, due, measured});
  if (phase_ != nullptr && measured) {
    ++phase_->attempted;
    phase_->late_ms.add(std::max(0.0, now_s() - due) * 1e3);
  }
  flush(c);
}

void KvClient::flush(Conn& c) {
  while (c.fd >= 0 && c.tx_pos < c.tx.size()) {
    const ssize_t k = ::send(c.fd, c.tx.data() + c.tx_pos,
                             c.tx.size() - c.tx_pos, MSG_NOSIGNAL);
    if (k < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (k <= 0) {
      violate("service connection lost while sending");
      ::close(c.fd);
      c.fd = -1;
      return;
    }
    c.tx_pos += static_cast<std::size_t>(k);
  }
  c.tx.clear();
  c.tx_pos = 0;
}

void KvClient::drain(Conn& c) {
  std::uint8_t chunk[16384];
  for (;;) {
    const ssize_t k = ::recv(c.fd, chunk, sizeof chunk, 0);
    if (k < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (k <= 0) {
      violate("service connection closed by the server");
      ::close(c.fd);
      c.fd = -1;
      return;
    }
    c.rx.insert(c.rx.end(), chunk, chunk + k);
  }
  try {
    while (auto body = optrec::service::next_frame(c.rx, &c.rx_pos)) {
      on_reply(*body);
    }
  } catch (const DecodeError& e) {
    violate(std::string("malformed reply stream: ") + e.what());
    ::close(c.fd);
    c.fd = -1;
    return;
  }
  if (c.rx_pos == c.rx.size()) {
    c.rx.clear();
    c.rx_pos = 0;
  }
}

void KvClient::pump(double wait_s) {
  std::vector<pollfd> fds;
  std::vector<std::size_t> which;
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    if (conns_[i].fd < 0) continue;
    short events = POLLIN;
    if (conns_[i].tx_pos < conns_[i].tx.size()) events |= POLLOUT;
    fds.push_back(pollfd{conns_[i].fd, events, 0});
    which.push_back(i);
  }
  wait_s = std::max(0.0, wait_s);
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(wait_s);
  ts.tv_nsec = static_cast<long>((wait_s - std::floor(wait_s)) * 1e9);
  if (fds.empty()) {
    nanosleep(&ts, nullptr);
    return;
  }
  if (::ppoll(fds.data(), fds.size(), &ts, nullptr) <= 0) return;
  for (std::size_t i = 0; i < fds.size(); ++i) {
    Conn& c = conns_[which[i]];
    if ((fds[i].revents & POLLOUT) != 0) flush(c);
    if (c.fd >= 0 && (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
      drain(c);
    }
  }
}

void KvClient::on_reply(const Bytes& body) {
  Response r;
  try {
    r = Response::decode(body);
  } catch (const DecodeError& e) {
    violate(std::string("undecodable reply: ") + e.what());
    return;
  }
  const Key key{r.client_id, r.seq};
  const auto it = pending_.find(key);
  if (it == pending_.end()) {
    // A second reply for an answered request must repeat the first.
    const auto seen = replies_.find(key);
    if (seen != replies_.end() && seen->second != body) {
      std::ostringstream os;
      os << "exactly-once: client " << r.client_id << " seq " << r.seq
         << " got a second, different reply (" << r.describe() << ")";
      violate(os.str());
    }
    return;
  }
  const Pending p = it->second;
  pending_.erase(it);
  replies_.emplace(key, body);
  const bool ok = verify(p, r);
  idle_.push_back(p.vclient);
  if (p.measured && phase_ != nullptr) {
    if (ok) {
      phase_->latency_ms.add((now_s() - p.due) * 1e3);
      if (capture_) cap_replies_.push_back(r);
    } else {
      ++phase_->failed;
    }
  }
  if (!p.measured && sweep_ != nullptr) {
    if (ok && r.status == Status::kOk) {
      (*sweep_)[p.req.key] = r.value;
    } else {
      ++sweep_errors_;
    }
  }
}

bool KvClient::verify(const Pending& p, const Response& r) {
  const Request& q = p.req;
  std::ostringstream os;
  os << optrec::service::op_name(q.op) << " key " << q.key << " (client "
     << q.client_id << " seq " << q.seq << "): ";
  if (r.op != q.op || r.key != q.key) {
    violate(os.str() + "reply is for another request: " + r.describe());
    return false;
  }
  VClient& v = vclients_[p.vclient];
  const auto observe = [&](bool strict) {
    std::uint64_t& floor = v.kver_floor.at(q.key);
    if (floor != 0 && (strict ? r.kver <= floor : r.kver < floor)) {
      std::ostringstream m;
      m << "kver went from " << floor << " to " << r.kver;
      violate(os.str() + m.str());
      return false;
    }
    floor = std::max(floor, r.kver);
    const auto [seen, fresh] = kv_seen_.emplace(Key{q.key, r.kver}, r.value);
    if (!fresh && seen->second != r.value) {
      std::ostringstream m;
      m << "kver " << r.kver << " carries value " << r.value
        << " but another reply carried " << seen->second;
      violate(os.str() + m.str());
      return false;
    }
    return true;
  };
  switch (q.op) {
    case Op::kPut:
      if (r.status != Status::kOk || r.value != q.value) break;
      return observe(/*strict=*/true);
    case Op::kGet:
      if (r.status == Status::kNotFound) {
        // A key this client has seen written may not vanish again.
        const std::uint64_t seen = v.kver_floor.at(q.key);
        if (seen == 0) return true;
        violate(os.str() + "not found after kver " + std::to_string(seen));
        return false;
      }
      if (r.status != Status::kOk) break;
      return observe(/*strict=*/false);
    case Op::kTransfer:
      if (r.status == Status::kInsufficient) return true;
      if (r.status != Status::kOk || r.value != q.value) break;
      return true;
    case Op::kBalance:
      if (r.status == Status::kOk) return true;
      break;
  }
  violate(os.str() + "unexpected reply " + r.describe());
  return false;
}

void KvClient::expire(double now) {
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (now - it->second.due <= kTimeoutS) {
      ++it;
      continue;
    }
    if (!it->second.measured) {
      ++sweep_errors_;
    } else if (phase_ != nullptr) {
      ++phase_->timeouts;
    }
    it = pending_.erase(it);
  }
}

PhaseResult KvClient::run_phase(double rate, double duration_s,
                                double stop_at_s) {
  PhaseResult out;
  out.rate = rate;
  out.duration_s = duration_s;
  phase_ = &out;
  const auto total = static_cast<std::uint64_t>(std::llround(rate * duration_s));
  // The client runs on this thread; its CPU time is not the service's.
  const double cpu0 = cpu_seconds();
  const double client0 = thread_cpu_s();
  const double t0 = now_s();
  std::uint64_t next = 0;
  double last_due = t0;
  for (;;) {
    const double now = now_s();
    while (next < total && t0 + static_cast<double>(next) / rate <= now &&
           now < stop_at_s) {
      last_due = t0 + static_cast<double>(next) / rate;
      submit(next_request(), last_due, /*measured=*/true);
      ++next;
    }
    const bool issuing = next < total && now < stop_at_s;
    if (!issuing && pending_.empty()) break;
    expire(now);
    if (!issuing && (now > stop_at_s || now > last_due + kTimeoutS)) break;
    const double wait =
        issuing ? t0 + static_cast<double>(next) / rate - now_s() : 0.005;
    pump(std::min(wait, 0.005));
  }
  // Whatever is still unanswered, or was never sent because the stop time
  // came first, timed out.
  expire(std::numeric_limits<double>::infinity());
  out.attempted += total - next;
  out.timeouts += total - next;
  out.drain_s = std::max(0.0, now_s() - last_due);
  out.cpu_s = (cpu_seconds() - cpu0) - (thread_cpu_s() - client0);
  phase_ = nullptr;
  return out;
}

bool KvClient::sweep_balances(double deadline_s, bool expect_initial) {
  const std::uint64_t expected = kBank.accounts * kBank.initial_balance;
  while (now_s() < deadline_s) {
    std::map<std::uint64_t, std::uint64_t> balances;
    sweep_ = &balances;
    sweep_errors_ = 0;
    const double due = now_s();
    for (std::uint64_t account = 0; account < kBank.accounts; ++account) {
      Request req;
      req.op = Op::kBalance;
      req.key = account;
      submit(req, due, /*measured=*/false);
    }
    while (!pending_.empty() && now_s() < deadline_s) {
      expire(now_s());
      pump(0.005);
    }
    sweep_ = nullptr;
    if (sweep_errors_ != 0 || balances.size() != kBank.accounts) continue;
    std::uint64_t sum = 0;
    bool all_initial = true;
    for (const auto& [account, balance] : balances) {
      sum += balance;
      all_initial = all_initial && balance == kBank.initial_balance;
    }
    if (expect_initial && !all_initial) {
      violate("an account does not start at the initial balance");
      return false;
    }
    if (sum == expected) return true;
    // Transfer credits still in flight: read again shortly.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  violate("balance sweep did not find the bank total conserved in time");
  return false;
}

}  // namespace perfbench
