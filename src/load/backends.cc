#include "load/backends.h"

#include <pthread.h>

#include <chrono>
#include <deque>
#include <utility>

#include "base/time_util.h"
#include "buffer/buffer_pool.h"
#include "grammar/parser.h"
#include "proto/hadoop.h"
#include "proto/http.h"
#include "proto/memcached.h"

namespace flick::load {
namespace {

using namespace std::chrono_literals;

// Per-connection state for the polling server loops below.
struct ConnState {
  std::unique_ptr<Connection> conn;
  BufferChain rx;
  std::string tx;
  size_t tx_off = 0;
};

// Writes as much of state.tx as the transport accepts; false on fatal error.
bool FlushTx(ConnState& state) {
  while (state.tx_off < state.tx.size()) {
    auto wrote = state.conn->Write(state.tx.data() + state.tx_off,
                                   state.tx.size() - state.tx_off);
    if (!wrote.ok()) {
      return false;
    }
    if (*wrote == 0) {
      return true;
    }
    state.tx_off += *wrote;
  }
  state.tx.clear();
  state.tx_off = 0;
  return true;
}

}  // namespace

// ------------------------------------------------------------- HttpBackend ----

HttpBackend::HttpBackend(Transport* transport, uint16_t port, std::string body)
    : transport_(transport), port_(port) {
  proto::HttpMessage response = proto::MakeResponse(200, body);
  proto::SerializeResponse(response, &response_);
}

HttpBackend::~HttpBackend() { Stop(); }

Status HttpBackend::Start() {
  auto listener = transport_->Listen(port_);
  if (!listener.ok()) {
    return listener.status();
  }
  listener_ = std::move(listener).value();
  port_ = listener_->port();
  running_.store(true);
  thread_ = std::thread([this] { Serve(); });
  return OkStatus();
}

void HttpBackend::Stop() {
  if (running_.exchange(false)) {
    if (thread_.joinable()) {
      thread_.join();
    }
    listener_->Close();
  }
}

void HttpBackend::Serve() {
  pthread_setname_np(pthread_self(), "lb-http-be");
  BufferPool pool(512, 8192);
  std::vector<std::unique_ptr<ConnState>> conns;
  std::vector<std::unique_ptr<proto::HttpParser>> parsers;
  std::vector<std::unique_ptr<proto::HttpMessage>> msgs;

  while (running_.load(std::memory_order_acquire)) {
    bool did_work = false;
    while (auto conn = listener_->Accept()) {
      auto state = std::make_unique<ConnState>();
      state->conn = std::move(conn);
      state->rx.set_pool(&pool);
      conns.push_back(std::move(state));
      parsers.push_back(std::make_unique<proto::HttpParser>(proto::HttpParser::Mode::kRequest));
      msgs.push_back(std::make_unique<proto::HttpMessage>());
      accepts_.fetch_add(1, std::memory_order_relaxed);
      did_work = true;
    }
    for (size_t i = 0; i < conns.size();) {
      ConnState& state = *conns[i];
      bool dead = false;
      if (!FlushTx(state)) {
        dead = true;
      }
      char buf[4096];
      while (!dead) {
        auto got = state.conn->Read(buf, sizeof(buf));
        if (!got.ok()) {
          dead = true;
          break;
        }
        if (*got == 0) {
          break;
        }
        did_work = true;
        state.rx.Append(buf, *got);
        while (parsers[i]->Feed(state.rx, msgs[i].get()) == grammar::ParseStatus::kDone) {
          requests_.fetch_add(1, std::memory_order_relaxed);
          state.tx += response_;
          if (!msgs[i]->keep_alive) {
            FlushTx(state);
            dead = true;
            break;
          }
        }
        FlushTx(state);
      }
      if (dead) {
        conns.erase(conns.begin() + static_cast<long>(i));
        parsers.erase(parsers.begin() + static_cast<long>(i));
        msgs.erase(msgs.begin() + static_cast<long>(i));
      } else {
        ++i;
      }
    }
    if (!did_work) {
      std::this_thread::sleep_for(20us);
    }
  }
}

// -------------------------------------------------------- MemcachedBackend ----

MemcachedBackend::MemcachedBackend(Transport* transport, uint16_t port)
    : transport_(transport), port_(port) {}

MemcachedBackend::~MemcachedBackend() { Stop(); }

Status MemcachedBackend::Start() {
  auto listener = transport_->Listen(port_);
  if (!listener.ok()) {
    return listener.status();
  }
  listener_ = std::move(listener).value();
  port_ = listener_->port();
  running_.store(true);
  thread_ = std::thread([this] { Serve(); });
  return OkStatus();
}

void MemcachedBackend::Stop() {
  if (running_.exchange(false)) {
    if (thread_.joinable()) {
      thread_.join();
    }
    listener_->Close();
  }
}

void MemcachedBackend::Preload(const std::string& key, const std::string& value) {
  std::lock_guard<std::mutex> lock(mutex_);
  store_[key] = value;
}

void MemcachedBackend::Serve() {
  pthread_setname_np(pthread_self(), "lb-mc-be");
  BufferPool pool(512, 8192);
  std::vector<std::unique_ptr<ConnState>> conns;
  std::vector<std::unique_ptr<grammar::UnitParser>> parsers;
  // One parse target per connection: the incremental parser resumes into the
  // SAME message across reads, so the message must live with the parser.
  std::vector<std::unique_ptr<grammar::Message>> parse_msgs;
  // Per-connection replies held until their service-delay due time
  // (set_service_delay_ns). All delays are equal, so due order == insert
  // order and per-connection FIFO response order is preserved.
  std::vector<std::deque<std::pair<uint64_t, std::string>>> deferred;

  while (running_.load(std::memory_order_acquire)) {
    bool did_work = false;
    while (auto conn = listener_->Accept()) {
      auto state = std::make_unique<ConnState>();
      state->conn = std::move(conn);
      state->rx.set_pool(&pool);
      conns.push_back(std::move(state));
      parsers.push_back(std::make_unique<grammar::UnitParser>(&proto::MemcachedUnit()));
      parse_msgs.push_back(std::make_unique<grammar::Message>());
      deferred.emplace_back();
      accepts_.fetch_add(1, std::memory_order_relaxed);
      did_work = true;
    }
    const uint64_t delay_ns = service_delay_ns_.load(std::memory_order_relaxed);
    for (size_t i = 0; i < conns.size();) {
      ConnState& state = *conns[i];
      bool dead = false;
      // Release deferred replies that have reached their due time.
      if (!deferred[i].empty()) {
        const uint64_t now = MonotonicNanos();
        while (!deferred[i].empty() && deferred[i].front().first <= now) {
          state.tx += deferred[i].front().second;
          deferred[i].pop_front();
          did_work = true;
        }
      }
      if (!FlushTx(state)) {
        dead = true;
      }
      char buf[4096];
      while (!dead) {
        auto got = state.conn->Read(buf, sizeof(buf));
        if (!got.ok()) {
          dead = true;
          break;
        }
        if (*got == 0) {
          break;
        }
        did_work = true;
        state.rx.Append(buf, *got);
        grammar::Message& msg = *parse_msgs[i];
        while (parsers[i]->Feed(state.rx, &msg) == grammar::ParseStatus::kDone) {
          requests_.fetch_add(1, std::memory_order_relaxed);
          proto::MemcachedCommand cmd(&msg);
          grammar::Message reply;
          if (cmd.opcode() == proto::kMemcachedSet) {
            {
              std::lock_guard<std::mutex> lock(mutex_);
              store_[std::string(cmd.key())] = std::string(cmd.value());
            }
            proto::BuildResponse(&reply, cmd.opcode(), proto::kMemcachedStatusOk, "", "",
                                 cmd.opaque());
          } else {
            std::string value;
            bool found = false;
            {
              std::lock_guard<std::mutex> lock(mutex_);
              const auto it = store_.find(std::string(cmd.key()));
              if (it != store_.end()) {
                value = it->second;
                found = true;
              }
            }
            const bool echo_key = cmd.opcode() == proto::kMemcachedGetK;
            proto::BuildResponse(&reply, cmd.opcode(),
                                 found ? proto::kMemcachedStatusOk
                                       : proto::kMemcachedStatusKeyNotFound,
                                 echo_key ? cmd.key() : std::string_view{},
                                 found ? value : "", cmd.opaque());
          }
          if (delay_ns == 0) {
            state.tx += proto::ToWire(reply);
          } else {
            deferred[i].emplace_back(MonotonicNanos() + delay_ns,
                                     proto::ToWire(reply));
          }
        }
        FlushTx(state);
      }
      if (dead) {
        conns.erase(conns.begin() + static_cast<long>(i));
        parsers.erase(parsers.begin() + static_cast<long>(i));
        parse_msgs.erase(parse_msgs.begin() + static_cast<long>(i));
        deferred.erase(deferred.begin() + static_cast<long>(i));
      } else {
        ++i;
      }
    }
    if (!did_work) {
      std::this_thread::sleep_for(20us);
    }
  }
}

// ------------------------------------------------------------- RespBackend ----

namespace {

struct RespReq {
  std::string cmd;
  std::string key;
  std::string value;
};

// Reads `<marker><digits>\r\n` at rx[pos], advancing pos past the CRLF.
// Returns 1 on success (len set), 0 if more bytes are needed, -1 on a
// malformed frame (wrong marker, no digits, oversized length).
int ParseRespLen(const std::string& rx, size_t& pos, char marker, size_t* len) {
  if (pos >= rx.size()) {
    return 0;
  }
  if (rx[pos] != marker) {
    return -1;
  }
  size_t p = pos + 1;
  size_t v = 0;
  size_t digits = 0;
  while (p < rx.size() && rx[p] >= '0' && rx[p] <= '9') {
    v = v * 10 + static_cast<size_t>(rx[p] - '0');
    if (++digits > 9) {
      return -1;  // > 1 GB payloads are not a thing this subset serves
    }
    ++p;
  }
  if (digits == 0) {
    return p < rx.size() ? -1 : 0;  // a non-digit right after the marker
  }
  if (p + 1 >= rx.size()) {
    return 0;
  }
  if (rx[p] != '\r' || rx[p + 1] != '\n') {
    return -1;
  }
  *len = v;
  pos = p + 2;
  return 1;
}

// Reads `$<n>\r\n<payload>\r\n` at rx[pos]. Same return contract.
int ParseRespBulk(const std::string& rx, size_t& pos, std::string* out) {
  size_t len = 0;
  if (int r = ParseRespLen(rx, pos, '$', &len); r != 1) {
    return r;
  }
  if (pos + len + 2 > rx.size()) {
    return 0;
  }
  if (rx[pos + len] != '\r' || rx[pos + len + 1] != '\n') {
    return -1;
  }
  out->assign(rx, pos, len);
  pos += len + 2;
  return 1;
}

// Parses ONE fixed-arity-3 request off the front of rx, consuming it on
// success. Same return contract as the helpers above.
int ParseRespReq(std::string& rx, RespReq* out) {
  size_t pos = 0;
  size_t nargs = 0;
  if (int r = ParseRespLen(rx, pos, '*', &nargs); r != 1) {
    return r;
  }
  if (nargs != 3) {
    return -1;
  }
  if (int r = ParseRespBulk(rx, pos, &out->cmd); r != 1) {
    return r;
  }
  if (int r = ParseRespBulk(rx, pos, &out->key); r != 1) {
    return r;
  }
  if (int r = ParseRespBulk(rx, pos, &out->value); r != 1) {
    return r;
  }
  rx.erase(0, pos);
  return 1;
}

void AppendRespBulk(std::string* tx, std::string_view data) {
  *tx += '$';
  *tx += std::to_string(data.size());
  *tx += "\r\n";
  tx->append(data.data(), data.size());
  *tx += "\r\n";
}

}  // namespace

RespBackend::RespBackend(Transport* transport, uint16_t port)
    : transport_(transport), port_(port) {}

RespBackend::~RespBackend() { Stop(); }

Status RespBackend::Start() {
  auto listener = transport_->Listen(port_);
  if (!listener.ok()) {
    return listener.status();
  }
  listener_ = std::move(listener).value();
  port_ = listener_->port();
  running_.store(true);
  thread_ = std::thread([this] { Serve(); });
  return OkStatus();
}

void RespBackend::Stop() {
  if (running_.exchange(false)) {
    if (thread_.joinable()) {
      thread_.join();
    }
    listener_->Close();
  }
}

void RespBackend::Preload(const std::string& key, const std::string& value) {
  std::lock_guard<std::mutex> lock(mutex_);
  store_[key] = value;
}

void RespBackend::Serve() {
  pthread_setname_np(pthread_self(), "lb-resp-be");
  std::vector<std::unique_ptr<ConnState>> conns;
  // Plain string rx buffers: RESP framing is cheap to scan and the hand
  // parser wants contiguous bytes.
  std::vector<std::string> rx;

  while (running_.load(std::memory_order_acquire)) {
    bool did_work = false;
    while (auto conn = listener_->Accept()) {
      auto state = std::make_unique<ConnState>();
      state->conn = std::move(conn);
      conns.push_back(std::move(state));
      rx.emplace_back();
      accepts_.fetch_add(1, std::memory_order_relaxed);
      did_work = true;
    }
    for (size_t i = 0; i < conns.size();) {
      ConnState& state = *conns[i];
      bool dead = false;
      if (!FlushTx(state)) {
        dead = true;
      }
      char buf[4096];
      while (!dead) {
        auto got = state.conn->Read(buf, sizeof(buf));
        if (!got.ok()) {
          dead = true;
          break;
        }
        if (*got == 0) {
          break;
        }
        did_work = true;
        rx[i].append(buf, *got);
        RespReq req;
        int parsed;
        while ((parsed = ParseRespReq(rx[i], &req)) == 1) {
          requests_.fetch_add(1, std::memory_order_relaxed);
          if (req.cmd == "SET") {
            {
              std::lock_guard<std::mutex> lock(mutex_);
              store_[req.key] = req.value;
            }
            AppendRespBulk(&state.tx, "OK");
          } else if (req.cmd == "GET") {
            std::string value;  // empty bulk on miss: this subset has no $-1
            {
              std::lock_guard<std::mutex> lock(mutex_);
              const auto it = store_.find(req.key);
              if (it != store_.end()) {
                value = it->second;
              }
            }
            AppendRespBulk(&state.tx, value);
          } else {
            AppendRespBulk(&state.tx, "ERR");
          }
        }
        if (parsed < 0) {
          dead = true;  // malformed frame: drop the connection
          break;
        }
        FlushTx(state);
      }
      if (dead) {
        conns.erase(conns.begin() + static_cast<long>(i));
        rx.erase(rx.begin() + static_cast<long>(i));
      } else {
        ++i;
      }
    }
    if (!did_work) {
      std::this_thread::sleep_for(20us);
    }
  }
}

// ------------------------------------------------------------- ReducerSink ----

ReducerSink::ReducerSink(Transport* transport, uint16_t port)
    : transport_(transport), port_(port) {}

ReducerSink::~ReducerSink() { Stop(); }

Status ReducerSink::Start() {
  auto listener = transport_->Listen(port_);
  if (!listener.ok()) {
    return listener.status();
  }
  listener_ = std::move(listener).value();
  port_ = listener_->port();
  running_.store(true);
  thread_ = std::thread([this] { Serve(); });
  return OkStatus();
}

void ReducerSink::Stop() {
  if (running_.exchange(false)) {
    if (thread_.joinable()) {
      thread_.join();
    }
    listener_->Close();
  }
}

void ReducerSink::Serve() {
  pthread_setname_np(pthread_self(), "lb-red-be");
  BufferPool pool(512, 16 * 1024);
  std::vector<std::unique_ptr<ConnState>> conns;
  std::vector<std::unique_ptr<grammar::UnitParser>> parsers;
  std::vector<std::unique_ptr<grammar::Message>> parse_msgs;  // resume targets
  while (running_.load(std::memory_order_acquire)) {
    bool did_work = false;
    while (auto conn = listener_->Accept()) {
      auto state = std::make_unique<ConnState>();
      state->conn = std::move(conn);
      state->rx.set_pool(&pool);
      conns.push_back(std::move(state));
      parsers.push_back(std::make_unique<grammar::UnitParser>(&proto::HadoopKvUnit()));
      parse_msgs.push_back(std::make_unique<grammar::Message>());
      did_work = true;
    }
    for (size_t i = 0; i < conns.size();) {
      ConnState& state = *conns[i];
      bool dead = false;
      char buf[8192];
      while (true) {
        auto got = state.conn->Read(buf, sizeof(buf));
        if (!got.ok()) {
          dead = true;
          break;
        }
        if (*got == 0) {
          break;
        }
        did_work = true;
        bytes_.fetch_add(*got, std::memory_order_relaxed);
        state.rx.Append(buf, *got);
        while (parsers[i]->Feed(state.rx, parse_msgs[i].get()) ==
               grammar::ParseStatus::kDone) {
          counts_.fetch_add(proto::ParseCount(proto::HadoopKv(parse_msgs[i].get()).value()),
                            std::memory_order_relaxed);
          pairs_.fetch_add(1, std::memory_order_relaxed);
        }
      }
      if (dead) {
        conns.erase(conns.begin() + static_cast<long>(i));
        parsers.erase(parsers.begin() + static_cast<long>(i));
        parse_msgs.erase(parse_msgs.begin() + static_cast<long>(i));
      } else {
        ++i;
      }
    }
    if (!did_work) {
      std::this_thread::sleep_for(20us);
    }
  }
}

}  // namespace flick::load
