#include "load/backends.h"

#include <pthread.h>

#include <chrono>
#include <deque>
#include <utility>
#include <vector>

#include "base/time_util.h"
#include "buffer/buffer_pool.h"
#include "grammar/parser.h"
#include "proto/hadoop.h"
#include "proto/http.h"
#include "proto/memcached.h"

namespace flick::load {
namespace {

using namespace std::chrono_literals;
using Served = PollingServer::Served;

constexpr size_t kChunkBytes = 8192;

// One accepted connection of a PollingServer.
struct ServerConn {
  std::unique_ptr<Connection> conn;
  std::unique_ptr<PollingServer::Session> session;
  BufferChain rx;
  std::string tx;
  size_t tx_off = 0;
  // Reply batches held back by the reply delay, as (due time, bytes). All
  // delays are equal, so due order == insert order and replies stay FIFO.
  std::deque<std::pair<uint64_t, std::string>> deferred;
  bool closing = false;  // read no more; close once every reply is written
};

// Writes as much of c.tx as the transport accepts; false on fatal error.
bool FlushTx(ServerConn& c) {
  while (c.tx_off < c.tx.size()) {
    auto wrote = c.conn->Write(c.tx.data() + c.tx_off, c.tx.size() - c.tx_off);
    if (!wrote.ok()) {
      return false;
    }
    if (*wrote == 0) {
      return true;
    }
    c.tx_off += *wrote;
  }
  c.tx.clear();
  c.tx_off = 0;
  return true;
}

}  // namespace

// ----------------------------------------------------------- PollingServer ----

PollingServer::PollingServer(Transport* transport, uint16_t port, const char* thread_name,
                             SessionFactory new_session)
    : transport_(transport),
      port_(port),
      thread_name_(thread_name),
      new_session_(std::move(new_session)) {}

PollingServer::~PollingServer() { Stop(); }

Status PollingServer::Start() {
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

void PollingServer::Stop() {
  if (running_.exchange(false)) {
    if (thread_.joinable()) {
      thread_.join();
    }
    listener_->Close();
  }
}

void PollingServer::Serve() {
  pthread_setname_np(pthread_self(), thread_name_);
  BufferPool pool(512, kChunkBytes);
  std::vector<std::unique_ptr<ServerConn>> conns;
  std::string delayed;  // one read's replies, when a reply delay is set

  while (running_.load(std::memory_order_acquire)) {
    bool did_work = false;
    while (auto conn = listener_->Accept()) {
      auto c = std::make_unique<ServerConn>();
      c->conn = std::move(conn);
      c->session = new_session_();
      c->rx.set_pool(&pool);
      conns.push_back(std::move(c));
      accepts_.fetch_add(1, std::memory_order_relaxed);
      did_work = true;
    }
    const uint64_t delay_ns = reply_delay_ns_.load(std::memory_order_relaxed);
    for (size_t i = 0; i < conns.size();) {
      ServerConn& c = *conns[i];
      if (!c.deferred.empty()) {
        const uint64_t now = MonotonicNanos();
        while (!c.deferred.empty() && c.deferred.front().first <= now) {
          c.tx += c.deferred.front().second;
          c.deferred.pop_front();
          did_work = true;
        }
      }
      bool dead = !FlushTx(c);
      char buf[kChunkBytes];
      while (!dead && !c.closing) {
        auto got = c.conn->Read(buf, sizeof(buf));
        if (!got.ok()) {
          dead = true;
          break;
        }
        if (*got == 0) {
          break;
        }
        did_work = true;
        bytes_.fetch_add(*got, std::memory_order_relaxed);
        c.rx.Append(buf, *got);
        const Served served = c.session->Serve(c.rx, delay_ns == 0 ? &c.tx : &delayed);
        requests_.fetch_add(served.requests, std::memory_order_relaxed);
        c.closing = served.close;
        if (!delayed.empty()) {
          c.deferred.emplace_back(MonotonicNanos() + delay_ns, std::move(delayed));
          delayed.clear();
        }
        dead = !FlushTx(c);
      }
      // A closing connection goes only once every reply has been written:
      // dropping it earlier would cut the reply it is closing after.
      if (dead || (c.closing && c.deferred.empty() && c.tx.empty())) {
        conns[i] = std::move(conns.back());
        conns.pop_back();
      } else {
        ++i;
      }
    }
    if (!did_work) {
      std::this_thread::sleep_for(20us);
    }
  }
}

// ----------------------------------------------------------------- KvStore ----

void KvStore::Put(std::string key, std::string value) {
  std::lock_guard<std::mutex> lock(mutex_);
  map_[std::move(key)] = std::move(value);
}

bool KvStore::Get(const std::string& key, std::string* value) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = map_.find(key);
  if (it == map_.end()) {
    return false;
  }
  *value = it->second;
  return true;
}

// ------------------------------------------------------------- HttpBackend ----

namespace {

class HttpSession : public PollingServer::Session {
 public:
  explicit HttpSession(const std::string* response) : response_(response) {}

  Served Serve(BufferChain& rx, std::string* tx) override {
    Served served;
    while (parser_.Feed(rx, &request_) == grammar::ParseStatus::kDone) {
      ++served.requests;
      *tx += *response_;
      if (!request_.keep_alive) {
        served.close = true;
        break;
      }
    }
    return served;
  }

 private:
  const std::string* response_;
  proto::HttpParser parser_{proto::HttpParser::Mode::kRequest};
  proto::HttpMessage request_;
};

}  // namespace

HttpBackend::HttpBackend(Transport* transport, uint16_t port, std::string body)
    : server_(transport, port, "lb-http-be",
              [this] { return std::make_unique<HttpSession>(&response_); }) {
  proto::SerializeResponse(proto::MakeResponse(200, body), &response_);
}

// -------------------------------------------------------- MemcachedBackend ----

namespace {

class MemcachedSession : public PollingServer::Session {
 public:
  explicit MemcachedSession(KvStore* store) : store_(store) {}

  Served Serve(BufferChain& rx, std::string* tx) override {
    Served served;
    while (parser_.Feed(rx, &request_) == grammar::ParseStatus::kDone) {
      ++served.requests;
      proto::MemcachedCommand cmd(&request_);
      grammar::Message reply;
      if (cmd.opcode() == proto::kMemcachedSet) {
        store_->Put(std::string(cmd.key()), std::string(cmd.value()));
        proto::BuildResponse(&reply, cmd.opcode(), proto::kMemcachedStatusOk, "", "",
                             cmd.opaque());
      } else {
        std::string value;
        const bool found = store_->Get(std::string(cmd.key()), &value);
        const bool echo_key = cmd.opcode() == proto::kMemcachedGetK;
        proto::BuildResponse(&reply, cmd.opcode(),
                             found ? proto::kMemcachedStatusOk
                                   : proto::kMemcachedStatusKeyNotFound,
                             echo_key ? cmd.key() : std::string_view{}, value,
                             cmd.opaque());
      }
      *tx += proto::ToWire(reply);
    }
    return served;
  }

 private:
  KvStore* store_;
  grammar::UnitParser parser_{&proto::MemcachedUnit()};
  // The incremental parser resumes into the SAME message across reads.
  grammar::Message request_;
};

}  // namespace

MemcachedBackend::MemcachedBackend(Transport* transport, uint16_t port)
    : server_(transport, port, "lb-mc-be",
              [this] { return std::make_unique<MemcachedSession>(&store_); }) {}

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

class RespSession : public PollingServer::Session {
 public:
  explicit RespSession(KvStore* store) : store_(store) {}

  Served Serve(BufferChain& rx, std::string* tx) override {
    // The hand parser wants contiguous bytes; RESP framing is cheap to scan.
    const size_t had = buf_.size();
    buf_.resize(had + rx.readable());
    rx.Read(buf_.data() + had, buf_.size() - had);
    Served served;
    RespReq req;
    int parsed;
    while ((parsed = ParseRespReq(buf_, &req)) == 1) {
      ++served.requests;
      if (req.cmd == "SET") {
        store_->Put(req.key, req.value);
        AppendRespBulk(tx, "OK");
      } else if (req.cmd == "GET") {
        std::string value;  // empty bulk on miss: this subset has no $-1
        store_->Get(req.key, &value);
        AppendRespBulk(tx, value);
      } else {
        AppendRespBulk(tx, "ERR");
      }
    }
    served.close = parsed < 0;  // malformed frame: drop the connection
    return served;
  }

 private:
  KvStore* store_;
  std::string buf_;
};

}  // namespace

RespBackend::RespBackend(Transport* transport, uint16_t port)
    : server_(transport, port, "lb-resp-be",
              [this] { return std::make_unique<RespSession>(&store_); }) {}

// ------------------------------------------------------------- ReducerSink ----

namespace {

class ReducerSession : public PollingServer::Session {
 public:
  explicit ReducerSession(std::atomic<uint64_t>* counts) : counts_(counts) {}

  Served Serve(BufferChain& rx, std::string*) override {
    Served served;
    while (parser_.Feed(rx, &pair_) == grammar::ParseStatus::kDone) {
      ++served.requests;
      counts_->fetch_add(proto::ParseCount(proto::HadoopKv(&pair_).value()),
                         std::memory_order_relaxed);
    }
    return served;
  }

 private:
  std::atomic<uint64_t>* counts_;
  grammar::UnitParser parser_{&proto::HadoopKvUnit()};
  grammar::Message pair_;  // resume target
};

}  // namespace

ReducerSink::ReducerSink(Transport* transport, uint16_t port)
    : server_(transport, port, "lb-red-be",
              [this] { return std::make_unique<ReducerSession>(&counts_); }) {}

}  // namespace flick::load
