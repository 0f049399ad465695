// Backend servers for experiments (§6.2): the "10 backend servers running
// Apache" and "10 Memcached servers" of the paper's testbed, plus the Hadoop
// reducer sink. Each is one polling thread over the Transport interface, so
// both SimTransport and KernelTransport work.
#ifndef FLICK_LOAD_BACKENDS_H_
#define FLICK_LOAD_BACKENDS_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>

#include "buffer/buffer_chain.h"
#include "net/transport.h"

namespace flick::load {

// The one polling server under every backend below. It owns Start/Stop, the
// listener, the serving thread, accept counting and each connection's
// read -> parse -> flush -> close cycle; a backend supplies only a Session
// per accepted connection, holding its request -> reply code.
class PollingServer {
 public:
  // What one Serve call did: whole requests served, and whether the
  // connection should close (a non-keep-alive request, a malformed frame).
  struct Served {
    uint64_t requests = 0;
    bool close = false;
  };

  class Session {
   public:
    Session() = default;
    Session(const Session&) = delete;
    Session& operator=(const Session&) = delete;
    virtual ~Session() = default;
    // Serves every whole request `rx` holds, consuming it and appending the
    // replies to *tx. After `close`, the server reads no more from the
    // connection and closes it once every reply has been written.
    virtual Served Serve(BufferChain& rx, std::string* tx) = 0;
  };
  using SessionFactory = std::function<std::unique_ptr<Session>()>;

  PollingServer(Transport* transport, uint16_t port, const char* thread_name,
                SessionFactory new_session);
  PollingServer(const PollingServer&) = delete;
  PollingServer& operator=(const PollingServer&) = delete;
  ~PollingServer();

  Status Start();
  void Stop();
  // Holds each batch of replies for this long before writing it, without
  // blocking the connection (see MemcachedBackend::set_service_delay_ns).
  void set_reply_delay_ns(uint64_t ns) {
    reply_delay_ns_.store(ns, std::memory_order_relaxed);
  }
  uint16_t port() const { return port_; }
  uint64_t requests_served() const { return requests_.load(); }
  uint64_t connections_accepted() const { return accepts_.load(); }
  uint64_t bytes_received() const { return bytes_.load(); }

 private:
  void Serve();

  Transport* transport_;
  uint16_t port_;
  const char* thread_name_;
  SessionFactory new_session_;
  std::unique_ptr<Listener> listener_;
  std::atomic<bool> running_{false};
  std::atomic<uint64_t> reply_delay_ns_{0};
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> accepts_{0};
  std::atomic<uint64_t> bytes_{0};
  std::thread thread_;
};

// The key-value map behind MemcachedBackend and RespBackend, shared by all
// of a backend's connections and by Preload.
class KvStore {
 public:
  void Put(std::string key, std::string value);
  bool Get(const std::string& key, std::string* value) const;

 private:
  mutable std::mutex mutex_;
  std::unordered_map<std::string, std::string> map_;
};

// In each backend the server is the last member, so it is destroyed (and its
// thread joined) before the state its sessions use.

// Serves a fixed HTTP response to every request (ApacheBench backend).
class HttpBackend {
 public:
  HttpBackend(Transport* transport, uint16_t port, std::string body);

  Status Start() { return server_.Start(); }
  void Stop() { server_.Stop(); }
  uint64_t requests_served() const { return server_.requests_served(); }
  // Lifetime accepts: how many connections this backend has ever seen —
  // the pooled-vs-per-client contrast benches measure exactly this.
  uint64_t connections_accepted() const { return server_.connections_accepted(); }
  uint16_t port() const { return server_.port(); }

 private:
  std::string response_;  // pre-serialized
  PollingServer server_;
};

// Minimal binary-protocol Memcached server: supports GET/GETK/SET.
class MemcachedBackend {
 public:
  MemcachedBackend(Transport* transport, uint16_t port);

  Status Start() { return server_.Start(); }
  void Stop() { server_.Stop(); }
  void Preload(const std::string& key, const std::string& value) { store_.Put(key, value); }
  // Models backend service time (e.g. a LAN RTT + lookup): each reply is
  // held for this long before it is written back, WITHOUT blocking the
  // connection — other requests keep being parsed and served meanwhile, so
  // the delay adds latency, not a capacity ceiling. Set before Start().
  // The tail-latency benches use this to give the proxy's miss path a
  // realistic backend RTT that the look-aside hit path gets to skip.
  void set_service_delay_ns(uint64_t ns) { server_.set_reply_delay_ns(ns); }
  uint64_t requests_served() const { return server_.requests_served(); }
  uint64_t connections_accepted() const { return server_.connections_accepted(); }

 private:
  KvStore store_;
  PollingServer server_;
};

// Minimal RESP (Redis) server over the fixed-arity-3 subset the DSL RESP
// router speaks: every request is `*3\r\n$<n>\r\n<cmd>\r\n$<n>\r\n<key>\r\n
// $<n>\r\n<val>\r\n` (GET carries an empty value). GET answers the stored
// value as a bulk string (`$0\r\n\r\n` on miss — this subset has no null
// bulk), SET stores and answers `$2\r\nOK\r\n`.
class RespBackend {
 public:
  RespBackend(Transport* transport, uint16_t port);

  Status Start() { return server_.Start(); }
  void Stop() { server_.Stop(); }
  void Preload(const std::string& key, const std::string& value) { store_.Put(key, value); }
  uint64_t requests_served() const { return server_.requests_served(); }
  uint64_t connections_accepted() const { return server_.connections_accepted(); }
  uint16_t port() const { return server_.port(); }

 private:
  KvStore store_;
  PollingServer server_;
};

// Counts the key/value pairs it receives (Hadoop reducer).
class ReducerSink {
 public:
  ReducerSink(Transport* transport, uint16_t port);

  Status Start() { return server_.Start(); }
  void Stop() { server_.Stop(); }
  uint64_t bytes_received() const { return server_.bytes_received(); }
  uint64_t pairs_received() const { return server_.requests_served(); }
  // Sum of the decoded (decimal) counts of every pair received: a combiner
  // may merge pairs, but this must equal the counts the mappers sent.
  uint64_t counts_received() const { return counts_.load(); }

 private:
  std::atomic<uint64_t> counts_{0};
  PollingServer server_;
};

}  // namespace flick::load

#endif  // FLICK_LOAD_BACKENDS_H_
