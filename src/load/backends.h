// Backend servers for experiments (§6.2): the "10 backend servers running
// Apache" and "10 Memcached servers" of the paper's testbed, plus the Hadoop
// reducer sink. Implemented as plain threaded servers over the Transport
// interface so both SimTransport and KernelTransport work.
#ifndef FLICK_LOAD_BACKENDS_H_
#define FLICK_LOAD_BACKENDS_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/transport.h"

namespace flick::load {

// Serves a fixed HTTP response to every request (ApacheBench backend).
class HttpBackend {
 public:
  HttpBackend(Transport* transport, uint16_t port, std::string body);
  ~HttpBackend();

  Status Start();
  void Stop();
  uint64_t requests_served() const { return requests_.load(); }
  // Lifetime accepts: how many connections this backend has ever seen —
  // the pooled-vs-per-client contrast benches measure exactly this.
  uint64_t connections_accepted() const { return accepts_.load(); }
  uint16_t port() const { return port_; }

 private:
  void Serve();

  Transport* transport_;
  uint16_t port_;
  std::string response_;  // pre-serialized
  std::unique_ptr<Listener> listener_;
  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> accepts_{0};
};

// Minimal binary-protocol Memcached server: supports GET/GETK/SET.
class MemcachedBackend {
 public:
  MemcachedBackend(Transport* transport, uint16_t port);
  ~MemcachedBackend();

  Status Start();
  void Stop();
  void Preload(const std::string& key, const std::string& value);
  // Models backend service time (e.g. a LAN RTT + lookup): each reply is
  // held for this long before it is written back, WITHOUT blocking the
  // connection — other requests keep being parsed and served meanwhile, so
  // the delay adds latency, not a capacity ceiling. Set before Start().
  // The tail-latency benches use this to give the proxy's miss path a
  // realistic backend RTT that the look-aside hit path gets to skip.
  void set_service_delay_ns(uint64_t ns) {
    service_delay_ns_.store(ns, std::memory_order_relaxed);
  }
  uint64_t requests_served() const { return requests_.load(); }
  uint64_t connections_accepted() const { return accepts_.load(); }

 private:
  void Serve();

  Transport* transport_;
  uint16_t port_;
  std::unique_ptr<Listener> listener_;
  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> accepts_{0};
  std::atomic<uint64_t> service_delay_ns_{0};
  std::mutex mutex_;
  std::unordered_map<std::string, std::string> store_;
};

// Minimal RESP (Redis) server over the fixed-arity-3 subset the DSL RESP
// router speaks: every request is `*3\r\n$<n>\r\n<cmd>\r\n$<n>\r\n<key>\r\n
// $<n>\r\n<val>\r\n` (GET carries an empty value). GET answers the stored
// value as a bulk string (`$0\r\n\r\n` on miss — this subset has no null
// bulk), SET stores and answers `$2\r\nOK\r\n`.
class RespBackend {
 public:
  RespBackend(Transport* transport, uint16_t port);
  ~RespBackend();

  Status Start();
  void Stop();
  void Preload(const std::string& key, const std::string& value);
  uint64_t requests_served() const { return requests_.load(); }
  uint64_t connections_accepted() const { return accepts_.load(); }
  uint16_t port() const { return port_; }

 private:
  void Serve();

  Transport* transport_;
  uint16_t port_;
  std::unique_ptr<Listener> listener_;
  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> accepts_{0};
  std::mutex mutex_;
  std::unordered_map<std::string, std::string> store_;
};

// Accepts one connection and counts received bytes/pairs (Hadoop reducer).
class ReducerSink {
 public:
  ReducerSink(Transport* transport, uint16_t port);
  ~ReducerSink();

  Status Start();
  void Stop();
  uint64_t bytes_received() const { return bytes_.load(); }
  uint64_t pairs_received() const { return pairs_.load(); }
  // Sum of the decoded (decimal) counts of every pair received: a combiner
  // may merge pairs, but this must equal the counts the mappers sent.
  uint64_t counts_received() const { return counts_.load(); }

 private:
  void Serve();

  Transport* transport_;
  uint16_t port_;
  std::unique_ptr<Listener> listener_;
  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<uint64_t> bytes_{0};
  std::atomic<uint64_t> pairs_{0};
  std::atomic<uint64_t> counts_{0};
};

}  // namespace flick::load

#endif  // FLICK_LOAD_BACKENDS_H_
