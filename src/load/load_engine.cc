#include "load/load_engine.h"

#include <pthread.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <string>
#include <thread>
#include <vector>

#include "base/rng.h"
#include "base/time_util.h"
#include "buffer/buffer_pool.h"
#include "grammar/parser.h"
#include "proto/http.h"
#include "proto/memcached.h"
#include "runtime/timer_wheel.h"

namespace flick::load {
namespace {

using namespace std::chrono_literals;

constexpr size_t kSetValueBytes = 32;
constexpr uint64_t kSeed = 1;
constexpr size_t kRxChunkBytes = 8192;

// Open loop only: in-flight work left when the window closes gets this long
// to finish before it counts as abandoned.
constexpr uint64_t kDrainGraceNs = 250'000'000;

// Arrival wheel tick (~16 us). Much finer than the IO plane's ~1 ms tick:
// arrival jitter must stay well below the latencies being measured.
constexpr uint64_t kArrivalTickNs = uint64_t{1} << 14;

// One client connection's state machine.
struct Client {
  enum State { kConnect, kIdle, kSend, kReceive };

  std::unique_ptr<Connection> conn;
  State state = kConnect;
  std::string request;
  size_t sent = 0;
  uint64_t arrival_ns = 0;  // latency of the in-flight request counts from here
  BufferChain rx;
  proto::HttpParser http_parser{proto::HttpParser::Mode::kResponse};
  proto::HttpMessage http_reply;
  grammar::UnitParser mc_parser{&proto::MemcachedUnit()};
  grammar::Message mc_reply;

  bool busy() const { return state == kSend || state == kReceive; }
};

// One generator thread: `n_clients` clients and, open loop, `rps` of the
// offered rate.
void RunWorker(Transport* transport, const LoadConfig& config, int n_clients, double rps,
               uint64_t seed, uint64_t window_end_ns, const std::string& http_request,
               LoadResult* out) {
  pthread_setname_np(pthread_self(), "lb-load");
  BufferPool pool(static_cast<size_t>(n_clients) * 4 + 64, kRxChunkBytes);
  Rng rng(seed);
  std::vector<Client> clients(static_cast<size_t>(n_clients));
  for (Client& c : clients) {
    c.rx.set_pool(&pool);
  }
  const bool open = rps > 0;

  // The open-loop arrival plane: a fine-tick wheel fires a self-rearming
  // entry at each scheduled arrival instant, drawn from a Poisson process
  // (exponential gaps). Arrivals are pushed by their SCHEDULED time — if the
  // loop (or the server) falls behind, due arrivals are delivered in a burst
  // with their original timestamps intact, never skipped and never re-timed.
  const double mean_gap_ns = open ? 1e9 / rps : 0.0;
  auto next_gap_ns = [&]() -> uint64_t {
    const double u = rng.NextDouble();  // [0, 1)
    const double gap = -std::log1p(-u) * mean_gap_ns;
    return std::max<uint64_t>(1, static_cast<uint64_t>(gap));
  };
  const uint64_t start_ns = MonotonicNanos();
  runtime::TimerWheel wheel(start_ns, kArrivalTickNs);
  std::deque<uint64_t> backlog;  // scheduled arrival timestamps, FIFO
  runtime::TimerEntry arrival;
  uint64_t next_arrival_ns = 0;
  if (open) {
    next_arrival_ns = start_ns + next_gap_ns();
    arrival.on_fire = [&] {
      const uint64_t now = MonotonicNanos();
      // Deliver every arrival due by now (a burst can straddle one tick),
      // then re-arm for the first future one — unless the window has closed.
      while (next_arrival_ns <= now) {
        if (next_arrival_ns >= window_end_ns) {
          return;
        }
        backlog.push_back(next_arrival_ns);
        ++out->offered;
        next_arrival_ns += next_gap_ns();
      }
      if (next_arrival_ns < window_end_ns) {
        wheel.Arm(&arrival, next_arrival_ns);
      }
    };
    wheel.Arm(&arrival, next_arrival_ns);
  }

  // Hands an idle client its next arrival, if there is one. Closed loop
  // there always is, inside the window, timed from send start; open loop it
  // is the oldest queued arrival, timed from when it was scheduled.
  auto take_arrival = [&](Client& c, uint64_t now) {
    if (open) {
      if (backlog.empty()) {
        return false;
      }
      c.arrival_ns = backlog.front();
      backlog.pop_front();
      return true;
    }
    if (now >= window_end_ns) {
      return false;
    }
    ++out->offered;
    c.arrival_ns = MonotonicNanos();
    return true;
  };

  const std::string set_value(kSetValueBytes, 'v');
  auto make_request = [&](Client& c) {
    c.sent = 0;
    if (config.protocol == Protocol::kHttp) {
      c.request = http_request;
      return;
    }
    grammar::Message msg;
    const std::string key =
        "key-" + std::to_string(rng.NextBelow(static_cast<uint64_t>(config.key_space)));
    if (config.set_fraction > 0.0 && rng.NextDouble() < config.set_fraction) {
      proto::BuildRequest(&msg, proto::kMemcachedSet, key, set_value);
    } else {
      proto::BuildRequest(&msg, config.opcode, key);
    }
    c.request = proto::ToWire(msg);
  };

  auto parse_reply = [&](Client& c) {
    return config.protocol == Protocol::kHttp ? c.http_parser.Feed(c.rx, &c.http_reply)
                                              : c.mc_parser.Feed(c.rx, &c.mc_reply);
  };

  // Drops a client's connection after a failure; the arrival it was
  // serving, if any, is lost with the wire.
  auto fail = [&](Client& c) {
    ++out->errors;
    if (c.busy()) {
      ++out->abandoned;
    }
    c.conn.reset();
    c.rx.Clear();
    c.http_parser.Reset();
    c.mc_parser.Reset();
    c.state = Client::kConnect;
  };

  const uint64_t drain_end_ns = window_end_ns + (open ? kDrainGraceNs : 0);
  while (true) {
    const uint64_t now = MonotonicNanos();
    if (open && now < window_end_ns) {
      wheel.Advance(now);
    }
    out->backlog_peak = std::max<uint64_t>(out->backlog_peak, backlog.size());
    if (now >= window_end_ns) {
      const bool drained = backlog.empty() &&
                           std::none_of(clients.begin(), clients.end(),
                                        [](const Client& c) { return c.busy(); });
      if (drained || now >= drain_end_ns) {
        break;
      }
    }

    bool did_work = false;
    for (Client& c : clients) {
      switch (c.state) {
        case Client::kConnect: {
          auto conn = transport->Connect(config.port);
          if (!conn.ok()) {
            fail(c);
            continue;
          }
          c.conn = std::move(conn).value();
          c.state = Client::kIdle;
          did_work = true;
          [[fallthrough]];
        }
        case Client::kIdle: {
          if (!take_arrival(c, now)) {
            continue;
          }
          make_request(c);
          c.state = Client::kSend;
          did_work = true;
          [[fallthrough]];
        }
        case Client::kSend: {
          auto wrote =
              c.conn->Write(c.request.data() + c.sent, c.request.size() - c.sent);
          if (!wrote.ok()) {
            fail(c);
            continue;
          }
          c.sent += *wrote;
          if (c.sent < c.request.size()) {
            continue;  // transport backpressure
          }
          did_work = true;
          c.state = Client::kReceive;
          [[fallthrough]];
        }
        case Client::kReceive: {
          char buf[kRxChunkBytes];
          auto got = c.conn->Read(buf, sizeof(buf));
          if (!got.ok()) {
            fail(c);
            continue;
          }
          if (*got == 0) {
            continue;
          }
          did_work = true;
          c.rx.Append(buf, *got);
          const auto status = parse_reply(c);
          if (status == grammar::ParseStatus::kError) {
            fail(c);
            continue;
          }
          if (status == grammar::ParseStatus::kDone) {
            ++out->completed;
            out->latency.Record(std::max<uint64_t>(1, MonotonicNanos() - c.arrival_ns));
            if (config.persistent) {
              c.state = Client::kIdle;
            } else {
              c.conn->Close();
              c.conn.reset();
              c.state = Client::kConnect;
            }
          }
          break;
        }
      }
    }
    if (!did_work) {
      // Open loop wakes more often: arrival jitter adds to measured latency.
      std::this_thread::sleep_for(open ? 5us : 10us);
    }
  }

  out->abandoned += backlog.size();
  for (Client& c : clients) {
    out->abandoned += c.busy();
    if (c.conn) {
      c.conn->Close();
    }
  }
  wheel.Cancel(&arrival);  // entry is stack-owned; unlink before destruction
}

}  // namespace

LoadResult RunLoad(Transport* transport, const LoadConfig& config) {
  std::string http_request;
  if (config.protocol == Protocol::kHttp) {
    proto::HttpMessage request = proto::MakeRequest("GET", "/", "", config.persistent);
    request.SetHeader("Host", "bench");
    proto::SerializeRequest(request, &http_request);
  }

  // Every thread gets at least one client.
  const int threads = std::clamp(config.threads, 1, std::max(1, config.connections));
  std::vector<LoadResult> results(static_cast<size_t>(threads));
  std::vector<std::thread> workers;
  const uint64_t window_end = MonotonicNanos() + config.duration_ns;
  for (int t = 0; t < threads; ++t) {
    const int clients = config.connections / threads + (t < config.connections % threads);
    workers.emplace_back(RunWorker, transport, std::cref(config), clients,
                         config.offered_rps / threads,
                         kSeed + static_cast<uint64_t>(t) * 7919 + 1, window_end,
                         std::cref(http_request), &results[static_cast<size_t>(t)]);
  }
  for (auto& w : workers) {
    w.join();
  }
  LoadResult total;
  total.seconds = static_cast<double>(config.duration_ns) / 1e9;
  for (const LoadResult& r : results) {
    total.offered += r.offered;
    total.completed += r.completed;
    total.errors += r.errors;
    total.abandoned += r.abandoned;
    total.backlog_peak += r.backlog_peak;
    total.latency.Merge(r.latency);
  }
  return total;
}

}  // namespace flick::load
