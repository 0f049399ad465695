#include "harness/farm.h"

namespace fb {
namespace {

constexpr char kHttpHead[] = "HTTP/1.1 200 OK\r\nContent-Length: 137\r\n\r\n";

}  // namespace

Farm::Farm(flick::SimNetwork* net, uint32_t key_space, uint64_t seed)
    : transport_(net, flick::StackCostModel::Null()),
      seed_(seed),
      versions_(key_space, 0) {}

Farm::~Farm() { Stop(); }

flick::Status Farm::Add(Kind kind, uint16_t port) {
  auto listener = transport_.Listen(port);
  if (!listener.ok()) {
    return listener.status();
  }
  ports_.push_back(Port{kind, std::move(listener).value()});
  return flick::OkStatus();
}

flick::Status Farm::AddMemcached(uint16_t port) { return Add(Kind::kMemcached, port); }
flick::Status Farm::AddHttp(uint16_t port) { return Add(Kind::kHttp, port); }
flick::Status Farm::AddReducer(uint16_t port) { return Add(Kind::kReducer, port); }

void Farm::PrepareStamps(size_t capacity) {
  stamps_.read_ns.assign(capacity, 0);
  stamps_.write_ns.assign(capacity, 0);
  stamps_.key.assign(capacity, 0);
}

void Farm::Start() {
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { Loop(); });
}

void Farm::Stop() {
  if (running_.exchange(false, std::memory_order_acq_rel) && thread_.joinable()) {
    thread_.join();
  }
  for (auto& c : conns_) {
    c->wire.Close();
  }
  conns_.clear();
  for (Port& p : ports_) {
    p.listener->Close();
  }
  ports_.clear();
}

void Farm::Loop() {
  NameThisThread("fb-farm");
  PinThisThread(HarnessCpu::kFarm);
  while (running_.load(std::memory_order_acquire)) {
    if (Now() < pause_until_.load(std::memory_order_acquire)) {
      SleepNs(100'000);
      continue;
    }
    bool did_work = false;
    for (Port& p : ports_) {
      while (auto conn = p.listener->Accept()) {
        auto c = std::make_unique<Conn>();
        c->kind = p.kind;
        c->wire.conn = std::move(conn);
        conns_.push_back(std::move(c));
        did_work = true;
      }
    }
    for (size_t i = 0; i < conns_.size();) {
      Conn& c = *conns_[i];
      const long got = c.wire.Fill();
      const uint64_t read_ns = Now();
      bool keep = got >= 0;
      if (got > 0) {
        did_work = true;
      }
      if (c.wire.rx_off < c.wire.rx.size()) {
        keep = Serve(c, read_ns) && keep;
      }
      if (!c.unstamped.empty()) {
        const uint64_t write_ns = Now();
        for (uint32_t id : c.unstamped) {
          stamps_.write_ns[id] = write_ns;
        }
        c.unstamped.clear();
      }
      if (c.wire.tx_pending() && !c.wire.Flush()) {
        keep = false;
      }
      if (keep) {
        ++i;
      } else {
        c.wire.Close();
        conns_[i] = std::move(conns_.back());
        conns_.pop_back();
      }
    }
    if (!did_work) {
      YieldCpu();
    }
  }
}

bool Farm::Serve(Conn& c, uint64_t read_ns) {
  switch (c.kind) {
    case Kind::kMemcached:
      return ServeMemcached(c, read_ns);
    case Kind::kHttp:
      return ServeHttp(c, read_ns);
    case Kind::kReducer:
      return ServeReducer(c);
  }
  return false;
}

void Farm::StampRead(uint64_t id, uint64_t read_ns, uint32_t key, Conn& c) {
  if (!tracing_.load(std::memory_order_acquire) || id >= stamps_.read_ns.size()) {
    return;
  }
  stamps_.read_ns[id] = read_ns;
  stamps_.key[id] = key;
  c.unstamped.push_back(static_cast<uint32_t>(id));
}

bool Farm::ServeMemcached(Conn& c, uint64_t read_ns) {
  McFrame f;
  for (;;) {
    const long n = ParseMcFrame(c.wire.Unread(), &f);
    if (n == 0) {
      return true;
    }
    if (n < 0 || f.magic != kMcMagicRequest) {
      malformed_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    uint32_t index = 0;
    const bool known = KeyIndex(f.key, &index) && index < versions_.size();
    uint16_t status = kMcOk;
    std::string value;
    if (!known) {
      malformed_.fetch_add(1, std::memory_order_relaxed);
      status = kMcNotFound;
    } else if (f.opcode == kMcGet || f.opcode == kMcGetK) {
      value = ValueFor(index, versions_[index], seed_);
    } else if (f.opcode == kMcSet) {
      uint32_t version = 0;
      if (ValueVersion(f.value, index, seed_, &version)) {
        versions_[index] = version;
      } else {
        malformed_.fetch_add(1, std::memory_order_relaxed);
        status = kMcInvalid;
      }
    } else {
      status = kMcUnknownCommand;
    }
    if (known) {
      StampRead(f.opaque, read_ns, index, c);
    }
    AppendMcFrame(&c.wire.tx, kMcMagicResponse, f.opcode, status, f.opaque,
                  f.opcode == kMcGetK ? f.key : std::string_view{}, value);
    c.wire.Consume(static_cast<size_t>(n));
  }
}

bool Farm::ServeHttp(Conn& c, uint64_t read_ns) {
  for (;;) {
    uint64_t id = 0;
    const long n = ParseHttpRequest(c.wire.Unread(), &id);
    if (n == 0) {
      return true;
    }
    if (n < 0) {
      malformed_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    StampRead(id, read_ns, 0, c);
    c.wire.tx += kHttpHead;
    c.wire.tx += HttpBodyFor(id);
    c.wire.Consume(static_cast<size_t>(n));
  }
}

bool Farm::ServeReducer(Conn& c) {
  uint64_t count_sum = 0;
  uint64_t pairs = 0;
  bool ok = true;
  for (;;) {
    std::string_view key;
    uint64_t count = 0;
    const long n = ParseKv(c.wire.Unread(), &key, &count);
    if (n == 0) {
      break;
    }
    if (n < 0) {
      malformed_.fetch_add(1, std::memory_order_relaxed);
      ok = false;
      break;
    }
    reducer_counts_[std::string(key)] += count;
    count_sum += count;
    ++pairs;
    c.wire.Consume(static_cast<size_t>(n));
  }
  reducer_pairs_.fetch_add(pairs, std::memory_order_relaxed);
  reducer_total_.fetch_add(count_sum, std::memory_order_release);
  return ok;
}

}  // namespace fb
