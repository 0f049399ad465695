#include "harness/load.h"

#include <algorithm>
#include <cmath>

namespace fb {
namespace {

// The farm stamps from this long before a traced slice until this long
// after it, so a traced request's farm-side events land inside the window.
constexpr uint64_t kTraceMarginNs = 20'000'000;
// Requests still unanswered this long after the window are abandoned.
constexpr uint64_t kDrainNs = 500'000'000;
// Hadoop batch: each mapper streams this many bytes of pairs drawn from a
// vocabulary of this many 8-char words; a batch the sink has not fully
// counted within the timeout fails.
constexpr size_t kBytesPerMapper = 128 * 1024;
constexpr size_t kVocabulary = 512;
constexpr uint64_t kBatchTimeoutNs = 5'000'000'000;
// Cache warm-up requests in flight per connection: half the proxy's
// 64-message channels. With thousands in flight at once the proxy leaves
// replies unanswered (METHODOLOGY.md, Findings 1; self-test 6).
constexpr uint32_t kWarmWindow = 32;
// Input captured per measured run for the layer probes.
constexpr size_t kCaptureBytes = 256 * 1024;
constexpr size_t kCaptureOps = 65'536;

double Uniform(std::mt19937_64& rng) {
  return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

bool TracedAt(const RunControl& ctl, uint64_t offset_ns) {
  return ctl.trace && (offset_ns / ctl.trace_slice_ns) % 2 == 1;
}

// Per-iteration bookkeeping shared by the load generators: trace slice toggling on
// the farm, the midpoint hook and the self-test pause.
class RunClock {
 public:
  RunClock(const RunControl& ctl, uint64_t start, uint64_t duration)
      : ctl_(ctl), start_(start), end_(start + duration) {}

  void Tick(uint64_t now) {
    if (ctl_.trace && ctl_.farm != nullptr) {
      const uint64_t slice = ctl_.trace_slice_ns;
      const uint64_t offset = now - start_;
      const uint64_t phase = offset % (2 * slice);
      // Past the window only the drain remains: keep stamping it.
      const bool want = now >= end_ || phase + kTraceMarginNs >= slice ||
                        (offset >= 2 * slice && phase < kTraceMarginNs);
      if (want != tracing_) {
        ctl_.farm->SetTracing(want);
        tracing_ = want;
      }
    }
    if (!midpoint_done_ && ctl_.midpoint && now >= start_ + (end_ - start_) / 2) {
      ctl_.midpoint();
      midpoint_done_ = true;
    }
    if (!paused_ && ctl_.pause_ns > 0 && ctl_.farm != nullptr &&
        now >= start_ + ctl_.pause_at_ns) {
      ctl_.farm->Pause(ctl_.pause_ns);
      paused_ = true;
    }
  }

  ~RunClock() {
    if (tracing_) {
      ctl_.farm->SetTracing(false);
    }
  }

 private:
  const RunControl& ctl_;
  const uint64_t start_;
  const uint64_t end_;
  bool tracing_ = false;
  bool midpoint_done_ = false;
  bool paused_ = false;
};

// One latency sample covering `ops` correctly answered ops started at
// `start_ns`.
void RecordOk(RunResult* r, const RunControl& ctl, uint64_t start_ns, uint64_t lat,
              bool traced, uint64_t ops = 1) {
  r->ok += ops;
  r->latency.Add(lat);
  const size_t window = (start_ns - r->run_start_ns) / r->window_ns;
  if (r->windows.size() <= window) {
    r->windows.resize(window + 1);
    r->window_ops.resize(window + 1, 0);
  }
  r->windows[window].Add(lat);
  r->window_ops[window] += ops;
  if (ctl.trace) {
    (traced ? r->latency_traced : r->latency_untraced).Add(lat);
  }
}

}  // namespace

std::vector<double> RunResult::WindowQuantiles(double q, size_t min_samples) {
  std::vector<double> per_window;
  for (Samples& w : windows) {
    if (w.size() >= min_samples) {
      per_window.push_back(w.Quantile(q));
    }
  }
  std::sort(per_window.begin(), per_window.end());
  return per_window;
}

double RunResult::WindowedQuantile(double q, size_t min_samples) {
  const std::vector<double> per_window = WindowQuantiles(q, min_samples);
  if (per_window.empty()) {
    return latency.Quantile(q);
  }
  const size_t keep = per_window.size() - per_window.size() / 3;
  double sum = 0.0;
  for (size_t i = 0; i < keep; ++i) {
    sum += per_window[i];
  }
  return sum / static_cast<double>(keep);
}

double RunResult::WindowedRate(size_t min_samples) const {
  std::vector<double> per_window;
  for (size_t i = 0; i < windows.size(); ++i) {
    if (windows[i].size() >= min_samples) {
      per_window.push_back(static_cast<double>(window_ops[i]) * 1e9 /
                           static_cast<double>(window_ns));
    }
  }
  if (per_window.empty()) {
    return elapsed_ns > 0 ? static_cast<double>(ok) * 1e9 / static_cast<double>(elapsed_ns)
                          : 0.0;
  }
  // Interquartile mean: as robust as the median, but not quantised to one
  // op per window.
  std::sort(per_window.begin(), per_window.end());
  const size_t lo = per_window.size() / 4;
  const size_t hi = std::max(per_window.size() - lo, lo + 1);
  double sum = 0.0;
  for (size_t i = lo; i < hi; ++i) {
    sum += per_window[i];
  }
  return sum / static_cast<double>(hi - lo);
}

// ------------------------------------------------------------- McLoad ----

McLoad::McLoad(flick::Transport* edge, McSpec spec)
    : edge_(edge), spec_(spec), set_version_(spec.key_space, 0), rng_(spec.seed) {}

flick::Status McLoad::Connect() {
  conns_.clear();
  conns_.resize(static_cast<size_t>(kClientConns));
  conn_dead_.assign(conns_.size(), false);
  unstamped_.assign(conns_.size(), {});
  for (Wire& w : conns_) {
    auto conn = edge_->Connect(kServicePort);
    if (!conn.ok()) {
      return conn.status();
    }
    w.conn = std::move(conn).value();
  }
  return flick::OkStatus();
}

void McLoad::Close() {
  for (Wire& w : conns_) {
    w.Close();
  }
}

void McLoad::Enqueue(uint32_t base, uint32_t slot, uint8_t op, uint32_t key,
                     std::vector<Pending>& pending, bool capture) {
  Pending& p = pending[slot];
  p.key = key;
  p.op = op;
  p.conn = static_cast<uint8_t>(key % conns_.size());
  std::string value;
  if (op == kMcSet) {
    p.expect_version = ++set_version_[key];
    value = ValueFor(key, p.expect_version, spec_.seed);
  } else {
    p.expect_version = set_version_[key];
  }
  Wire& w = conns_[p.conn];
  const size_t before = w.tx.size();
  AppendMcFrame(&w.tx, kMcMagicRequest, op, 0, base + slot, KeyName(key), value);
  unstamped_[p.conn].push_back(slot);
  if (capture) {
    if (capture_.bytes.size() < kCaptureBytes) {
      capture_.bytes.append(w.tx, before, std::string::npos);
    }
    if (capture_.ops.size() < kCaptureOps) {
      capture_.ops.emplace_back(op, key);
    }
  }
}

void McLoad::FlushAll(bool stamp, std::vector<Pending>& pending) {
  for (size_t i = 0; i < conns_.size(); ++i) {
    if (unstamped_[i].empty() && !conns_[i].tx_pending()) {
      continue;
    }
    const uint64_t write_ns = stamp ? Now() : 0;
    for (uint32_t slot : unstamped_[i]) {
      pending[slot].write_ns = write_ns;
    }
    unstamped_[i].clear();
    if (!conn_dead_[i] && !conns_[i].Flush()) {
      conn_dead_[i] = true;
    }
  }
}

size_t McLoad::Collect(uint32_t base, std::vector<Pending>& pending,
                         const RunControl& ctl, RunResult* r, size_t* completed) {
  size_t seen = 0;
  for (size_t i = 0; i < conns_.size(); ++i) {
    if (conn_dead_[i]) {
      continue;
    }
    Wire& w = conns_[i];
    const long got = w.Fill();
    const uint64_t done_ns = Now();
    McFrame f;
    for (;;) {
      const long n = ParseMcFrame(w.Unread(), &f);
      if (n == 0) {
        break;
      }
      if (n < 0) {
        ++r->wrong;  // the byte stream cannot be resynchronised
        conn_dead_[i] = true;
        break;
      }
      w.Consume(static_cast<size_t>(n));
      ++seen;
      const uint32_t slot = f.opaque - base;
      if (slot >= pending.size() || pending[slot].done || pending[slot].conn != i) {
        ++r->wrong;  // a reply nobody asked for
        continue;
      }
      Pending& p = pending[slot];
      p.done = true;
      ++*completed;
      if (f.magic != kMcMagicResponse || f.opcode != p.op) {
        ++r->wrong;
        continue;
      }
      if (f.status != kMcOk) {
        // An error status is an honest failure; anything else (not found
        // on a key the farm holds) is a wrong answer.
        ++(f.status >= 0x0080 ? r->errors : r->wrong);
        continue;
      }
      if (p.op != kMcSet) {
        const bool key_ok = p.op == kMcGetK ? f.key == KeyName(p.key) : f.key.empty();
        uint32_t version = 0;
        if (!key_ok || !ValueVersion(f.value, p.key, spec_.seed, &version) ||
            version > p.expect_version) {
          ++r->wrong;
          continue;
        }
        if (version < p.expect_version) {
          ++r->stale;
          continue;
        }
      }
      RecordOk(r, ctl, p.sched_ns, done_ns - p.sched_ns, p.traced);
      if (ctl.trace && p.traced) {
        r->spans.push_back(SpanRec{base + slot, p.key, p.sched_ns, p.write_ns, done_ns});
      }
    }
    if (got < 0) {
      conn_dead_[i] = true;
    }
  }
  return seen;
}

RunResult McLoad::Burst(const std::vector<uint32_t>& keys, uint8_t op,
                          uint64_t timeout_ns) {
  const uint32_t base = next_base_;
  next_base_ += static_cast<uint32_t>(keys.size());
  std::vector<Pending> pending(keys.size());
  const uint64_t now = Now();
  for (uint32_t slot = 0; slot < keys.size(); ++slot) {
    Enqueue(base, slot, op, keys[slot], pending, /*capture=*/false);
    pending[slot].sched_ns = now;
  }
  const RunControl quiet;
  RunResult r;
  r.run_start_ns = now;
  const uint64_t deadline = now + timeout_ns;
  size_t completed = 0;
  while (completed < keys.size() && Now() < deadline) {
    FlushAll(/*stamp=*/false, pending);
    if (Collect(base, pending, quiet, &r, &completed) == 0) {
      YieldCpu();
    }
  }
  r.attempted = keys.size();
  r.abandoned = keys.size() - completed;
  return r;
}

RunResult McLoad::Probe(uint64_t timeout_ns) {
  return Burst({0}, spec_.get_opcode, timeout_ns);
}

RunResult McLoad::WarmKeys(uint64_t timeout_ns) {
  const uint32_t chunk = kWarmWindow * static_cast<uint32_t>(conns_.size());
  RunResult total;
  for (uint32_t first = 0; first < spec_.key_space; first += chunk) {
    std::vector<uint32_t> keys;
    for (uint32_t k = first; k < std::min(first + chunk, spec_.key_space); ++k) {
      keys.push_back(k);
    }
    const RunResult r = Burst(keys, spec_.get_opcode, timeout_ns);
    total.attempted += r.attempted;
    total.ok += r.ok;
    total.wrong += r.wrong;
    total.stale += r.stale;
    total.errors += r.errors;
    total.abandoned += r.abandoned;
    if (r.ok != r.attempted) {
      break;
    }
  }
  return total;
}

RunResult McLoad::Run(uint64_t duration_ns, const RunControl& ctl) {
  RunResult r;
  const size_t cap =
      static_cast<size_t>(kOpenLoopRate * static_cast<double>(duration_ns) * 1.3e-9) +
      1024;
  const uint32_t base = ctl.measured ? 0 : next_base_;
  if (!ctl.measured) {
    next_base_ += static_cast<uint32_t>(cap);
  }
  std::vector<Pending> pending;
  pending.reserve(cap);
  r.latency.Reserve(cap);
  const double mean_gap_ns = 1e9 / kOpenLoopRate;
  auto gap = [&] { return -std::log(1.0 - Uniform(rng_)) * mean_gap_ns; };

  const uint64_t start = Now();
  const uint64_t end = start + duration_ns;
  r.run_start_ns = start;
  r.window_ns = ctl.window_ns;
  RunClock clock(ctl, start, duration_ns);
  double next_offset = gap();
  size_t completed = 0;
  long double lag_sum = 0;
  for (;;) {
    const uint64_t now = Now();
    clock.Tick(now);
    bool work = false;
    while (pending.size() < cap) {
      const uint64_t sched = start + static_cast<uint64_t>(next_offset);
      if (sched > now || sched >= end) {
        break;
      }
      const uint32_t key = static_cast<uint32_t>(rng_() % spec_.key_space);
      const uint8_t op = Uniform(rng_) < spec_.set_fraction ? kMcSet : spec_.get_opcode;
      const uint32_t slot = static_cast<uint32_t>(pending.size());
      pending.emplace_back();
      Enqueue(base, slot, op, key, pending, ctl.measured);
      pending[slot].sched_ns = sched;
      pending[slot].traced = TracedAt(ctl, sched - start);
      lag_sum += now - sched;
      next_offset += gap();
      work = true;
    }
    FlushAll(ctl.trace, pending);
    work = Collect(base, pending, ctl, &r, &completed) > 0 || work;
    r.backlog_peak = std::max<uint64_t>(r.backlog_peak, pending.size() - completed);
    if (now >= end && (completed == pending.size() || now >= end + kDrainNs)) {
      break;
    }
    if (!work) {
      YieldCpu();
    }
  }
  r.attempted = pending.size();
  for (const Pending& p : pending) {
    r.abandoned += p.done ? 0 : 1;
  }
  r.elapsed_ns = duration_ns;
  r.generator_lag_ns =
      pending.empty() ? 0.0 : static_cast<double>(lag_sum / pending.size());
  r.max_open_conns = static_cast<int>(conns_.size());
  return r;
}

// ----------------------------------------------------------- HttpLoad ----

bool HttpLoad::Probe(uint64_t timeout_ns) {
  const uint64_t id = next_unmeasured_id_++;
  auto conn = edge_->Connect(kServicePort);
  if (!conn.ok()) {
    return false;
  }
  Wire w;
  w.conn = std::move(conn).value();
  w.tx = HttpRequestFor(id);
  const uint64_t deadline = Now() + timeout_ns;
  bool ok = false;
  while (Now() < deadline) {
    if (!w.Flush()) {
      break;
    }
    const long got = w.Fill();
    HttpReply reply;
    const long n = ParseHttpResponse(w.Unread(), &reply);
    if (n != 0) {
      ok = n > 0 && reply.status == 200 && reply.body == HttpBodyFor(id);
      break;
    }
    if (got < 0) {
      break;
    }
    YieldCpu();
  }
  w.Close();
  return ok;
}

RunResult HttpLoad::Run(uint64_t duration_ns, const RunControl& ctl) {
  struct Slot {
    Wire wire;
    bool busy = false;
    bool traced = false;
    uint64_t id = 0;
    uint64_t start_ns = 0;
    uint64_t write_ns = 0;
  };
  std::vector<Slot> slots(static_cast<size_t>(kClientConns));
  RunResult r;
  uint64_t next_id = ctl.measured ? 0 : next_unmeasured_id_;
  const uint64_t start = Now();
  const uint64_t end = start + duration_ns;
  r.run_start_ns = start;
  r.window_ns = ctl.window_ns;
  RunClock clock(ctl, start, duration_ns);
  uint64_t last_done = start;
  for (;;) {
    const uint64_t now = Now();
    clock.Tick(now);
    bool work = false;
    int open = 0;
    for (Slot& s : slots) {
      if (!s.busy && now < end) {
        s.id = next_id++;
        s.start_ns = Now();
        s.traced = TracedAt(ctl, s.start_ns - start);
        ++r.attempted;
        auto conn = edge_->Connect(kServicePort);
        if (!conn.ok()) {
          ++r.errors;
          continue;
        }
        s.wire.conn = std::move(conn).value();
        s.wire.tx = HttpRequestFor(s.id);
        if (ctl.measured && capture_.bytes.size() < kCaptureBytes) {
          capture_.bytes += s.wire.tx;
        }
        s.write_ns = Now();
        if (!s.wire.Flush()) {
          ++r.errors;
          s.wire.Close();
          continue;
        }
        s.busy = true;
        work = true;
      }
      open += s.busy ? 1 : 0;
    }
    r.max_open_conns = std::max(r.max_open_conns, open);
    bool any_busy = false;
    for (Slot& s : slots) {
      if (!s.busy) {
        continue;
      }
      if (s.wire.tx_pending() && !s.wire.Flush()) {
        ++r.errors;
        s.wire.Close();
        s.busy = false;
        continue;
      }
      const long got = s.wire.Fill();
      HttpReply reply;
      const long n = ParseHttpResponse(s.wire.Unread(), &reply);
      if (n > 0) {
        const uint64_t done_ns = Now();
        if (reply.status == 200 && reply.body == HttpBodyFor(s.id)) {
          RecordOk(&r, ctl, s.start_ns, done_ns - s.start_ns, s.traced);
          if (ctl.trace && s.traced) {
            r.spans.push_back(SpanRec{s.id, 0, s.start_ns, s.write_ns, done_ns});
          }
        } else {
          ++(reply.status >= 500 ? r.errors : r.wrong);
        }
        last_done = done_ns;
      } else if (n < 0) {
        ++r.wrong;
      } else if (got < 0) {
        ++r.errors;  // closed before a complete reply
      } else {
        any_busy = true;
        continue;
      }
      s.wire.Close();
      s.busy = false;
      work = true;
    }
    if (now >= end && !any_busy) {
      break;
    }
    if (now >= end + kDrainNs) {
      for (Slot& s : slots) {
        if (s.busy) {
          ++r.abandoned;
          s.wire.Close();
        }
      }
      break;
    }
    if (!work) {
      YieldCpu();
    }
  }
  if (!ctl.measured) {
    next_unmeasured_id_ = next_id;
  }
  r.elapsed_ns = std::max(last_done, end) - start;
  return r;
}

// --------------------------------------------------------- HadoopLoad ----

namespace {

constexpr size_t kWordBytes = 8;
constexpr size_t kProbePairs = 64;

std::map<std::string, uint64_t> CountBlock(const std::string& block, uint64_t* pairs) {
  std::map<std::string, uint64_t> counts;
  std::string_view rest(block);
  std::string_view key;
  uint64_t count = 0;
  long n = 0;
  while ((n = ParseKv(rest, &key, &count)) > 0) {
    counts[std::string(key)] += count;
    *pairs += 1;
    rest.remove_prefix(static_cast<size_t>(n));
  }
  return counts;
}

}  // namespace

HadoopLoad::HadoopLoad(flick::Transport* edge, uint64_t seed, Farm* farm)
    : edge_(edge), farm_(farm) {
  std::mt19937_64 rng(seed * 0x2545f4914f6cdd1dULL + 7);
  std::vector<std::string> vocabulary(kVocabulary);
  for (std::string& w : vocabulary) {
    w.resize(kWordBytes);
    for (char& c : w) {
      c = static_cast<char>('a' + rng() % 26);
    }
  }
  const size_t pair_bytes = 2 + kWordBytes + 4 + 1;
  const size_t pairs = kBytesPerMapper / pair_bytes;
  for (int m = 0; m < kClientConns; ++m) {
    std::vector<const std::string*> chosen(pairs);
    for (auto& w : chosen) {
      w = &vocabulary[rng() % vocabulary.size()];
    }
    std::sort(chosen.begin(), chosen.end(),
              [](const std::string* a, const std::string* b) { return *a < *b; });
    std::string block;
    block.reserve(pairs * pair_bytes);
    for (const std::string* w : chosen) {
      AppendKv(&block, *w, "1");
    }
    for (const auto& [word, count] : CountBlock(block, &pairs_per_batch_)) {
      batch_counts_[word] += count;
    }
    std::string probe = block.substr(0, kProbePairs * pair_bytes);
    for (const auto& [word, count] : CountBlock(probe, &probe_pairs_)) {
      probe_counts_[word] += count;
    }
    blocks_.push_back(std::move(block));
    probe_blocks_.push_back(std::move(probe));
  }
  capture_.bytes = blocks_.front().substr(0, kCaptureBytes);
}

uint64_t HadoopLoad::Batch(const std::vector<std::string>& blocks, uint64_t pairs,
                             const std::map<std::string, uint64_t>& counts,
                             int* open_conns) {
  const uint64_t start = Now();
  const uint64_t deadline = start + kBatchTimeoutNs;
  std::vector<std::unique_ptr<flick::Connection>> mappers;
  for (size_t m = 0; m < blocks.size(); ++m) {
    auto conn = edge_->Connect(kServicePort);
    if (!conn.ok()) {
      return 0;
    }
    mappers.push_back(std::move(conn).value());
  }
  *open_conns = std::max(*open_conns, static_cast<int>(mappers.size()));
  for (const auto& [word, count] : counts) {
    sent_[word] += count;
  }
  sent_total_ += pairs;  // every value is "1": counts == pairs
  std::vector<size_t> offset(blocks.size(), 0);
  size_t open = mappers.size();
  while (open > 0) {
    bool progress = false;
    for (size_t m = 0; m < mappers.size(); ++m) {
      if (!mappers[m]) {
        continue;
      }
      const std::string& block = blocks[m];
      auto wrote = mappers[m]->Write(block.data() + offset[m],
                                     std::min<size_t>(block.size() - offset[m], 16384));
      if (!wrote.ok()) {
        return 0;
      }
      offset[m] += *wrote;
      progress = progress || *wrote > 0;
      if (offset[m] == block.size()) {
        mappers[m]->Close();
        mappers[m].reset();
        --open;
      }
    }
    if (!progress) {
      if (Now() >= deadline) {
        return 0;
      }
      YieldCpu();  // mapper rings full: the program is behind
    }
  }
  while (farm_->reducer_count_total() < sent_total_) {
    if (Now() >= deadline) {
      return 0;
    }
    YieldCpu();
  }
  return std::max<uint64_t>(Now() - start, 1);
}

bool HadoopLoad::Probe() {
  int open = 0;
  return Batch(probe_blocks_, probe_pairs_, probe_counts_, &open) > 0;
}

RunResult HadoopLoad::Run(uint64_t duration_ns, const RunControl& ctl) {
  RunResult r;
  const uint64_t start = Now();
  const uint64_t end = start + duration_ns;
  r.run_start_ns = start;
  r.window_ns = ctl.window_ns;
  RunClock clock(ctl, start, duration_ns);
  uint64_t now = start;
  while (now < end) {
    clock.Tick(now);
    const bool traced = TracedAt(ctl, now - start);
    r.attempted += pairs_per_batch_;
    const uint64_t lat = Batch(blocks_, pairs_per_batch_, batch_counts_, &r.max_open_conns);
    if (lat == 0) {
      r.abandoned += pairs_per_batch_;  // sink never saw the whole batch
      break;
    }
    RecordOk(&r, ctl, now, lat, traced, pairs_per_batch_);
    now = Now();
  }
  r.elapsed_ns = Now() - start;
  return r;
}

}  // namespace fb
