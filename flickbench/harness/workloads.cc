#include "harness/workloads.h"

#include <dirent.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>

#include "harness/load.h"
#include "harness/farm.h"
#include "harness/probes.h"
#include "net/sim_transport.h"
#include "proto/hadoop.h"
#include "proto/memcached.h"
#include "runtime/platform.h"
#include "services/backend_pool.h"
#include "services/dsl_service.h"
#include "services/hadoop_agg.h"
#include "services/http_lb.h"
#include "services/memcached_proxy.h"

namespace fb {
namespace {

namespace rt = flick::runtime;
namespace sv = flick::services;

// ------------------------------------------------------------ load shape ----

constexpr uint16_t kBackendBasePort = 7100;
constexpr uint16_t kReducerPort = 7200;
constexpr int kBackends = 4;
constexpr size_t kSimRingBytes = 64 * 1024;
constexpr uint32_t kGetKeySpace = 10'000;
constexpr uint32_t kCacheKeySpace = 2'000;
constexpr double kCacheSetFraction = 0.10;

// Set-ups per group (see RunWorkload). Reported is the first quartile over
// all of them: host interference only ever adds time, and the lower
// quartile repeated better from run to run than the median or the minimum.
constexpr int kSetupsPerGroup = 40;
constexpr uint64_t kReadyTimeoutNs = 5'000'000'000;
// Untimed traffic between set-up and the measured window.
constexpr uint64_t kWarmupNs = 500'000'000;
// How long graphs get to retire once the clients have gone.
constexpr uint64_t kRetireWaitNs = 2'000'000'000;
// A span segment above this is a stall (span.slow_frac_*).
constexpr uint64_t kSlowSpanNs = 1'000'000;
// Self-test 6: fresh mc_cache_mix rigs, unwarmed, each sent every key
// kDefectRounds times at once, and how long each waits for the last reply.
constexpr int kDefectBursts = 10;
constexpr int kDefectRounds = 4;
constexpr uint64_t kDefectTimeoutNs = 500'000'000;
// CPU reconciliation tolerance: per-thread sums against getrusage.
constexpr double kCpuTolerance = 0.05;
// End-to-end latency and goodput are taken over windows of a run (see
// RunResult): the worst third of windows is dropped, so a host stall (a
// preempted vCPU) spoils the windows it falls in, not the run, while a
// stall pattern touching more windows than that still counts. Request
// workloads use 20 ms windows (~200 ops each); Hadoop batches take ~40 ms,
// so it uses 1 s windows. Windows with fewer samples than kMinWindowSamples
// (a run's ragged end) do not vote.
constexpr uint64_t kRequestWindowNs = 20'000'000;
constexpr uint64_t kBatchWindowNs = 1'000'000'000;
constexpr size_t kMinWindowSamples = 10;

enum class Kind { kDslGet, kCacheMix, kHttpChurn, kHadoop };

struct WorkloadDef {
  const char* name;
  Kind kind;
};

constexpr WorkloadDef kWorkloads[] = {
    {"dsl_mc_get", Kind::kDslGet},
    {"mc_cache_mix", Kind::kCacheMix},
    {"http_lb_churn", Kind::kHttpChurn},
    {"hadoop_ingest", Kind::kHadoop},
};

bool IsMemcached(Kind k) { return k == Kind::kDslGet || k == Kind::kCacheMix; }

rt::PlatformConfig MakeConfig(Kind kind) {
  rt::PlatformConfig c;
  c.scheduler.num_workers = 2;
  c.scheduler.pin_threads = true;
  c.scheduler.idle_sleep_ns = 20'000;
  c.io_buffer_count = 8192;
  c.io_buffer_size = 4096;
  c.msg_pool_size = 8192;
  c.io_shards = 1;
  if (kind == Kind::kHttpChurn) {
    c.idle_timeout_ns = 1'000'000'000;
    c.header_deadline_ns = 500'000'000;
  }
  return c;
}

// Applied to the fabric before the program starts (self-test faults).
using FabricHook =
    std::function<void(flick::SimNetwork&, const std::vector<uint16_t>& backend_ports)>;

// One instance of the system under test plus its harness.
struct Rig {
  Kind kind;
  std::unique_ptr<flick::SimNetwork> net;
  std::unique_ptr<flick::SimTransport> program_side;
  std::unique_ptr<flick::SimTransport> harness_side;
  std::unique_ptr<Farm> farm;
  std::unique_ptr<rt::Platform> platform;
  std::unique_ptr<rt::ServiceProgram> service;
  // Views of `service`, set by Adopt.
  const sv::GraphRegistry* registry = nullptr;
  const sv::BackendPool* pool = nullptr;
  // The unit the service parses requests with (memcached and Hadoop).
  const flick::grammar::Unit* unit = nullptr;
  std::unique_ptr<Load> load;
  std::vector<uint16_t> backend_ports;

  explicit Rig(Kind k) : kind(k) {}
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;
  ~Rig() { Shutdown(); }

  template <typename S>
  S* Adopt(std::unique_ptr<S> s) {
    registry = &s->registry();
    pool = s->pool();
    S* raw = s.get();
    service = std::move(s);
    return raw;
  }

  void Shutdown() {
    if (load) {
      load->Close();
    }
    if (platform) {
      platform->Stop();
    }
    // The service goes before the platform whose pollers its registry uses.
    service.reset();
    platform.reset();
    if (farm) {
      farm->Stop();
    }
  }
};

// Builds a rig and drives it to its first correct reply (after the cache
// warm-up for mc_cache_mix, unless `warm_cache` is false). Null with *error
// set on failure.
std::unique_ptr<Rig> BuildRig(Kind kind, uint64_t seed, const FabricHook& hook,
                              bool warm_cache, std::string* error) {
  // The platform's poller inherits this thread's CPU mask (see HarnessCpu).
  PinThisThread(HarnessCpu::kFarm);
  auto rig = std::make_unique<Rig>(kind);
  rig->net = std::make_unique<flick::SimNetwork>(kSimRingBytes);
  rig->program_side = std::make_unique<flick::SimTransport>(
      rig->net.get(), flick::StackCostModel::Kernel());
  rig->harness_side = std::make_unique<flick::SimTransport>(
      rig->net.get(), flick::StackCostModel::Null());
  const uint32_t key_space = kind == Kind::kCacheMix ? kCacheKeySpace : kGetKeySpace;
  rig->farm = std::make_unique<Farm>(rig->net.get(), key_space, seed);
  flick::Status added = flick::OkStatus();
  if (kind == Kind::kHadoop) {
    added = rig->farm->AddReducer(kReducerPort);
  } else {
    for (int b = 0; b < kBackends && added.ok(); ++b) {
      const uint16_t port = static_cast<uint16_t>(kBackendBasePort + b);
      rig->backend_ports.push_back(port);
      added = kind == Kind::kHttpChurn ? rig->farm->AddHttp(port)
                                       : rig->farm->AddMemcached(port);
    }
  }
  if (!added.ok()) {
    *error = "farm listen: " + added.ToString();
    return nullptr;
  }
  rig->farm->Start();
  if (hook) {
    hook(*rig->net, rig->backend_ports);
  }

  rig->platform = std::make_unique<rt::Platform>(MakeConfig(kind), rig->program_side.get());
  sv::WireOptions wire;
  wire.mode = sv::BackendMode::kPooled;
  wire.conns_per_backend = 2;
  switch (kind) {
    case Kind::kDslGet: {
      sv::DslService::Options options;
      options.wire = wire;
      options.lower = true;
      auto created = sv::DslService::Create(sv::kMemcachedRouterSource, "memcached",
                                            rig->backend_ports, options);
      if (!created.ok()) {
        *error = "compile: " + created.status().ToString();
        return nullptr;
      }
      sv::DslService* dsl = rig->Adopt(std::move(created).value());
      rig->unit = dsl->program().UnitFor("cmd");
      break;
    }
    case Kind::kCacheMix: {
      sv::MemcachedProxyService::Options options;
      options.wire = wire;
      options.cache.enabled = true;
      rig->Adopt(std::make_unique<sv::MemcachedProxyService>(rig->backend_ports, options));
      rig->unit = &flick::proto::MemcachedUnit();
      break;
    }
    case Kind::kHttpChurn: {
      sv::HttpLbService::Options options;
      options.wire = wire;
      rig->Adopt(std::make_unique<sv::HttpLbService>(rig->backend_ports, options));
      break;
    }
    case Kind::kHadoop:
      rig->Adopt(std::make_unique<sv::HadoopAggService>(kClientConns, kReducerPort));
      rig->unit = &flick::proto::HadoopKvUnit();
      break;
  }
  if (const flick::Status s = rig->platform->RegisterProgram(kServicePort, rig->service.get());
      !s.ok()) {
    *error = "register: " + s.ToString();
    return nullptr;
  }
  rig->platform->Start();
  PinThisThread(HarnessCpu::kLoad);

  bool ready = false;
  if (IsMemcached(kind)) {
    McSpec spec;
    spec.key_space = key_space;
    spec.seed = seed;
    if (kind == Kind::kCacheMix) {
      spec.set_fraction = kCacheSetFraction;
      spec.get_opcode = kMcGetK;
    }
    auto mc = std::make_unique<McLoad>(rig->harness_side.get(), spec);
    if (!mc->Connect().ok()) {
      *error = "client connect refused";
      return nullptr;
    }
    RunResult first = mc->Probe(kReadyTimeoutNs);
    if (first.ok == first.attempted && kind == Kind::kCacheMix && warm_cache) {
      first = mc->WarmKeys(kReadyTimeoutNs);
    }
    rig->load = std::move(mc);
    ready = first.ok == first.attempted;
    if (!ready) {
      *error = std::to_string(first.ok) + " of " + std::to_string(first.attempted) +
               " set-up requests answered correctly (wrong " + std::to_string(first.wrong) +
               ", stale " + std::to_string(first.stale) + ", errors " +
               std::to_string(first.errors) + ", unanswered " +
               std::to_string(first.abandoned) + " after " +
               std::to_string(kReadyTimeoutNs / 1'000'000'000) + " s)";
      return nullptr;
    }
  } else if (kind == Kind::kHttpChurn) {
    auto http = std::make_unique<HttpLoad>(rig->harness_side.get());
    ready = http->Probe(kReadyTimeoutNs);
    rig->load = std::move(http);
  } else {
    auto hadoop = std::make_unique<HadoopLoad>(rig->harness_side.get(), seed, rig->farm.get());
    ready = hadoop->Probe();
    rig->load = std::move(hadoop);
  }
  if (!ready) {
    *error = "no correct first reply within the set-up timeout";
    return nullptr;
  }
  return rig;
}

// Builds kSetupsPerGroup rigs one after another, each replacing the last,
// and adds each set-up's wall time to *times. Returns the last rig; null
// with *error set when a set-up failed.
std::unique_ptr<Rig> SetUpRepeatedly(Kind kind, uint64_t seed, Samples* times,
                                     std::string* error) {
  std::unique_ptr<Rig> rig;
  for (int i = 0; i < kSetupsPerGroup; ++i) {
    rig.reset();
    const uint64_t t0 = Now();
    rig = BuildRig(kind, seed, {}, /*warm_cache=*/true, error);
    const uint64_t t1 = Now();
    if (!rig) {
      return nullptr;
    }
    times->Add(t1 - t0);
  }
  return rig;
}

// Counter snapshot of every public stats struct the rig exposes.
struct Counters {
  rt::SchedulerStats sched;
  sv::RegistryStats reg;
  sv::BackendPoolStats pool;
  uint64_t msg_pool_misses = 0;
  uint64_t reducer_pairs = 0;
};

Counters Snapshot(Rig& rig) {
  Counters c;
  c.sched = rig.platform->scheduler().stats();
  c.reg = rig.registry->stats();
  if (rig.pool != nullptr) {
    c.pool = rig.pool->stats();
  }
  c.msg_pool_misses = rig.platform->msg_pool_misses();
  c.reducer_pairs = rig.farm->reducer_pairs();
  return c;
}

size_t CountOpenFds() {
  size_t n = 0;
  if (DIR* dir = opendir("/proc/self/fd")) {
    while (dirent* e = readdir(dir)) {
      n += e->d_name[0] != '.' ? 1 : 0;
    }
    closedir(dir);
  }
  return n;
}

// One measured window over a ready rig, with everything read around it.
struct Measurement {
  RunResult run;
  Counters before;
  Counters after;
  RoleCpu cpu;            // per-role CPU over the window
  RoleCpu live;           // thread census taken mid-window
  double cpu_unaccounted_frac = 0.0;  // (getrusage - thread sum) / getrusage
  std::string budget_problems;
  size_t fds_before = 0;
  size_t fds_live = 0;
  size_t graphs_live_end = 0;
};

Measurement Measure(Rig& rig, uint64_t duration_ns, RunControl ctl) {
  Measurement m;
  ctl.farm = rig.farm.get();
  ctl.midpoint = [&m] {
    m.live = ReadRoleCpu();
    m.budget_problems = CheckThreadBudget(m.live);
    m.fds_live = CountOpenFds();
  };
  if (ctl.trace) {
    const double expected =
        IsMemcached(rig.kind) ? kOpenLoopRate * static_cast<double>(duration_ns) * 1e-9 : 0.0;
    // HTTP ids run at well under 100k per second on this shape.
    rig.farm->PrepareStamps(static_cast<size_t>(
        std::max(expected * 1.3, 100'000.0 * static_cast<double>(duration_ns) * 1e-9)) +
        1024);
  }
  m.fds_before = CountOpenFds();
  m.before = Snapshot(rig);
  const RoleCpu cpu0 = ReadRoleCpu();
  const uint64_t rusage0 = ProcessCpuNs();
  m.run = rig.load->Run(duration_ns, ctl);
  const RoleCpu cpu1 = ReadRoleCpu();
  const uint64_t rusage1 = ProcessCpuNs();
  m.after = Snapshot(rig);
  m.cpu = Delta(cpu1, cpu0);
  const double process_ns = static_cast<double>(rusage1 - rusage0);
  if (process_ns > 0) {
    m.cpu_unaccounted_frac =
        (process_ns - static_cast<double>(m.cpu.total_ns())) / process_ns;
  }
  if (m.run.max_open_conns > kClientConns) {
    m.budget_problems += "client_conns=" + std::to_string(m.run.max_open_conns) + ">" +
                         std::to_string(kClientConns) + " ";
  }
  // Clients leave; every graph must retire.
  rig.load->Close();
  const uint64_t deadline = Now() + kRetireWaitNs;
  while (rig.registry->live_graphs() > 0 && Now() < deadline) {
    SleepNs(1'000'000);
  }
  m.graphs_live_end = rig.registry->live_graphs();
  return m;
}

// Spans of the traced ops, joined with the farm's stamps by request id.
struct SpanStats {
  Samples queue, ingress, backend, egress, hit, accept;
  uint64_t joined = 0;
  uint64_t unjoined = 0;
  uint64_t bad = 0;  // out of order or wrong key
  uint64_t slow_ingress = 0;
  uint64_t slow_egress = 0;
};

// The segments partition [start, done] at the client's write stamp and the
// farm's two stamps, so they sum to the end-to-end latency by construction.
// What can fail is the join: a farm stamp outside the client's write..reply
// interval, or a farm that saw another key under the op's id.
SpanStats JoinSpans(Kind kind, const RunResult& run, const FarmStamps& stamps) {
  SpanStats s;
  for (const SpanRec& rec : run.spans) {
    const uint64_t queue = rec.write_ns - rec.start_ns;
    const uint64_t read = rec.id < stamps.read_ns.size() ? stamps.read_ns[rec.id] : 0;
    if (read == 0) {
      if (kind != Kind::kCacheMix) {
        ++s.unjoined;
        continue;
      }
      // Answered by the look-aside cache: no backend span.
      s.queue.Add(queue);
      s.hit.Add(rec.done_ns - rec.write_ns);
      ++s.joined;
      continue;
    }
    const uint64_t write = stamps.write_ns[rec.id];
    if (read < rec.write_ns || write < read || rec.done_ns < write ||
        (IsMemcached(kind) && stamps.key[rec.id] != rec.key)) {
      ++s.bad;
      continue;
    }
    const uint64_t ingress = read - rec.write_ns;
    const uint64_t backend = write - read;
    const uint64_t egress = rec.done_ns - write;
    ++s.joined;
    s.queue.Add(queue);
    s.ingress.Add(ingress);
    s.backend.Add(backend);
    s.egress.Add(egress);
    if (kind == Kind::kHttpChurn) {
      s.accept.Add(read - rec.start_ns);
    }
    s.slow_ingress += ingress > kSlowSpanNs ? 1 : 0;
    s.slow_egress += egress > kSlowSpanNs ? 1 : 0;
  }
  return s;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double Us(double ns) { return ns / 1e3; }

std::string Fixed(double v, int digits = 3) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return buf;
}

// Correctness of one measured window: wrong or stale output, a broken
// budget, requests the farm could not parse, or (Hadoop) per-word sums that
// differ from what the mappers sent.
bool CheckCorrect(Rig& rig, const Measurement& m, std::vector<std::string>* notes) {
  bool correct = true;
  auto fail = [&](const std::string& why) {
    correct = false;
    notes->push_back("INCORRECT: " + why);
  };
  if (m.run.wrong > 0) {
    fail(std::to_string(m.run.wrong) + " wrong replies");
  }
  if (m.run.stale > 0) {
    fail(std::to_string(m.run.stale) + " stale reads after a SET");
  }
  if (!m.budget_problems.empty()) {
    fail("load-shape budget exceeded: " + m.budget_problems);
  }
  if (rig.farm->malformed() > 0) {
    fail(std::to_string(rig.farm->malformed()) + " requests the farm could not parse");
  }
  if (rig.kind == Kind::kHadoop && m.run.abandoned == 0 &&
      rig.farm->reducer_counts() != static_cast<const HadoopLoad&>(*rig.load).sent_counts()) {
    fail("reducer per-word sums differ from what the mappers sent");
  }
  return correct;
}

void AddEndToEnd(Report* rep, double setup_s, Measurement& m) {
  RunResult& r = m.run;
  const double ops = static_cast<double>(r.ok);
  auto add = [&](const char* name, double v, const char* unit) {
    rep->metrics.push_back(Metric{name, v, unit});
  };
  add("setup_s", setup_s, "s");
  add("p50_us", Us(r.WindowedQuantile(0.50, kMinWindowSamples)), "us");
  add("p90_us", Us(r.WindowedQuantile(0.90, kMinWindowSamples)), "us");
  add("goodput_ops", r.WindowedRate(kMinWindowSamples), "1/s");
  add("cpu_us_per_op", Ratio(Us(static_cast<double>(m.cpu.program_ns())), ops), "us");
  add("ok_frac", Ratio(ops, static_cast<double>(r.attempted)), "frac");
}

void AddPerLayer(Report* rep, Kind kind, Rig& rig, Measurement& m) {
  RunResult& r = m.run;
  const Counters& a = m.after;
  const Counters& b = m.before;
  const double ops = static_cast<double>(r.ok);
  auto d = [](uint64_t after, uint64_t before) {
    return static_cast<double>(after > before ? after - before : 0);
  };
  auto add = [&](const char* name, double v, const char* unit) {
    rep->metrics.push_back(Metric{name, v, unit});
  };

  // runtime
  add("runtime.worker_cpu_us_per_op", Ratio(Us(m.cpu.worker_ns), ops), "us");
  add("runtime.poller_cpu_us_per_op", Ratio(Us(m.cpu.poller_ns), ops), "us");
  add("runtime.tasks_run_per_op", Ratio(d(a.sched.tasks_run, b.sched.tasks_run), ops),
      "count");
  add("runtime.notifications_per_op",
      Ratio(d(a.sched.notifications, b.sched.notifications), ops), "count");
  add("runtime.steals_per_op", Ratio(d(a.sched.steals, b.sched.steals), ops), "count");
  add("runtime.timers_armed_per_op", Ratio(d(a.reg.timers_armed, b.reg.timers_armed), ops),
      "count");
  add("runtime.timers_cancelled_per_op",
      Ratio(d(a.reg.timers_cancelled, b.reg.timers_cancelled), ops), "count");
  add("runtime.idle_sweep_frac",
      Ratio(d(a.reg.sweeps_idle, b.reg.sweeps_idle), d(a.reg.sweeps, b.reg.sweeps)),
      "frac");
  StoreTimes store;
  if (IsMemcached(kind)) {
    store = ReplayStateStore(rig.load->capture().ops, kind == Kind::kCacheMix);
  }
  add("runtime.state_store_get_ns", store.get_ns, "ns");
  add("runtime.state_store_put_ns", store.put_ns, "ns");

  // buffer
  add("buffer.msg_pool_misses_per_op", Ratio(d(a.msg_pool_misses, b.msg_pool_misses), ops),
      "count");
  add("buffer.slice_spills", static_cast<double>(rig.platform->pool_slice_spills()), "count");

  // grammar / proto / lang: public layer functions over captured inputs
  double parse_ns = 0.0;
  double serialize_ns = 0.0;
  double http_ns = 0.0;
  double compile_ms = 0.0;
  DispatchTimes dispatch;
  std::vector<flick::grammar::Message> parsed;
  const std::string& captured = rig.load->capture().bytes;
  if (rig.unit != nullptr) {
    parse_ns = ParseNsPerMsg(rig.unit, captured, &parsed);
    serialize_ns = SerializeNsPerMsg(rig.unit, parsed);
  } else {
    http_ns = HttpParseNsPerReq(captured);
  }
  if (kind == Kind::kDslGet) {
    compile_ms = CompileMs(sv::kMemcachedRouterSource);
    dispatch = DslDispatchNs(sv::kMemcachedRouterSource, "memcached", kBackends, captured);
  }
  add("grammar.parse_ns_per_msg", parse_ns, "ns");
  add("grammar.serialize_ns_per_msg", serialize_ns, "ns");
  add("proto.http_parse_ns_per_req", http_ns, "ns");
  add("lang.compile_ms", compile_ms, "ms");
  add("lang.lowered_frac",
      Ratio(d(a.reg.dsl_lowered_msgs, b.reg.dsl_lowered_msgs),
            d(a.reg.dsl_lowered_msgs, b.reg.dsl_lowered_msgs) +
                d(a.reg.dsl_interp_fallbacks, b.reg.dsl_interp_fallbacks)),
      "frac");
  add("lang.dispatch_ns_per_msg", dispatch.lowered_ns, "ns");
  add("lang.interp_dispatch_ns_per_msg", dispatch.interp_ns, "ns");

  // services
  add("services.pool_writev_per_req",
      Ratio(d(a.pool.writev_calls, b.pool.writev_calls),
            d(a.pool.requests_forwarded, b.pool.requests_forwarded)),
      "count");
  add("services.pool_readv_per_resp",
      Ratio(d(a.pool.readv_calls, b.pool.readv_calls),
            d(a.pool.responses_routed, b.pool.responses_routed)),
      "count");
  add("services.pool_short_fill_frac",
      Ratio(d(a.pool.fills_short, b.pool.fills_short),
            d(a.pool.fills_short, b.pool.fills_short) +
                d(a.pool.readv_calls, b.pool.readv_calls)),
      "frac");
  add("services.pool_health_events",
      d(a.pool.breaker_opens, b.pool.breaker_opens) +
          d(a.pool.request_deadline_expiries, b.pool.request_deadline_expiries) +
          d(a.pool.retries_spent, b.pool.retries_spent) +
          d(a.pool.retries_denied, b.pool.retries_denied) +
          d(a.pool.stripe_spills, b.pool.stripe_spills),
      "count");
  add("services.launch_failures", d(a.reg.launch_failures, b.reg.launch_failures), "count");
  add("services.graphs_per_op", Ratio(d(a.reg.graphs_adopted, b.reg.graphs_adopted), ops),
      "count");
  add("services.graphs_live_end", static_cast<double>(m.graphs_live_end), "count");
  const double hits = d(a.reg.cache_hits, b.reg.cache_hits);
  const double misses = d(a.reg.cache_misses, b.reg.cache_misses);
  add("services.cache_hit_ratio", Ratio(hits, hits + misses), "frac");
  add("services.cache_invalidations_per_op",
      Ratio(d(a.reg.cache_invalidations, b.reg.cache_invalidations), ops), "count");
  add("services.cache_stale_dropped",
      d(a.reg.cache_stale_populates_dropped, b.reg.cache_stale_populates_dropped), "count");
  add("services.cache_stale_served", d(a.reg.cache_stale_served, b.reg.cache_stale_served),
      "count");
  add("services.hadoop_reduction",
      kind == Kind::kHadoop ? Ratio(d(a.reducer_pairs, b.reducer_pairs), ops) : 0.0, "frac");

  // spans
  SpanStats s = JoinSpans(kind, r, rig.farm->stamps());
  auto add_span = [&](const char* name, Samples& v) {
    rep->metrics.push_back(Metric{std::string(name) + ".p50", Us(v.Quantile(0.5)), "us"});
    rep->metrics.push_back(Metric{std::string(name) + ".p90", Us(v.Quantile(0.9)), "us"});
  };
  add_span("span.queue_us", s.queue);
  add_span("span.ingress_us", s.ingress);
  add_span("span.backend_us", s.backend);
  add_span("span.egress_us", s.egress);
  add_span("span.hit_us", s.hit);
  add_span("span.accept_us", s.accept);
  const double forwarded = static_cast<double>(s.ingress.size());
  add("span.slow_frac_ingress", Ratio(static_cast<double>(s.slow_ingress), forwarded),
      "frac");
  add("span.slow_frac_egress", Ratio(static_cast<double>(s.slow_egress), forwarded), "frac");
  add("span.samples", static_cast<double>(s.joined), "count");

  // harness validity
  add("load.harness_cpu_us_per_op", Ratio(Us(m.cpu.harness_ns()), ops), "us");
  add("load.generator_lag_us", Us(r.generator_lag_ns), "us");
  add("load.backlog_peak", static_cast<double>(r.backlog_peak), "count");
  const double untraced_p50 = r.latency_untraced.Quantile(0.5);
  add("trace.overhead_frac",
      untraced_p50 > 0 ? r.latency_traced.Quantile(0.5) / untraced_p50 - 1.0 : 0.0, "frac");
  add("trace.cpu_unaccounted_frac", m.cpu_unaccounted_frac, "frac");

  // Reconciliation: joined spans must be ordered and name the right key, and
  // the per-thread CPU must account for the process's CPU.
  rep->notes.push_back("spans: " + std::to_string(s.joined) + " joined, " +
                       std::to_string(s.unjoined) + " unjoined, " + std::to_string(s.bad) +
                       " out of order or with the wrong key");
  const bool has_spans = kind != Kind::kHadoop;
  if (s.bad > 0 || (has_spans && s.joined == 0)) {
    rep->correct = false;
    rep->notes.push_back("INCORRECT: span reconciliation failed");
  }
  if (std::fabs(m.cpu_unaccounted_frac) > kCpuTolerance) {
    rep->correct = false;
    rep->notes.push_back("INCORRECT: per-thread CPU does not reconcile with getrusage (" +
                         Fixed(m.cpu_unaccounted_frac, 4) + ")");
  }
}

void AddNotes(Report* rep, const std::string& workload, Measurement& m, double setup_s) {
  RunResult& r = m.run;
  auto tail = [&](double q) {
    const size_t beyond =
        static_cast<size_t>(std::floor(static_cast<double>(r.latency.size()) * (1.0 - q)));
    return Fixed(Us(r.latency.Quantile(q)), 1) + " us (" + std::to_string(beyond) + " of " +
           std::to_string(r.latency.size()) + " samples beyond)";
  };
  const std::vector<double> p90s = r.WindowQuantiles(0.90, kMinWindowSamples);
  const double typical = Median(p90s);
  const size_t stalled = static_cast<size_t>(
      std::count_if(p90s.begin(), p90s.end(), [&](double v) { return v > 2 * typical; }));
  rep->notes.push_back(workload + ": " + std::to_string(stalled) + " of " +
                       std::to_string(p90s.size()) +
                       " windows with p90 above twice the median window's");
  rep->notes.push_back(workload + ": setup " + Fixed(setup_s, 4) + " s, p99 " + tail(0.99) +
                       ", p999 " + tail(0.999) + ", max " + Fixed(Us(r.latency.Max()), 1) +
                       " us");
  rep->notes.push_back(
      workload + ": attempted " + std::to_string(r.attempted) + ", ok " +
      std::to_string(r.ok) + ", wrong " + std::to_string(r.wrong) + ", stale " +
      std::to_string(r.stale) + ", errors " + std::to_string(r.errors) + ", abandoned " +
      std::to_string(r.abandoned) + ", error_frac " +
      Fixed(Ratio(static_cast<double>(r.failed()), static_cast<double>(r.attempted)), 6));
  rep->notes.push_back(workload + ": threads live " + std::to_string(m.live.threads()) +
                       " (workers " + std::to_string(m.live.workers) + ", pollers " +
                       std::to_string(m.live.pollers) + ", load " +
                       std::to_string(m.live.loads) + ", farm " +
                       std::to_string(m.live.farms) + "), client conns peak " +
                       std::to_string(r.max_open_conns) + ", fds " +
                       std::to_string(m.fds_before) + " -> " + std::to_string(m.fds_live));
}

const WorkloadDef* FindWorkload(const std::string& name) {
  for (const WorkloadDef& w : kWorkloads) {
    if (name == w.name) {
      return &w;
    }
  }
  return nullptr;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> v;
    for (const WorkloadDef& w : kWorkloads) {
      v.push_back(w.name);
    }
    return v;
  }();
  return names;
}

Report RunWorkload(const std::string& workload, uint64_t seed, double seconds,
                   bool trace) {
  Report rep;
  const WorkloadDef* def = FindWorkload(workload);
  if (def == nullptr) {
    rep.notes.push_back("unknown workload " + workload);
    return rep;
  }
  // Set-up is timed in two groups, before the measured window and after
  // it, so the reported figure spans two moments of the host.
  Samples setups;
  std::string error;
  std::unique_ptr<Rig> rig = SetUpRepeatedly(def->kind, seed, &setups, &error);
  if (!rig) {
    rep.notes.push_back(workload + ": set-up failed: " + error);
    return rep;
  }

  RunControl warmup;
  warmup.measured = false;
  rig->load->Run(kWarmupNs, warmup);

  RunControl ctl;
  ctl.trace = trace;
  ctl.window_ns = def->kind == Kind::kHadoop ? kBatchWindowNs : kRequestWindowNs;
  const uint64_t duration_ns = static_cast<uint64_t>(seconds * 1e9);
  Measurement m = Measure(*rig, duration_ns, ctl);
  rig->farm->Stop();  // the stamps and reducer sums are read below

  rep.correct = CheckCorrect(*rig, m, &rep.notes);
  rep.attempted = m.run.attempted;
  rep.failed = m.run.failed();
  if (trace) {
    AddPerLayer(&rep, def->kind, *rig, m);
  }
  rig.reset();
  if (!SetUpRepeatedly(def->kind, seed, &setups, &error)) {
    rep.notes.push_back(workload + ": set-up failed: " + error);
    rep.metrics.clear();
    return rep;
  }
  const double setup_s = setups.Quantile(0.25) * 1e-9;
  AddNotes(&rep, workload, m, setup_s);
  if (!trace) {
    AddEndToEnd(&rep, setup_s, m);
  }
  return rep;
}

// ------------------------------------------------------------ self-tests ----

int RunSelfTests() {
  int failures = 0;
  auto check = [&](bool ok, const std::string& what, const std::string& detail) {
    std::printf("%s  %s  (%s)\n", ok ? "PASS" : "FAIL", what.c_str(), detail.c_str());
    std::fflush(stdout);
    failures += ok ? 0 : 1;
  };
  auto build = [&](Kind kind, const FabricHook& hook) {
    std::string error;
    auto rig = BuildRig(kind, /*seed=*/7, hook, /*warm_cache=*/true, &error);
    if (!rig) {
      check(false, "set-up", error);
    }
    return rig;
  };

  // 1. A 50 ms farm pause shows in the open-loop tail and the backlog:
  //    latency is charged from the scheduled arrival.
  if (auto rig = build(Kind::kDslGet, {})) {
    RunControl ctl;
    ctl.pause_at_ns = 700'000'000;
    ctl.pause_ns = 50'000'000;
    Measurement m = Measure(*rig, 1'500'000'000, ctl);
    const double max_ms = static_cast<double>(m.run.latency.Max()) / 1e6;
    const double p99_ms = m.run.latency.Quantile(0.99) / 1e6;
    const uint64_t min_backlog = static_cast<uint64_t>(kOpenLoopRate * 0.05 / 2);
    check(max_ms >= 45.0 && p99_ms >= 10.0 && m.run.backlog_peak >= min_backlog &&
              m.run.wrong == 0,
          "farm pause reaches the open-loop tail and backlog",
          "max " + Fixed(max_ms, 1) + " ms, p99 " + Fixed(p99_ms, 1) + " ms, backlog peak " +
              std::to_string(m.run.backlog_peak) + " >= " + std::to_string(min_backlog));
  }

  // 2. Injected faults on one backend surface as failed ops, and the run ends.
  const std::pair<const char*, flick::ConnFaultSpec> faults[] = {
      {"RST", [] {
         flick::ConnFaultSpec f;
         f.rst_after_rx_bytes = 56 * 50;
         return f;
       }()},
      {"corruption", [] {
         flick::ConnFaultSpec f;
         f.corrupt_rx_at_byte = 56 * 40 + 30;  // inside a value
         return f;
       }()},
  };
  for (const auto& [label, spec] : faults) {
    FabricHook hook = [spec = spec](flick::SimNetwork& net, const std::vector<uint16_t>& ports) {
      flick::FaultPlan plan;
      plan.conn_faults = {spec};
      net.InjectFaults(ports[0], plan);
    };
    if (auto rig = build(Kind::kDslGet, hook)) {
      const uint64_t t0 = Now();
      Measurement m = Measure(*rig, 1'000'000'000, RunControl{});
      const double took_s = static_cast<double>(Now() - t0) * 1e-9;
      const double error_frac =
          Ratio(static_cast<double>(m.run.failed()), static_cast<double>(m.run.attempted));
      check(error_frac > 0 && took_s < 5.0,
            std::string(label) + " on one backend gives error_frac > 0 and the run ends",
            "error_frac " + Fixed(error_frac, 5) + " (wrong " + std::to_string(m.run.wrong) +
                ", errors " + std::to_string(m.run.errors) + ", abandoned " +
                std::to_string(m.run.abandoned) + "), " + Fixed(took_s, 2) + " s");
    }
  }

  // 3-5. Role CPU reconciles with getrusage, spans join in order with the
  //      right key, and the thread/connection budget holds live.
  for (Kind kind : {Kind::kCacheMix, Kind::kHttpChurn}) {
    if (auto rig = build(kind, {})) {
      RunControl ctl;
      ctl.trace = true;
      ctl.trace_slice_ns = 100'000'000;
      Measurement m = Measure(*rig, 1'000'000'000, ctl);
      rig->farm->Stop();
      SpanStats s = JoinSpans(kind, m.run, rig->farm->stamps());
      const char* name = kind == Kind::kCacheMix ? "mc_cache_mix" : "http_lb_churn";
      check(std::fabs(m.cpu_unaccounted_frac) <= kCpuTolerance,
            std::string(name) + ": role CPU reconciles with getrusage",
            "unaccounted " + Fixed(m.cpu_unaccounted_frac * 100, 2) + "%");
      check(s.bad == 0 && s.joined > 100,
            std::string(name) + ": spans join in order with the right key",
            std::to_string(s.joined) + " joined, " + std::to_string(s.bad) + " bad, " +
                std::to_string(s.unjoined) + " unjoined");
      check(m.budget_problems.empty() && m.live.threads() == 5 &&
                m.fds_live == m.fds_before,
            std::string(name) + ": thread and connection budget holds while live",
            "threads " + std::to_string(m.live.threads()) + ", conns peak " +
                std::to_string(m.run.max_open_conns) + ", fds " +
                std::to_string(m.fds_before) + " -> " + std::to_string(m.fds_live) + " " +
                m.budget_problems);
    }
  }

  // 6. Known program defect (METHODOLOGY.md, Findings 1): a cold caching
  //    proxy with thousands of GETKs in flight at once leaves replies
  //    unanswered. They are reported, not failed, until the program is
  //    fixed; then kWarmWindow can go. Wrong or stale replies fail.
  uint64_t requests = 0;
  uint64_t unanswered = 0;
  uint64_t incorrect = 0;
  uint64_t forwarded = 0;
  uint64_t routed = 0;
  int hit_bursts = 0;
  const uint64_t t0 = Now();
  for (int i = 0; i < kDefectBursts; ++i) {
    std::string error;
    auto rig = BuildRig(Kind::kCacheMix, /*seed=*/100 + i, {}, /*warm_cache=*/false, &error);
    if (!rig) {
      check(false, "set-up", error);
      break;
    }
    std::vector<uint32_t> keys;
    for (int round = 0; round < kDefectRounds; ++round) {
      for (uint32_t k = 0; k < kCacheKeySpace; ++k) {
        keys.push_back(k);
      }
    }
    const RunResult r =
        static_cast<McLoad&>(*rig->load).Burst(keys, kMcGetK, kDefectTimeoutNs);
    requests += r.attempted;
    unanswered += r.abandoned;
    incorrect += r.wrong + r.stale;
    hit_bursts += r.abandoned > 0 ? 1 : 0;
    const sv::BackendPoolStats pool = rig->pool->stats();
    forwarded += pool.requests_forwarded;
    routed += pool.responses_routed;
  }
  const std::string detail =
      std::to_string(hit_bursts) + " of " + std::to_string(kDefectBursts) +
      " bursts left replies unanswered after " +
      std::to_string(kDefectTimeoutNs / 1'000'000) + " ms; " + std::to_string(unanswered) +
      " of " + std::to_string(requests) + " requests (pool forwarded " +
      std::to_string(forwarded) + ", routed " + std::to_string(routed) + " responses); " +
      Fixed(static_cast<double>(Now() - t0) * 1e-9, 1) + " s";
  const std::string what = std::to_string(kDefectRounds * kCacheKeySpace) +
                           " GETKs in flight at once on a cold caching proxy";
  check(incorrect == 0, what + " are answered correctly or not at all",
        std::to_string(incorrect) + " wrong or stale");
  std::printf("%s  %s  (%s)\n", unanswered > 0 ? "KNOWN-DEFECT" : "NOT-SEEN", what.c_str(),
              detail.c_str());
  std::fflush(stdout);
  return failures;
}

}  // namespace fb
