#include "harness/probes.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <dirent.h>
#include <fstream>
#include <memory>

#include "buffer/buffer_chain.h"
#include "buffer/buffer_pool.h"
#include "grammar/parser.h"
#include "grammar/serializer.h"
#include "harness/common.h"
#include "lang/compile.h"
#include "lang/lower.h"
#include "proto/http.h"
#include "runtime/channel.h"
#include "runtime/compute_task.h"
#include "runtime/msg.h"
#include "runtime/state_store.h"

namespace fb {
namespace {

// Each micro-timing repeats its pass over the captured input for at least
// this long (and at least kMinPasses times) and reports the median pass.
constexpr uint64_t kProbeBudgetNs = 40'000'000;
constexpr int kMinPasses = 5;

// Median ns per item over repeated passes; `prepare` runs untimed before
// each pass, `pass` returns the items it handled.
template <typename Prepare, typename Pass>
double MedianPassNs(Prepare prepare, Pass pass) {
  std::vector<double> per_item;
  const uint64_t stop = Now() + kProbeBudgetNs;
  while (per_item.size() < kMinPasses || Now() < stop) {
    prepare();
    const uint64_t t0 = Now();
    const size_t items = pass();
    const uint64_t t1 = Now();
    if (items == 0) {
      return 0.0;
    }
    per_item.push_back(static_cast<double>(t1 - t0) / static_cast<double>(items));
  }
  return Median(std::move(per_item));
}

template <typename Pass>
double MedianPassNs(Pass pass) {
  return MedianPassNs([] {}, pass);
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path);
  if (!in) {
    return false;
  }
  std::getline(in, *out);
  return true;
}

}  // namespace

// ------------------------------------------------------------ CPU roles ----

RoleCpu ReadRoleCpu() {
  RoleCpu roles;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) {
    return roles;
  }
  while (dirent* entry = readdir(dir)) {
    if (entry->d_name[0] == '.') {
      continue;
    }
    const std::string base = std::string("/proc/self/task/") + entry->d_name;
    std::string comm;
    std::string schedstat;
    if (!ReadFile(base + "/comm", &comm) || !ReadFile(base + "/schedstat", &schedstat)) {
      continue;  // the thread exited between readdir and the reads
    }
    const uint64_t ns = std::strtoull(schedstat.c_str(), nullptr, 10);
    if (comm.rfind("flick-wrk-", 0) == 0) {
      roles.worker_ns += ns;
      ++roles.workers;
    } else if (comm == "flick-poller") {
      roles.poller_ns += ns;
      ++roles.pollers;
    } else if (comm == "fb-load") {
      roles.load_ns += ns;
      ++roles.loads;
    } else if (comm == "fb-farm") {
      roles.farm_ns += ns;
      ++roles.farms;
    } else {
      roles.other_ns += ns;
      ++roles.others;
    }
  }
  closedir(dir);
  return roles;
}

RoleCpu Delta(const RoleCpu& later, const RoleCpu& earlier) {
  RoleCpu d = later;
  auto sub = [](uint64_t a, uint64_t b) { return a > b ? a - b : 0; };
  d.worker_ns = sub(later.worker_ns, earlier.worker_ns);
  d.poller_ns = sub(later.poller_ns, earlier.poller_ns);
  d.load_ns = sub(later.load_ns, earlier.load_ns);
  d.farm_ns = sub(later.farm_ns, earlier.farm_ns);
  d.other_ns = sub(later.other_ns, earlier.other_ns);
  return d;
}

uint64_t ProcessCpuNs() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto ns = [](const timeval& tv) {
    return static_cast<uint64_t>(tv.tv_sec) * 1'000'000'000 +
           static_cast<uint64_t>(tv.tv_usec) * 1'000;
  };
  return ns(ru.ru_utime) + ns(ru.ru_stime);
}

std::string CheckThreadBudget(const RoleCpu& live) {
  std::string problems;
  auto over = [&](const char* role, int have, int limit) {
    if (have > limit) {
      problems += std::string(role) + "=" + std::to_string(have) + ">" +
                  std::to_string(limit) + " ";
    }
  };
  over("workers", live.workers, 2);
  over("pollers", live.pollers, 1);
  over("load", live.loads, 1);
  over("farm", live.farms, 1);
  over("other", live.others, 0);
  return problems;
}

// -------------------------------------------------------- layer timings ----

double ParseNsPerMsg(const flick::grammar::Unit* unit, const std::string& bytes,
                     std::vector<flick::grammar::Message>* parsed) {
  flick::BufferPool pool(bytes.size() / 2048 + 64, 4096);
  parsed->clear();
  flick::grammar::Message scratch;
  flick::BufferChain chain(&pool);
  bool filled = false;
  auto fill = [&] {
    chain.Clear();
    filled = chain.Append(bytes);
  };
  return MedianPassNs(fill, [&]() -> size_t {
    if (!filled) {
      return 0;
    }
    flick::grammar::UnitParser parser(unit);
    size_t n = 0;
    const bool keep = parsed->empty();
    while (parser.Feed(chain, &scratch) == flick::grammar::ParseStatus::kDone) {
      if (keep) {
        parsed->push_back(scratch);
      }
      ++n;
    }
    return n;
  });
}

double SerializeNsPerMsg(const flick::grammar::Unit* unit,
                         std::vector<flick::grammar::Message>& msgs) {
  if (msgs.empty()) {
    return 0.0;
  }
  flick::grammar::UnitSerializer serializer(unit);
  flick::BufferPool pool(64, 16384);
  return MedianPassNs([&]() -> size_t {
    flick::BufferChain out(&pool);
    for (flick::grammar::Message& m : msgs) {
      if (!serializer.Serialize(m, out).ok()) {
        return 0;
      }
      if (out.readable() > 128 * 1024) {
        out.Clear();
      }
    }
    return msgs.size();
  });
}

double HttpParseNsPerReq(const std::string& bytes) {
  if (bytes.empty()) {
    return 0.0;
  }
  flick::BufferPool pool(bytes.size() / 2048 + 64, 4096);
  flick::proto::HttpMessage msg;
  flick::BufferChain chain(&pool);
  bool filled = false;
  auto fill = [&] {
    chain.Clear();
    filled = chain.Append(bytes);
  };
  return MedianPassNs(fill, [&]() -> size_t {
    if (!filled) {
      return 0;
    }
    flick::proto::HttpParser parser(flick::proto::HttpParser::Mode::kRequest);
    size_t n = 0;
    while (parser.Feed(chain, &msg) == flick::grammar::ParseStatus::kDone) {
      ++n;
    }
    return n;
  });
}

StoreTimes ReplayStateStore(const std::vector<std::pair<uint8_t, uint32_t>>& ops,
                            bool populates) {
  StoreTimes t;
  if (ops.empty()) {
    return t;
  }
  const std::string dict = "bench-cache";
  std::vector<std::string> keys;
  keys.reserve(ops.size());
  for (const auto& op : ops) {
    keys.push_back(KeyName(op.second));
  }
  const std::string value(kValueBytes, 'v');
  flick::runtime::StateStore store;
  if (populates) {
    // Warm, as the look-aside cache is after set-up; a workload that never
    // populates looks up an empty dict, as the program does.
    for (const std::string& k : keys) {
      store.Put(dict, k, value);
    }
  }
  size_t sink = 0;
  t.get_ns = MedianPassNs([&]() -> size_t {
    for (const std::string& k : keys) {
      sink += store.Get(dict, k).has_value() ? 1 : 0;
    }
    return keys.size();
  });
  if (populates) {
    t.put_ns = MedianPassNs([&]() -> size_t {
      for (const std::string& k : keys) {
        sink += store.PutIfFresh(dict, k, value, store.InvalidationEpoch(dict, k)) ? 1 : 0;
      }
      return keys.size();
    });
  }
  static std::atomic<size_t> keep_alive{0};
  keep_alive.fetch_add(sink, std::memory_order_relaxed);
  return t;
}

double CompileMs(const std::string& source) {
  std::vector<double> ms;
  for (int i = 0; i < 7; ++i) {
    const uint64_t t0 = Now();
    auto compiled = flick::lang::CompileSource(source);
    const uint64_t t1 = Now();
    if (!compiled.ok()) {
      return 0.0;
    }
    ms.push_back(static_cast<double>(t1 - t0) / 1e6);
  }
  std::nth_element(ms.begin(), ms.begin() + ms.size() / 2, ms.end());
  return ms[ms.size() / 2];
}

namespace {

double TimeHandler(const flick::runtime::ComputeTask::Handler& handler,
                   std::vector<flick::runtime::Msg>& msgs, size_t outputs) {
  std::vector<std::unique_ptr<flick::runtime::Channel>> channels;
  std::vector<flick::runtime::Channel*> outs;
  for (size_t i = 0; i < outputs; ++i) {
    channels.push_back(std::make_unique<flick::runtime::Channel>(4096));
    outs.push_back(channels.back().get());
  }
  flick::runtime::MsgPool pool(8192);
  flick::runtime::EmitContext emit(&outs, &pool);
  auto drain = [&] {
    for (auto* ch : outs) {
      while (ch->TryPop()) {
      }
    }
  };
  return MedianPassNs([&]() -> size_t {
    size_t n = 0;
    for (flick::runtime::Msg& m : msgs) {
      if (handler(m, 0, emit) != flick::runtime::HandleResult::kConsumed) {
        return 0;
      }
      if (++n % 1024 == 0) {
        drain();
      }
    }
    drain();
    return n;
  });
}

}  // namespace

DispatchTimes DslDispatchNs(const std::string& source, const std::string& proc_name,
                            size_t backends, const std::string& request_bytes) {
  DispatchTimes t;
  auto compiled = flick::lang::CompileSource(source);
  if (!compiled.ok()) {
    return t;
  }
  std::shared_ptr<const flick::lang::CompiledProgram> program = std::move(compiled).value();
  const flick::lang::ProcDecl* proc = program->ast.FindProc(proc_name);
  const flick::grammar::Unit* unit = program->UnitFor("cmd");
  if (proc == nullptr || unit == nullptr) {
    return t;
  }
  // The DslService wiring: input/output 0 is the client, 1..n the backends.
  flick::lang::ProcWiring wiring;
  wiring.endpoints["client"].inputs = {0};
  wiring.endpoints["client"].outputs = {0};
  for (size_t i = 0; i < backends; ++i) {
    wiring.endpoints["backends"].inputs.push_back(1 + i);
    wiring.endpoints["backends"].outputs.push_back(1 + i);
  }
  std::vector<flick::grammar::Message> parsed;
  ParseNsPerMsg(unit, request_bytes, &parsed);
  std::vector<flick::runtime::Msg> msgs(parsed.size());
  for (size_t i = 0; i < parsed.size(); ++i) {
    msgs[i].kind = flick::runtime::Msg::Kind::kGrammar;
    msgs[i].gmsg = parsed[i];
  }
  flick::runtime::StateStore lowered_state;
  std::atomic<uint64_t> lowered{0};
  std::atomic<uint64_t> fallbacks{0};
  t.lowered_ns = TimeHandler(
      flick::lang::MakeLoweredProcHandler(program, proc, wiring, &lowered_state,
                                          proc->name, {&lowered, &fallbacks}),
      msgs, backends + 1);
  flick::runtime::StateStore interp_state;
  t.interp_ns = TimeHandler(
      flick::lang::MakeProcHandler(program, proc, wiring, &interp_state, proc->name), msgs,
      backends + 1);
  return t;
}

}  // namespace fb
