// E11: micro-benchmarks of the platform's primitives, backing the design
// claims of §4.2/§5: generated (projected) parsers vs full parsing, zero-
// allocation buffer pools, lock-free task channels, serialisation cost.
#include <benchmark/benchmark.h>

#include <atomic>
#include <optional>
#include <thread>

#include "buffer/buffer_chain.h"
#include "buffer/buffer_pool.h"
#include "concurrency/spsc_ring.h"
#include "grammar/parser.h"
#include "grammar/serializer.h"
#include "net/sim_transport.h"
#include "proto/hadoop.h"
#include "proto/http.h"
#include "proto/memcached.h"
#include "runtime/msg.h"
#include "runtime/task.h"
#include "runtime/wire_fill.h"

namespace flick::bench {
namespace {

// ------------------------------------------------------- memcached parsing ----

std::string MakeMemcachedWire(size_t value_size) {
  grammar::Message msg;
  proto::BuildResponse(&msg, proto::kMemcachedGetK, 0, "bench-key",
                       std::string(value_size, 'v'), 42);
  return proto::ToWire(msg);
}

void BM_ParseMemcachedFull(benchmark::State& state) {
  const std::string wire = MakeMemcachedWire(static_cast<size_t>(state.range(0)));
  BufferPool pool(64, 64 * 1024);
  grammar::UnitParser parser(&proto::MemcachedUnit());
  grammar::Message msg;
  for (auto _ : state) {
    BufferChain input(&pool);
    input.Append(wire);
    benchmark::DoNotOptimize(parser.Feed(input, &msg));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * wire.size()));
}

// §4.2: the projected unit skips materialising the value payload.
void BM_ParseMemcachedProjected(benchmark::State& state) {
  const std::string wire = MakeMemcachedWire(static_cast<size_t>(state.range(0)));
  BufferPool pool(64, 64 * 1024);
  grammar::UnitParser parser(&proto::MemcachedRoutingUnit());
  grammar::Message msg;
  for (auto _ : state) {
    BufferChain input(&pool);
    input.Append(wire);
    benchmark::DoNotOptimize(parser.Feed(input, &msg));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * wire.size()));
}

BENCHMARK(BM_ParseMemcachedFull)->Arg(64)->Arg(1024)->Arg(16384);
BENCHMARK(BM_ParseMemcachedProjected)->Arg(64)->Arg(1024)->Arg(16384);

void BM_SerializeMemcached(benchmark::State& state) {
  grammar::Message msg;
  proto::BuildResponse(&msg, proto::kMemcachedGetK, 0, "bench-key",
                       std::string(static_cast<size_t>(state.range(0)), 'v'), 42);
  BufferPool pool(64, 64 * 1024);
  grammar::UnitSerializer serializer(&proto::MemcachedUnit());
  for (auto _ : state) {
    BufferChain out(&pool);
    benchmark::DoNotOptimize(serializer.Serialize(msg, out));
  }
  state.SetBytesProcessed(
      static_cast<int64_t>(state.iterations()) *
      static_cast<int64_t>(serializer.WireSize(msg)));
}
BENCHMARK(BM_SerializeMemcached)->Arg(64)->Arg(1024)->Arg(16384);

// ------------------------------------------------------------ HTTP parsing ----

void BM_ParseHttpRequest(benchmark::State& state) {
  proto::HttpMessage req = proto::MakeRequest("GET", "/index.html");
  req.SetHeader("Host", "bench.example.com");
  req.SetHeader("User-Agent", "flick-bench/1.0");
  req.SetHeader("Accept", "*/*");
  std::string wire;
  proto::SerializeRequest(req, &wire);

  BufferPool pool(64, 8192);
  proto::HttpParser parser(proto::HttpParser::Mode::kRequest);
  proto::HttpMessage msg;
  for (auto _ : state) {
    BufferChain input(&pool);
    input.Append(wire);
    benchmark::DoNotOptimize(parser.Feed(input, &msg));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * wire.size()));
}
BENCHMARK(BM_ParseHttpRequest);

// ----------------------------------------------------------- stream parsing ----
//
// Arg = rx buffer bytes. 65536 holds the whole stream in one buffer, so every
// record takes the parser's one-pass path; 8 is smaller than any record, so
// every record straddles buffers and takes the incremental path.

void ParseStream(benchmark::State& state, const grammar::Unit& unit, const std::string& wire,
                 size_t records) {
  const size_t buffer_bytes = static_cast<size_t>(state.range(0));
  BufferPool pool(wire.size() / buffer_bytes + 4, buffer_bytes);
  grammar::UnitParser parser(&unit);
  grammar::Message msg;
  for (auto _ : state) {
    BufferChain input(&pool);
    input.Append(wire);
    while (parser.Feed(input, &msg) == grammar::ParseStatus::kDone) {
      benchmark::DoNotOptimize(msg.nums().data());
    }
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * wire.size()));
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * records));
}

void BM_ParseHadoopStream(benchmark::State& state) {
  std::string wire;
  for (int i = 0; i < 64; ++i) {
    proto::EncodeKv("word-" + std::to_string(i % 10), "1", &wire);
  }
  ParseStream(state, proto::HadoopKvUnit(), wire, 64);
}
BENCHMARK(BM_ParseHadoopStream)->Arg(64 * 1024)->Arg(8);

// RESP bulk strings, `$<len>\r\n<data>\r\n`: an ascii length field.
void BM_ParseRespBulk(benchmark::State& state) {
  static const grammar::Unit* unit = [] {
    auto built = grammar::UnitBuilder("bulk")
                     .Bytes("marker", 1)
                     .AsciiUInt("len")
                     .Bytes("data", grammar::LenExpr::Field("len"))
                     .Bytes("crlf", 2)
                     .Build();
    FLICK_CHECK(built.ok());
    return new grammar::Unit(std::move(built).value());
  }();
  std::string wire;
  for (int i = 0; i < 64; ++i) {
    const std::string data = "value-" + std::to_string(i * 37);
    wire += "$" + std::to_string(data.size()) + "\r\n" + data + "\r\n";
  }
  ParseStream(state, *unit, wire, 64);
}
BENCHMARK(BM_ParseRespBulk)->Arg(64 * 1024)->Arg(8);

// -------------------------------------------------------------- buffer pool ----

void BM_BufferPoolAcquireRelease(benchmark::State& state) {
  BufferPool pool(256, 16 * 1024);
  for (auto _ : state) {
    BufferRef ref = pool.Acquire();
    benchmark::DoNotOptimize(ref.get());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_BufferPoolAcquireRelease);

void BM_BufferChainAppendConsume(benchmark::State& state) {
  BufferPool pool(256, 16 * 1024);
  BufferChain chain(&pool);
  const std::string data(static_cast<size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    chain.Append(data);
    chain.Consume(chain.readable());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * data.size()));
}
BENCHMARK(BM_BufferChainAppendConsume)->Arg(137)->Arg(4096)->Arg(65536);

// ---------------------------------------------------------- write coalescing ----
//
// The batched output path's claim: N small messages coalesced into one
// vectored write cost ONE transport op instead of N. Both variants push the
// same bytes (arg = messages per run slice) through a sim connection under
// the kernel cost model, whose per-op charge dominates at memcached request
// sizes; `writes_issued` makes the syscall-count contrast explicit.

struct CoalescingRig {
  SimNetwork net;
  SimTransport transport{&net, StackCostModel::Kernel()};
  std::unique_ptr<Listener> listener;
  std::unique_ptr<Connection> sender;
  std::unique_ptr<Connection> receiver;
  BufferPool pool{256, 16 * 1024};
  BufferChain tx{&pool};
  std::string wire;  // one serialized memcached GET request

  CoalescingRig() {
    listener = std::move(transport.Listen(9100)).value();
    sender = std::move(transport.Connect(9100)).value();
    receiver = listener->Accept();
    grammar::Message req;
    proto::BuildRequest(&req, proto::kMemcachedGet, "bench-key");
    wire = proto::ToWire(req);
  }

  void FillBatch(size_t msgs) {
    for (size_t i = 0; i < msgs; ++i) {
      tx.Append(wire);
    }
  }

  void DrainReceiver() {
    char buf[16 * 1024];
    while (true) {
      auto got = receiver->Read(buf, sizeof(buf));
      if (!got.ok() || *got == 0) {
        break;
      }
    }
  }
};

void BM_WriteMessagePerSyscall(benchmark::State& state) {
  const size_t msgs = static_cast<size_t>(state.range(0));
  CoalescingRig rig;
  uint64_t writes = 0;
  for (auto _ : state) {
    rig.FillBatch(msgs);
    // One transport write per message: the pre-batching shape.
    size_t sent = 0;
    while (!rig.tx.empty()) {
      const size_t n = rig.wire.size();
      char scratch[512];
      rig.tx.Read(scratch, n);
      size_t off = 0;
      while (off < n) {
        auto wrote = rig.sender->Write(scratch + off, n - off);
        ++writes;
        off += *wrote;
      }
      ++sent;
    }
    benchmark::DoNotOptimize(sent);
    rig.DrainReceiver();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * msgs));
  state.counters["writes_issued"] =
      benchmark::Counter(static_cast<double>(writes), benchmark::Counter::kAvgIterations);
}

void BM_WriteCoalescedWritev(benchmark::State& state) {
  const size_t msgs = static_cast<size_t>(state.range(0));
  CoalescingRig rig;
  uint64_t writes = 0;
  for (auto _ : state) {
    rig.FillBatch(msgs);
    // The batched path: the whole backlog in vectored writes.
    while (!rig.tx.empty()) {
      IoSlice slices[kMaxIoSlices];
      const size_t n = rig.tx.PeekSlices(slices, kMaxIoSlices);
      auto wrote = rig.sender->Writev(slices, n);
      ++writes;
      if (*wrote == 0) {
        rig.DrainReceiver();
        continue;
      }
      rig.tx.Consume(*wrote);
    }
    rig.DrainReceiver();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * msgs));
  state.counters["writes_issued"] =
      benchmark::Counter(static_cast<double>(writes), benchmark::Counter::kAvgIterations);
}

BENCHMARK(BM_WriteMessagePerSyscall)->Arg(1)->Arg(8)->Arg(32)->Arg(128);
BENCHMARK(BM_WriteCoalescedWritev)->Arg(1)->Arg(8)->Arg(32)->Arg(128);

// ------------------------------------------------------------ read coalescing ----
//
// The coalesced ingest path's claim: a stream spanning N rx buffers costs ONE
// scatter read instead of N. Both variants pull the same message stream
// (arg = messages per batch) from a sim connection; the receiving side runs
// the kernel cost model (its per-op charge dominates at memcached request
// sizes) while the sender runs a free stack, so the timer sees the
// receive-side syscall contrast. Small rx buffers make the stream span many
// buffers, the shape a loaded wire has; `reads_issued` makes the contrast
// explicit.

struct FillRig {
  SimNetwork net;
  SimTransport rx_transport{&net, StackCostModel::Kernel()};
  SimTransport tx_transport{&net, StackCostModel::Null()};
  std::unique_ptr<Listener> listener;
  std::unique_ptr<Connection> sender;
  std::unique_ptr<Connection> receiver;
  BufferPool pool{64, 128};  // small rx buffers: the stream spans many
  BufferChain rx{&pool};
  std::string wire;  // one serialized memcached GET request

  FillRig() {
    listener = std::move(rx_transport.Listen(9200)).value();
    sender = std::move(tx_transport.Connect(9200)).value();
    receiver = listener->Accept();
    grammar::Message req;
    proto::BuildRequest(&req, proto::kMemcachedGet, "bench-key");
    wire = proto::ToWire(req);
  }

  size_t SendBatch(size_t msgs) {
    for (size_t i = 0; i < msgs; ++i) {
      size_t off = 0;
      while (off < wire.size()) {
        auto wrote = sender->Write(wire.data() + off, wire.size() - off);
        off += *wrote;
      }
    }
    return wire.size() * msgs;
  }
};

void BM_ReadPerSyscall(benchmark::State& state) {
  const size_t msgs = static_cast<size_t>(state.range(0));
  FillRig rig;
  uint64_t reads = 0;
  for (auto _ : state) {
    const size_t total = rig.SendBatch(msgs);
    // One transport read per rx buffer: the pre-coalescing InputTask shape.
    size_t got_total = 0;
    while (got_total < total) {
      BufferRef buf = rig.pool.Acquire();
      auto got = rig.receiver->Read(buf->write_ptr(), buf->writable());
      ++reads;
      if (*got == 0) {
        continue;
      }
      buf->Produce(*got);
      rig.rx.AppendBuffer(std::move(buf));
      got_total += *got;
    }
    rig.rx.Consume(rig.rx.readable());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * msgs));
  state.counters["reads_issued"] =
      benchmark::Counter(static_cast<double>(reads), benchmark::Counter::kAvgIterations);
}

void BM_ReadScatteredReadv(benchmark::State& state) {
  const size_t msgs = static_cast<size_t>(state.range(0));
  FillRig rig;
  uint64_t reads = 0;
  for (auto _ : state) {
    const size_t total = rig.SendBatch(msgs);
    // The coalesced path: one scatter read fills a whole window of buffers.
    size_t got_total = 0;
    while (got_total < total) {
      MutIoSlice slices[runtime::kDefaultFillWindow];
      const size_t n = rig.rx.ReserveSlices(slices, runtime::kDefaultFillWindow);
      auto got = rig.receiver->Readv(slices, n);
      ++reads;
      rig.rx.CommitFill(*got);
      got_total += *got;
    }
    rig.rx.Consume(rig.rx.readable());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * msgs));
  state.counters["reads_issued"] =
      benchmark::Counter(static_cast<double>(reads), benchmark::Counter::kAvgIterations);
}

BENCHMARK(BM_ReadPerSyscall)->Arg(1)->Arg(8)->Arg(32)->Arg(128);
BENCHMARK(BM_ReadScatteredReadv)->Arg(1)->Arg(8)->Arg(32)->Arg(128);

// ------------------------------------------------------------- task channel ----

void BM_SpscRingPushPop(benchmark::State& state) {
  SpscRing<uint64_t> ring(1024);
  uint64_t v = 0;
  for (auto _ : state) {
    ring.TryPush(v++);
    benchmark::DoNotOptimize(ring.TryPop());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_SpscRingPushPop);

void BM_MsgPoolAcquire(benchmark::State& state) {
  runtime::MsgPool pool(256);
  for (auto _ : state) {
    runtime::MsgRef msg = pool.Acquire();
    benchmark::DoNotOptimize(msg.get());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_MsgPoolAcquire);

// Cross-thread message hand-off, the shape of a task graph whose input task
// acquires on one worker and whose consumer releases on another: a producer
// thread acquires messages and pushes them through an SPSC ring, a consumer
// thread pops and releases them. Time is ns per message. Arg 0 runs plain
// threads, which share the pool's locked free list; arg 1 publishes the two
// threads as scheduler workers 0 and 1, so each end uses its own magazine.
void BM_MsgPoolCrossThread(benchmark::State& state) {
  const bool as_workers = state.range(0) != 0;
  runtime::MsgPool pool(1024);
  SpscRing<runtime::MsgRef> ring(256);
  std::atomic<bool> done{false};
  std::thread consumer([&] {
    std::optional<runtime::ScopedWorkerIndex> identity;
    if (as_workers) {
      identity.emplace(1);
    }
    while (!done.load(std::memory_order_acquire)) {
      ring.TryPop();
    }
    while (ring.TryPop()) {
    }
  });
  {
    std::optional<runtime::ScopedWorkerIndex> identity;
    if (as_workers) {
      identity.emplace(0);
    }
    for (auto _ : state) {
      runtime::MsgRef msg = pool.Acquire();
      while (!ring.TryPush(std::move(msg))) {
      }
    }
  }
  done.store(true, std::memory_order_release);
  consumer.join();
  state.counters["pool_misses"] = static_cast<double>(pool.pool_misses());
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_MsgPoolCrossThread)->Arg(0)->Arg(1)->UseRealTime();

}  // namespace
}  // namespace flick::bench

BENCHMARK_MAIN();
