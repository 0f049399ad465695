// Tests for the C++ code-generation pass (extension; paper §5: the FLICK
// compiler emits C++ linked against the platform). The built-in programs'
// generated TUs are compiled into this binary, so the differential tests
// below execute the emitted code against the interpreter and the lowering
// pass.
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "buffer/buffer_chain.h"
#include "buffer/buffer_pool.h"
#include "grammar/parser.h"
#include "grammar/serializer.h"
#include "lang/codegen_cpp.h"
#include "lang/compile.h"
#include "lang/lower.h"
#include "proto/memcached.h"
#include "runtime/channel.h"
#include "runtime/compute_task.h"
#include "runtime/state_store.h"
#include "services/dsl_service.h"

// Defined by the generated TUs (codegen_emit output for the built-in
// programs), which carry no header of their own.
namespace flick::flickgen {
runtime::ComputeTask::Handler Make_memcached_Handler(runtime::StateStore* state,
                                                     size_t backend_count,
                                                     runtime::ComputeTask::Handler fallback);
runtime::ComputeTask::Handler Make_resp_router_Handler(
    runtime::StateStore* state, size_t backend_count, runtime::ComputeTask::Handler fallback);
}  // namespace flick::flickgen

namespace flick::lang {
namespace {

TEST(CodegenTest, EmitsUnitBuilderForTypes) {
  auto compiled = CompileSource(services::kMemcachedRouterSource);
  ASSERT_TRUE(compiled.ok());
  const std::string cpp = GenerateCpp(**compiled);
  EXPECT_NE(cpp.find("Make_cmd_Unit"), std::string::npos);
  EXPECT_NE(cpp.find(".UInt(\"keylen\", 2)"), std::string::npos);
  EXPECT_NE(cpp.find("grammar::LenExpr::Field(\"keylen\")"), std::string::npos);
}

TEST(CodegenTest, EmitsHandlersForProcs) {
  auto compiled = CompileSource(services::kMemcachedRouterSource);
  ASSERT_TRUE(compiled.ok());
  const std::string cpp = GenerateCpp(**compiled);
  EXPECT_NE(cpp.find("Make_memcached_Handler"), std::string::npos);
  EXPECT_NE(cpp.find("runtime::ComputeTask::Handler"), std::string::npos);
}

TEST(CodegenTest, EmitsPlanTableFromLoweringPlans) {
  auto compiled = CompileSource(services::kMemcachedRouterSource);
  ASSERT_TRUE(compiled.ok());
  const std::string cpp = GenerateCpp(**compiled);
  const grammar::Unit* unit = (*compiled)->UnitFor("cmd");
  ASSERT_NE(unit, nullptr);
  // Both rules lower: the client input runs the cache-test/route plan, the
  // backend inputs the cache-update/forward plan, keyed on `key` and
  // compared on `opcode` against GETK (12).
  EXPECT_NE(cpp.find("Shape::kCacheTestRoute"), std::string::npos);
  EXPECT_NE(cpp.find("Shape::kCacheUpdateForward"), std::string::npos);
  EXPECT_NE(cpp.find(".dict = \"memcached.cache\""), std::string::npos);
  EXPECT_NE(cpp.find(".key_field = " + std::to_string(unit->FieldIndex("key")) + ","),
            std::string::npos);
  EXPECT_NE(cpp.find(".cmp_field = " + std::to_string(unit->FieldIndex("opcode")) + ","),
            std::string::npos);
  EXPECT_NE(cpp.find(".cmp_value = 12u"), std::string::npos);
  EXPECT_NE(cpp.find("lang::MakePlanHandler("), std::string::npos);
  // The generated code carries plans, not dispatch logic of its own.
  EXPECT_EQ(cpp.find("#if 0"), std::string::npos);
  EXPECT_EQ(cpp.find("HandleResult::"), std::string::npos);
}

TEST(CodegenTest, EmitsGraphWiringForCanonicalShape) {
  auto compiled = CompileSource(services::kMemcachedRouterSource);
  ASSERT_TRUE(compiled.ok());
  const std::string cpp = GenerateCpp(**compiled);
  EXPECT_NE(cpp.find("Build_memcached_Graph"), std::string::npos);
  EXPECT_NE(cpp.find("FanOutPooled"), std::string::npos);
  EXPECT_NE(cpp.find("GrammarDeserializer"), std::string::npos);
}

TEST(CodegenTest, RespProgramUsesAsciiIntegerFields) {
  auto compiled = CompileSource(services::kRespRouterSource);
  ASSERT_TRUE(compiled.ok());
  const std::string cpp = GenerateCpp(**compiled);
  EXPECT_NE(cpp.find(".AsciiUInt(\"keylen\")"), std::string::npos);
  EXPECT_NE(cpp.find("Make_reply_Unit"), std::string::npos);
  EXPECT_NE(cpp.find("Build_resp_router_Graph"), std::string::npos);
}

TEST(CodegenTest, AutoFramedStringsGetSynthesizedLengths) {
  auto compiled = CompileSource(
      "type kv: record\n"
      "    key : string\n"
      "    value : string\n");
  ASSERT_TRUE(compiled.ok());
  const std::string cpp = GenerateCpp(**compiled);
  EXPECT_NE(cpp.find("__len_key"), std::string::npos);
  EXPECT_NE(cpp.find("__len_value"), std::string::npos);
}

TEST(CodegenTest, FoldtProcHandlerSendsEveryInputToFallback) {
  auto compiled = CompileSource(
      "type kv: record\n"
      "    key : string\n"
      "    value : string\n"
      "proc hadoop: ([kv/-] mappers, -/kv reducer)\n"
      "    foldt on mappers ordering by key combine combine_kv => reducer\n"
      "fun combine_kv: (e1: kv, e2: kv) -> (kv)\n"
      "    kv(e1.key, add(e1.value, e2.value))\n");
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  const std::string cpp = GenerateCpp(**compiled);
  // foldt does not lower: the handler gets an empty plan table, so every
  // input dispatches to `fallback`.
  EXPECT_NE(cpp.find("Make_hadoop_Handler"), std::string::npos);
  EXPECT_EQ(cpp.find("lang::RulePlan{"), std::string::npos);
  EXPECT_NE(cpp.find("return lang::MakePlanHandler(std::move(plan), state, "
                     "std::move(fallback));"),
            std::string::npos);
}

// ------------------------------------------------------ differential runs ----

// One dispatch implementation under test with its own outputs and store.
struct Arm {
  std::string name;
  runtime::StateStore state;
  std::vector<std::unique_ptr<runtime::Channel>> channels;
  std::vector<runtime::Channel*> outputs;
  runtime::ComputeTask::Handler handler;
  std::vector<std::vector<std::string>> transcript;  // per output, in order
};

// Feeds the same message sequence to the interpreter, the lowered handler
// and the generated handler for one proc, wired as DslService wires it
// (input/output 0 = client, 1..n = backends), and records every output.
class Differential {
 public:
  using GeneratedFactory = std::function<runtime::ComputeTask::Handler(
      runtime::StateStore*, size_t, runtime::ComputeTask::Handler)>;

  Differential(const char* source, const std::string& proc_name, size_t backends,
               const GeneratedFactory& generated) {
    auto compiled = CompileSource(source);
    FLICK_CHECK(compiled.ok());
    program_ = std::move(compiled).value();
    const ProcDecl* proc = program_->ast.FindProc(proc_name);
    FLICK_CHECK(proc != nullptr);
    ProcWiring wiring;
    wiring.endpoints["client"].inputs = {0};
    wiring.endpoints["client"].outputs = {0};
    for (size_t b = 0; b < backends; ++b) {
      wiring.endpoints["backends"].inputs.push_back(1 + b);
      wiring.endpoints["backends"].outputs.push_back(1 + b);
    }
    for (const char* name : {"interp", "lowered", "generated"}) {
      auto arm = std::make_unique<Arm>();
      arm->name = name;
      for (size_t o = 0; o <= backends; ++o) {
        arm->channels.push_back(std::make_unique<runtime::Channel>(8));
        arm->outputs.push_back(arm->channels.back().get());
      }
      arm->transcript.resize(backends + 1);
      arms_.push_back(std::move(arm));
    }
    arms_[0]->handler =
        MakeProcHandler(program_, proc, wiring, &arms_[0]->state, proc_name);
    arms_[1]->handler = MakeLoweredProcHandler(program_, proc, wiring, &arms_[1]->state,
                                               proc_name, {&lowered_, &fallbacks_});
    arms_[2]->handler =
        generated(&arms_[2]->state, backends,
                  MakeProcHandler(program_, proc, wiring, &arms_[2]->state, proc_name));
  }

  // Delivers `wire` (parsed with `unit_name`) to every arm on `input`. With
  // `full_outputs`, every output is filled first: all arms must block, then
  // consume the same message once the outputs drain.
  void Deliver(size_t input, const std::string& wire, const std::string& unit_name,
               bool full_outputs) {
    std::vector<runtime::HandleResult> results;
    for (auto& arm : arms_) {
      runtime::MsgRef msg = Parse(wire, unit_name);
      results.push_back(Run(*arm, *msg, input, full_outputs));
    }
    for (size_t a = 1; a < arms_.size(); ++a) {
      EXPECT_EQ(results[a], results[0]) << arms_[a]->name << " on input " << input;
    }
  }

  // EOF from the client, also under full outputs.
  void DeliverEof(bool full_outputs) {
    for (auto& arm : arms_) {
      runtime::MsgRef eof = msgs_.Acquire();
      eof->kind = runtime::Msg::Kind::kEof;
      EXPECT_EQ(Run(*arm, *eof, 0, full_outputs), runtime::HandleResult::kConsumed)
          << arm->name;
    }
  }

  // Every arm must have written identical bytes to each output.
  void ExpectSameOutputs() {
    for (size_t a = 1; a < arms_.size(); ++a) {
      for (size_t o = 0; o < arms_[0]->transcript.size(); ++o) {
        EXPECT_EQ(arms_[a]->transcript[o], arms_[0]->transcript[o])
            << arms_[a]->name << " output " << o;
      }
    }
  }

  // Every arm must hold the same value under each of `keys` in `dict`.
  void ExpectSameState(const std::string& dict, const std::vector<std::string>& keys) {
    for (size_t a = 1; a < arms_.size(); ++a) {
      for (const std::string& key : keys) {
        EXPECT_EQ(arms_[a]->state.Get(dict, key), arms_[0]->state.Get(dict, key))
            << arms_[a]->name << " " << dict << "[" << key << "]";
      }
      EXPECT_EQ(arms_[a]->state.Size(dict), arms_[0]->state.Size(dict)) << arms_[a]->name;
    }
  }

  const std::vector<std::string>& transcript(size_t output) const {
    return arms_[0]->transcript[output];
  }
  uint64_t lowered() const { return lowered_.load(); }
  uint64_t fallbacks() const { return fallbacks_.load(); }

 private:
  runtime::MsgRef Parse(const std::string& wire, const std::string& unit_name) {
    runtime::MsgRef msg = msgs_.Acquire();
    BufferChain chain(&pool_);
    FLICK_CHECK(chain.Append(wire));
    grammar::UnitParser parser(program_->UnitFor(unit_name));
    FLICK_CHECK(parser.Feed(chain, &msg->gmsg) == grammar::ParseStatus::kDone);
    msg->kind = runtime::Msg::Kind::kGrammar;
    return msg;
  }

  runtime::HandleResult Run(Arm& arm, runtime::Msg& msg, size_t input, bool full_outputs) {
    runtime::EmitContext emit(&arm.outputs, &msgs_);
    if (full_outputs) {
      for (runtime::Channel* ch : arm.outputs) {
        for (;;) {
          runtime::MsgRef filler = msgs_.Acquire();
          filler->kind = runtime::Msg::Kind::kBytes;
          if (!ch->TryPush(std::move(filler))) {
            break;
          }
        }
      }
      EXPECT_EQ(arm.handler(msg, input, emit), runtime::HandleResult::kBlocked)
          << arm.name << " on input " << input;
      for (runtime::Channel* ch : arm.outputs) {
        while (ch->TryPop()) {
        }
      }
    }
    const runtime::HandleResult result = arm.handler(msg, input, emit);
    for (size_t o = 0; o < arm.outputs.size(); ++o) {
      while (runtime::MsgRef out = arm.outputs[o]->TryPop()) {
        arm.transcript[o].push_back(Render(*out));
      }
    }
    return result;
  }

  std::string Render(runtime::Msg& msg) {
    switch (msg.kind) {
      case runtime::Msg::Kind::kGrammar: {
        BufferChain chain(&pool_);
        grammar::UnitSerializer serializer(msg.gmsg.unit());
        FLICK_CHECK(serializer.Serialize(msg.gmsg, chain).ok());
        return "grammar:" + chain.ToString();
      }
      case runtime::Msg::Kind::kBytes:
        return "bytes:" + msg.bytes;
      case runtime::Msg::Kind::kEof:
        return "eof";
      default:
        return "other";
    }
  }

  std::shared_ptr<CompiledProgram> program_;
  std::vector<std::unique_ptr<Arm>> arms_;
  runtime::MsgPool msgs_{512};
  BufferPool pool_{64, 4096};
  std::atomic<uint64_t> lowered_{0};
  std::atomic<uint64_t> fallbacks_{0};
};

std::string MemcachedWire(bool response, uint8_t opcode, const std::string& key,
                          const std::string& value) {
  grammar::Message msg;
  if (response) {
    proto::BuildResponse(&msg, opcode, proto::kMemcachedStatusOk, key, value);
  } else {
    proto::BuildRequest(&msg, opcode, key, value);
  }
  return proto::ToWire(msg);
}

class GeneratedHandlerTest : public ::testing::TestWithParam<size_t> {};

// Random keys, GET/GETK/SET/other opcodes, backend replies and full-output
// retries through the Listing-1 caching router.
TEST_P(GeneratedHandlerTest, MemcachedRouterMatchesInterpAndLowered) {
  const size_t backends = GetParam();
  Differential diff(services::kMemcachedRouterSource, "memcached", backends,
                    flickgen::Make_memcached_Handler);
  std::mt19937 rng(static_cast<uint32_t>(1000 + backends));
  std::vector<std::string> keys;
  for (int k = 0; k < 12; ++k) {
    keys.push_back("key-" + std::to_string(k));
  }
  const uint8_t opcodes[] = {proto::kMemcachedGetK, proto::kMemcachedGetK,
                             proto::kMemcachedGet, proto::kMemcachedSet, 0x04};
  constexpr int kSteps = 400;
  for (int step = 0; step < kSteps; ++step) {
    const std::string& key = keys[rng() % keys.size()];
    const uint8_t op = opcodes[rng() % std::size(opcodes)];
    const bool response = rng() % 2 == 0;
    const size_t input = response ? 1 + rng() % backends : 0;
    const std::string value = response ? "v" + std::to_string(rng() % 1000) : "";
    diff.Deliver(input, MemcachedWire(response, op, key, value), "cmd",
                 /*full_outputs=*/step % 25 == 7);
  }
  diff.DeliverEof(/*full_outputs=*/true);
  diff.ExpectSameOutputs();
  diff.ExpectSameState("memcached.cache", keys);
  EXPECT_EQ(diff.lowered(), static_cast<uint64_t>(kSteps));
  EXPECT_EQ(diff.fallbacks(), 0u);
  // The run must reach the cache-hit path, not only routes and forwards.
  size_t hits = 0;
  for (const std::string& out : diff.transcript(0)) {
    hits += out.rfind("bytes:", 0) == 0 ? 1 : 0;
  }
  EXPECT_GT(hits, 0u);
}

std::string RespBulk(const std::string& s) {
  return "$" + std::to_string(s.size()) + "\r\n" + s + "\r\n";
}

// Random GET/SET requests and backend replies through the RESP router
// (kHashRoute + kForward plans, distinct request and reply units).
TEST_P(GeneratedHandlerTest, RespRouterMatchesInterpAndLowered) {
  const size_t backends = GetParam();
  Differential diff(services::kRespRouterSource, "resp_router", backends,
                    flickgen::Make_resp_router_Handler);
  std::mt19937 rng(static_cast<uint32_t>(2000 + backends));
  constexpr int kSteps = 200;
  for (int step = 0; step < kSteps; ++step) {
    const std::string key = "k" + std::to_string(rng() % 64);
    const bool full = step % 25 == 7;
    if (rng() % 2 == 0) {
      const bool set = rng() % 2 == 0;
      const std::string wire = "*3\r\n" + RespBulk(set ? "SET" : "GET") + RespBulk(key) +
                               RespBulk(set ? "v" + std::to_string(step) : "");
      diff.Deliver(0, wire, "req", full);
    } else {
      diff.Deliver(1 + rng() % backends, RespBulk("reply-" + key), "reply", full);
    }
  }
  diff.DeliverEof(/*full_outputs=*/true);
  diff.ExpectSameOutputs();
  EXPECT_EQ(diff.lowered(), static_cast<uint64_t>(kSteps));
  EXPECT_EQ(diff.fallbacks(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Backends, GeneratedHandlerTest, ::testing::Values(1, 2, 4));

// With no backends the client's route has no targets: MakePlanHandler
// demotes the plan and the request goes to the fallback.
TEST(CodegenTest, GeneratedRouteWithNoBackendsUsesFallback) {
  auto compiled = CompileSource(services::kRespRouterSource);
  ASSERT_TRUE(compiled.ok());
  runtime::StateStore state;
  int fallback_calls = 0;
  auto handler = flickgen::Make_resp_router_Handler(
      &state, 0, [&](runtime::Msg&, size_t, runtime::EmitContext&) {
        ++fallback_calls;
        return runtime::HandleResult::kConsumed;
      });

  runtime::MsgPool msgs(8);
  runtime::MsgRef msg = msgs.Acquire();
  BufferPool pool(8, 256);
  BufferChain chain(&pool);
  ASSERT_TRUE(chain.Append("*3\r\n" + RespBulk("GET") + RespBulk("k") + RespBulk("")));
  grammar::UnitParser parser((*compiled)->UnitFor("req"));
  ASSERT_EQ(parser.Feed(chain, &msg->gmsg), grammar::ParseStatus::kDone);
  msg->kind = runtime::Msg::Kind::kGrammar;

  runtime::Channel client(8);
  std::vector<runtime::Channel*> outputs{&client};
  runtime::EmitContext emit(&outputs, &msgs);
  EXPECT_EQ(handler(*msg, 0, emit), runtime::HandleResult::kConsumed);
  EXPECT_EQ(fallback_calls, 1);
}

}  // namespace
}  // namespace flick::lang
