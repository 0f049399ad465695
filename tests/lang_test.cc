// FLICK language tests: lexer, parser, semantic checks (boundedness,
// channel direction, anonymity), unit synthesis from type declarations, and
// interpreted execution of the paper's programs (Listings 1 & 3).
#include <gtest/gtest.h>

#include <atomic>
#include <string>

#include "lang/compile.h"
#include "lang/lexer.h"
#include "lang/lower.h"
#include "lang/parser.h"
#include "lang/sema.h"
#include "services/dsl_service.h"
#include "proto/memcached.h"
#include "runtime/channel.h"
#include "runtime/compute_task.h"
#include "runtime/state_store.h"

namespace flick::lang {
namespace {

// The paper's Listing 1 (§4.1 variant): Memcached proxy.
constexpr const char* kProxySource = R"(
type cmd: record
    opcode : string {size=1}
    keylen : integer {signed=false, size=2}
    key : string {size=keylen}

proc Memcached: (cmd/cmd client, [cmd/cmd] backends)
    backends => client
    client => target_backend(backends)

fun target_backend: ([-/cmd] backends, req:cmd) -> ()
    let target = hash(req.key) mod len(backends)
    req => backends[target]
)";

// The paper's Listing 1 (full §3 version): caching Memcached router.
constexpr const char* kRouterSource = R"(
type cmd: record
    opcode : string {size=1}
    keylen : integer {signed=false, size=2}
    extraslen : integer {signed=false, size=1}
    _ : string {size=3}
    bodylen : integer {signed=false, size=8}
    _ : string {size=12+extraslen}
    key : string {size=keylen}
    _ : string {size=bodylen-extraslen-keylen}

proc memcached: (cmd/cmd client, [cmd/cmd] backends)
    global cache := empty_dict
    backends => update_cache(cache) => client
    client => test_cache(client, backends, cache)

fun update_cache: (cache: ref dict<string*string>, resp: cmd) -> (cmd)
    if resp.opcode = 0x0c:
        cache[resp.key] := resp
    resp

fun test_cache: (-/cmd client, [-/cmd] backends, cache: ref dict<string*string>, req: cmd) -> ()
    if cache[req.key] = None or req.opcode <> 0x0c:
        let target = hash(req.key) mod len(backends)
        req => backends[target]
    else:
        cache[req.key] => client
)";

// Listing 3 (normalised foldt syntax; see DESIGN.md).
constexpr const char* kHadoopSource = R"(
type kv: record
    key : string
    value : string

proc hadoop: ([kv/-] mappers, -/kv reducer)
    foldt on mappers ordering by key combine combine_kv => reducer

fun combine_kv: (e1: kv, e2: kv) -> (kv)
    kv(e1.key, add(e1.value, e2.value))
)";

// ------------------------------------------------------------------- lexer ----

TEST(LexerTest, TokenisesBasics) {
  auto tokens = Lex("let x = 42\n");
  ASSERT_TRUE(tokens.ok());
  ASSERT_GE(tokens->size(), 5u);
  EXPECT_EQ((*tokens)[0].kind, TokenKind::kLet);
  EXPECT_EQ((*tokens)[1].kind, TokenKind::kIdent);
  EXPECT_EQ((*tokens)[1].text, "x");
  EXPECT_EQ((*tokens)[2].kind, TokenKind::kEq);
  EXPECT_EQ((*tokens)[3].kind, TokenKind::kInt);
  EXPECT_EQ((*tokens)[3].int_value, 42u);
}

TEST(LexerTest, HexLiterals) {
  auto tokens = Lex("0x0c\n");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].int_value, 0x0cu);
}

TEST(LexerTest, IndentDedent) {
  auto tokens = Lex("a:\n    b\n    c\nd\n");
  ASSERT_TRUE(tokens.ok());
  int indents = 0, dedents = 0;
  for (const Token& t : *tokens) {
    indents += t.kind == TokenKind::kIndent;
    dedents += t.kind == TokenKind::kDedent;
  }
  EXPECT_EQ(indents, 1);
  EXPECT_EQ(dedents, 1);
}

TEST(LexerTest, TwoCharOperators) {
  auto tokens = Lex("=> := -> <> <= >=\n");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].kind, TokenKind::kSend);
  EXPECT_EQ((*tokens)[1].kind, TokenKind::kAssign);
  EXPECT_EQ((*tokens)[2].kind, TokenKind::kArrow);
  EXPECT_EQ((*tokens)[3].kind, TokenKind::kNeq);
  EXPECT_EQ((*tokens)[4].kind, TokenKind::kLe);
  EXPECT_EQ((*tokens)[5].kind, TokenKind::kGe);
}

TEST(LexerTest, CommentsSkipped) {
  auto tokens = Lex("# full line\nlet x = 1 # trailing\n");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].kind, TokenKind::kLet);
}

TEST(LexerTest, NewlinesInsideParensInsignificant) {
  auto tokens = Lex("fun f: (a: cmd,\n        b: cmd) -> ()\n    a\n");
  ASSERT_TRUE(tokens.ok());
  // Must not emit INDENT inside the parameter list.
  int idx = 0;
  for (const Token& t : *tokens) {
    if (t.kind == TokenKind::kIndent) {
      break;
    }
    ++idx;
  }
  EXPECT_GT(idx, 8);
}

TEST(LexerTest, UnterminatedStringFails) {
  EXPECT_FALSE(Lex("let s = \"oops\n").ok());
}

TEST(LexerTest, InconsistentIndentFails) {
  EXPECT_FALSE(Lex("a:\n        b\n    c\n").ok());
}

// ------------------------------------------------------------------ parser ----

TEST(ParserTest, ParsesProxyProgram) {
  auto program = Parse(kProxySource);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  EXPECT_EQ(program->types.size(), 1u);
  EXPECT_EQ(program->procs.size(), 1u);
  EXPECT_EQ(program->funs.size(), 1u);
  const TypeDecl* cmd = program->FindType("cmd");
  ASSERT_NE(cmd, nullptr);
  EXPECT_EQ(cmd->fields.size(), 3u);
  EXPECT_EQ(cmd->fields[1].name, "keylen");
}

TEST(ParserTest, ParsesRouterProgramWithAnonymousFields) {
  auto program = Parse(kRouterSource);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  const TypeDecl* cmd = program->FindType("cmd");
  ASSERT_NE(cmd, nullptr);
  EXPECT_EQ(cmd->fields.size(), 8u);
  EXPECT_TRUE(cmd->fields[3].name.empty());
  const ProcDecl* proc = program->FindProc("memcached");
  ASSERT_NE(proc, nullptr);
  ASSERT_EQ(proc->params.size(), 2u);
  EXPECT_FALSE(proc->params[0].channel->is_array);
  EXPECT_TRUE(proc->params[1].channel->is_array);
  // Body: global + two pipeline rules.
  ASSERT_EQ(proc->body.size(), 3u);
  EXPECT_EQ(proc->body[0]->kind, StmtKind::kGlobal);
  EXPECT_EQ(proc->body[1]->kind, StmtKind::kSend);
  EXPECT_EQ(proc->body[2]->kind, StmtKind::kSend);
}

TEST(ParserTest, ParsesFoldt) {
  auto program = Parse(kHadoopSource);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  const ProcDecl* proc = program->FindProc("hadoop");
  ASSERT_NE(proc, nullptr);
  ASSERT_EQ(proc->body.size(), 1u);
  const Stmt& foldt = *proc->body[0];
  EXPECT_EQ(foldt.kind, StmtKind::kFoldt);
  EXPECT_EQ(foldt.foldt_channels, "mappers");
  EXPECT_EQ(foldt.foldt_order_field, "key");
  EXPECT_EQ(foldt.foldt_combine_fun, "combine_kv");
}

TEST(ParserTest, ReadOnlyChannelParam) {
  auto program = Parse(
      "fun f: (-/cmd out, req: cmd) -> ()\n"
      "    req => out\n"
      "type cmd: record\n"
      "    key : string {size=2}\n");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  ASSERT_EQ(program->funs.size(), 1u);
  EXPECT_EQ(program->funs[0].params[0].channel->in_type, "-");
  EXPECT_EQ(program->funs[0].params[0].channel->out_type, "cmd");
}

TEST(ParserTest, MissingColonFails) {
  EXPECT_FALSE(Parse("proc P (a/b c)\n    a => c\n").ok());
}

TEST(ParserTest, SendPipelineChain) {
  auto program = Parse(
      "type t: record\n"
      "    k : string {size=1}\n"
      "proc P: (t/t a, t/t b)\n"
      "    a => f(b) => b\n"
      "fun f: (-/t b, x: t) -> (t)\n"
      "    x\n");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  const Stmt& send = *program->FindProc("P")->body[0];
  ASSERT_EQ(send.send_stages.size(), 2u);
  EXPECT_EQ(send.send_stages[0]->kind, ExprKind::kCall);
  EXPECT_EQ(send.send_stages[1]->kind, ExprKind::kVar);
}

// -------------------------------------------------------------------- sema ----

TEST(SemaTest, AcceptsPaperPrograms) {
  for (const char* src : {kProxySource, kRouterSource, kHadoopSource}) {
    auto program = Parse(src);
    ASSERT_TRUE(program.ok()) << program.status().ToString();
    const auto diags = Check(*program);
    EXPECT_TRUE(diags.empty()) << diags.front();
  }
}

TEST(SemaTest, RejectsRecursion) {
  auto program = Parse(
      "type t: record\n"
      "    k : string {size=1}\n"
      "fun f: (x: t) -> (t)\n"
      "    g(x)\n"
      "fun g: (x: t) -> (t)\n"
      "    f(x)\n");
  ASSERT_TRUE(program.ok());
  const auto diags = Check(*program);
  ASSERT_FALSE(diags.empty());
  EXPECT_NE(diags.front().find("recursive"), std::string::npos);
}

TEST(SemaTest, RejectsSelfRecursion) {
  auto program = Parse(
      "type t: record\n"
      "    k : string {size=1}\n"
      "fun f: (x: t) -> (t)\n"
      "    f(x)\n");
  ASSERT_TRUE(program.ok());
  EXPECT_FALSE(Check(*program).empty());
}

TEST(SemaTest, RejectsSendToReadOnlyChannel) {
  auto program = Parse(
      "type t: record\n"
      "    k : string {size=1}\n"
      "fun f: (t/- in_only, x: t) -> ()\n"
      "    x => in_only\n");
  ASSERT_TRUE(program.ok());
  const auto diags = Check(*program);
  ASSERT_FALSE(diags.empty());
  EXPECT_NE(diags.front().find("read-only"), std::string::npos);
}

TEST(SemaTest, RejectsAccessToAnonymousField) {
  auto program = Parse(
      "type t: record\n"
      "    _ : string {size=4}\n"
      "    k : string {size=1}\n"
      "fun f: (x: t) -> (string)\n"
      "    x.hidden\n");
  ASSERT_TRUE(program.ok());
  EXPECT_FALSE(Check(*program).empty());
}

TEST(SemaTest, RejectsUnknownFunction) {
  auto program = Parse(
      "type t: record\n"
      "    k : string {size=1}\n"
      "fun f: (x: t) -> ()\n"
      "    ghost(x)\n");
  ASSERT_TRUE(program.ok());
  EXPECT_FALSE(Check(*program).empty());
}

TEST(SemaTest, RejectsWrongArity) {
  auto program = Parse(
      "type t: record\n"
      "    k : string {size=1}\n"
      "fun g: (x: t) -> (t)\n"
      "    x\n"
      "fun f: (x: t) -> ()\n"
      "    g(x, x)\n");
  ASSERT_TRUE(program.ok());
  EXPECT_FALSE(Check(*program).empty());
}

TEST(SemaTest, RejectsSizeReferencingLaterField) {
  auto program = Parse(
      "type t: record\n"
      "    key : string {size=keylen}\n"
      "    keylen : integer {size=2}\n");
  ASSERT_TRUE(program.ok());
  EXPECT_FALSE(Check(*program).empty());
}

TEST(SemaTest, RejectsAssignToNonDict) {
  auto program = Parse(
      "type t: record\n"
      "    k : string {size=1}\n"
      "fun f: (x: t, y: t) -> ()\n"
      "    x[0] := y\n");
  ASSERT_TRUE(program.ok());
  EXPECT_FALSE(Check(*program).empty());
}

TEST(SemaTest, RejectsNonChannelProcParam) {
  auto program = Parse(
      "type t: record\n"
      "    k : string {size=1}\n"
      "proc P: (x: t)\n"
      "    x => x\n");
  ASSERT_TRUE(program.ok());
  EXPECT_FALSE(Check(*program).empty());
}

// ------------------------------------------------------------ unit synthesis ----

TEST(CompileTest, SynthesizesListing1Unit) {
  auto compiled = CompileSource(kRouterSource);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  const grammar::Unit* unit = (*compiled)->UnitFor("cmd");
  ASSERT_NE(unit, nullptr);
  // opcode(1) + keylen(2) + extraslen(1) + anon(3) + bodylen(8) = fixed prefix 15.
  EXPECT_EQ(unit->fixed_prefix_size(), 15u);
  EXPECT_GE(unit->FieldIndex("key"), 0);
  EXPECT_EQ(unit->FieldIndex("_"), -1);
}

TEST(CompileTest, AutoFramesUnsizedStrings) {
  auto compiled = CompileSource(kHadoopSource);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  const grammar::Unit* unit = (*compiled)->UnitFor("kv");
  ASSERT_NE(unit, nullptr);
  // key/value each get a synthesized 4-byte length field.
  EXPECT_EQ(unit->fields().size(), 4u);
  EXPECT_GE(unit->FieldIndex("__len_key"), 0);
  EXPECT_GE(unit->FieldIndex("__len_value"), 0);
}

TEST(CompileTest, RoundTripThroughSynthesizedUnit) {
  auto compiled = CompileSource(kProxySource);
  ASSERT_TRUE(compiled.ok());
  const grammar::Unit* unit = (*compiled)->UnitFor("cmd");
  ASSERT_NE(unit, nullptr);

  grammar::Message msg;
  msg.BindUnit(unit);
  msg.SetBytes("opcode", std::string(1, '\x0c'));
  msg.SetBytes("key", "roundtrip");

  BufferPool pool(16, 256);
  BufferChain wire(&pool);
  grammar::UnitSerializer serializer(unit);
  ASSERT_TRUE(serializer.Serialize(msg, wire).ok());

  grammar::UnitParser parser(unit);
  grammar::Message parsed;
  ASSERT_EQ(parser.Feed(wire, &parsed), grammar::ParseStatus::kDone);
  EXPECT_EQ(parsed.GetBytes("key"), "roundtrip");
  EXPECT_EQ(parsed.GetUInt("keylen"), 9u);
}

// --------------------------------------------------- interpreted execution ----

// Harness: run a compiled proc handler over in-memory channels.
class DslExecTest : public ::testing::Test {
 protected:
  // Builds the handler for `proc_name` with `n_backends` backend channels.
  // `lowered` swaps the interpreter for the lowering pass's handler (with
  // dispatch counters); `with_state` = false exercises the null-StateStore
  // demotion path. Callable repeatedly (interp-vs-lowered parity tests).
  void Setup(const char* source, const std::string& proc_name, size_t n_backends,
             bool lowered = false, bool with_state = true) {
    auto compiled = CompileSource(source);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    program_ = std::move(compiled).value();
    proc_ = program_->ast.FindProc(proc_name);
    ASSERT_NE(proc_, nullptr);

    // Wiring: input 0 = client, inputs 1..n = backends;
    //         output 0 = client, outputs 1..n = backends.
    ProcWiring wiring;
    wiring.endpoints["client"].inputs = {0};
    wiring.endpoints["client"].outputs = {0};
    for (size_t b = 0; b < n_backends; ++b) {
      wiring.endpoints["backends"].inputs.push_back(1 + b);
      wiring.endpoints["backends"].outputs.push_back(1 + b);
    }

    runtime::StateStore* state = with_state ? &state_ : nullptr;
    if (lowered) {
      handler_ = MakeLoweredProcHandler(program_, proc_, wiring, state, proc_name,
                                        {&lowered_msgs_, &interp_fallbacks_});
    } else {
      handler_ = MakeProcHandler(program_, proc_, wiring, state, proc_name);
    }

    outputs_.clear();
    backend_outs_.clear();
    client_out_ = std::make_unique<runtime::Channel>(64);
    outputs_.push_back(client_out_.get());
    for (size_t b = 0; b < n_backends; ++b) {
      backend_outs_.push_back(std::make_unique<runtime::Channel>(64));
      outputs_.push_back(backend_outs_.back().get());
    }
  }

  // Parses `wire` with the compiled cmd unit into a runtime Msg.
  runtime::MsgRef ParseCmd(const std::string& wire) {
    runtime::MsgRef msg = msgs_.Acquire();
    BufferPool pool(16, 4096);
    BufferChain chain(&pool);
    FLICK_CHECK(chain.Append(wire));
    grammar::UnitParser parser(program_->UnitFor("cmd"));
    FLICK_CHECK(parser.Feed(chain, &msg->gmsg) == grammar::ParseStatus::kDone);
    msg->kind = runtime::Msg::Kind::kGrammar;
    return msg;
  }

  // Runs the handler for a message arriving on `input_index`.
  runtime::HandleResult Deliver(const runtime::MsgRef& msg, size_t input_index) {
    runtime::EmitContext emit(&outputs_, &msgs_);
    return handler_(*msg, input_index, emit);
  }

  std::shared_ptr<CompiledProgram> program_;
  const ProcDecl* proc_ = nullptr;
  runtime::ComputeTask::Handler handler_;
  runtime::StateStore state_;
  runtime::MsgPool msgs_{256};
  std::unique_ptr<runtime::Channel> client_out_;
  std::vector<std::unique_ptr<runtime::Channel>> backend_outs_;
  std::vector<runtime::Channel*> outputs_;
  std::atomic<uint64_t> lowered_msgs_{0};
  std::atomic<uint64_t> interp_fallbacks_{0};
};

// Wire encoding for the proxy's 3-field cmd: opcode(1) keylen(2) key.
std::string ProxyCmdWire(uint8_t opcode, const std::string& key) {
  std::string wire;
  wire.push_back(static_cast<char>(opcode));
  wire.push_back(static_cast<char>(key.size() >> 8));
  wire.push_back(static_cast<char>(key.size() & 0xff));
  wire += key;
  return wire;
}

TEST_F(DslExecTest, ProxyRoutesByKeyHash) {
  Setup(kProxySource, "Memcached", 4);
  // Requests with different keys must be distributed across backends.
  std::set<size_t> used_backends;
  for (int i = 0; i < 32; ++i) {
    runtime::MsgRef req = ParseCmd(ProxyCmdWire(0x00, "key-" + std::to_string(i)));
    ASSERT_EQ(Deliver(std::move(req), /*input=*/0), runtime::HandleResult::kConsumed);
    for (size_t b = 0; b < backend_outs_.size(); ++b) {
      if (runtime::MsgRef out = backend_outs_[b]->TryPop()) {
        used_backends.insert(b);
        EXPECT_EQ(out->kind, runtime::Msg::Kind::kGrammar);
      }
    }
  }
  EXPECT_GE(used_backends.size(), 2u) << "hash routing must spread keys";
}

TEST_F(DslExecTest, ProxySameKeySameBackend) {
  Setup(kProxySource, "Memcached", 4);
  int first_backend = -1;
  for (int round = 0; round < 3; ++round) {
    runtime::MsgRef req = ParseCmd(ProxyCmdWire(0x00, "stable-key"));
    ASSERT_EQ(Deliver(std::move(req), 0), runtime::HandleResult::kConsumed);
    int got = -1;
    for (size_t b = 0; b < backend_outs_.size(); ++b) {
      if (runtime::MsgRef out = backend_outs_[b]->TryPop()) {
        got = static_cast<int>(b);
      }
    }
    ASSERT_GE(got, 0);
    if (first_backend < 0) {
      first_backend = got;
    }
    EXPECT_EQ(got, first_backend) << "same key must hash to the same backend";
  }
}

TEST_F(DslExecTest, ProxyForwardsBackendResponsesToClient) {
  Setup(kProxySource, "Memcached", 2);
  runtime::MsgRef resp = ParseCmd(ProxyCmdWire(0x00, "resp-key"));
  ASSERT_EQ(Deliver(std::move(resp), /*input=*/1), runtime::HandleResult::kConsumed);
  runtime::MsgRef out = client_out_->TryPop();
  ASSERT_TRUE(out);
  EXPECT_EQ(out->kind, runtime::Msg::Kind::kGrammar);
}

// Wire encoding for the router's full cmd (Listing 1).
std::string RouterCmdWire(uint8_t opcode, const std::string& key, const std::string& body) {
  std::string wire;
  wire.push_back(static_cast<char>(opcode));
  const size_t keylen = key.size();
  wire.push_back(static_cast<char>(keylen >> 8));
  wire.push_back(static_cast<char>(keylen & 0xff));
  wire.push_back(0);                  // extraslen
  wire.append(3, '\0');               // anon
  const uint64_t bodylen = keylen + body.size();
  for (int i = 7; i >= 0; --i) {
    wire.push_back(static_cast<char>((bodylen >> (8 * i)) & 0xff));
  }
  wire.append(12, '\0');              // anon (12 + extraslen(0))
  wire += key;
  wire += body;
  return wire;
}

TEST_F(DslExecTest, RouterCachesGetkResponses) {
  Setup(kRouterSource, "memcached", 2);
  // A GETK response (opcode 0x0c) from a backend must be cached and forwarded.
  runtime::MsgRef resp = ParseCmd(RouterCmdWire(0x0c, "hot-key", "value!"));
  ASSERT_EQ(Deliver(std::move(resp), /*input=*/1), runtime::HandleResult::kConsumed);
  EXPECT_TRUE(client_out_->TryPop());
  EXPECT_TRUE(state_.Get("memcached.cache", "hot-key").has_value());

  // A GETK request for the cached key must be served from the cache...
  runtime::MsgRef req = ParseCmd(RouterCmdWire(0x0c, "hot-key", ""));
  ASSERT_EQ(Deliver(std::move(req), /*input=*/0), runtime::HandleResult::kConsumed);
  runtime::MsgRef cached = client_out_->TryPop();
  ASSERT_TRUE(cached);
  EXPECT_EQ(cached->kind, runtime::Msg::Kind::kBytes);
  EXPECT_FALSE(backend_outs_[0]->TryPop());
  EXPECT_FALSE(backend_outs_[1]->TryPop());
}

TEST_F(DslExecTest, RouterForwardsCacheMissToBackend) {
  Setup(kRouterSource, "memcached", 2);
  runtime::MsgRef req = ParseCmd(RouterCmdWire(0x0c, "cold-key", ""));
  ASSERT_EQ(Deliver(std::move(req), 0), runtime::HandleResult::kConsumed);
  EXPECT_FALSE(client_out_->TryPop());
  const bool to_backend = backend_outs_[0]->TryPop() || backend_outs_[1]->TryPop();
  EXPECT_TRUE(to_backend);
}

TEST_F(DslExecTest, RouterNonGetkNeverCached) {
  Setup(kRouterSource, "memcached", 2);
  runtime::MsgRef resp = ParseCmd(RouterCmdWire(0x00, "plain-key", "v"));
  ASSERT_EQ(Deliver(std::move(resp), 1), runtime::HandleResult::kConsumed);
  EXPECT_TRUE(client_out_->TryPop());
  EXPECT_FALSE(state_.Get("memcached.cache", "plain-key").has_value());

  // Requests with non-GETK opcodes bypass the cache even if a key matches.
  state_.Put("memcached.cache", "plain-key", "stale");
  runtime::MsgRef req = ParseCmd(RouterCmdWire(0x00, "plain-key", ""));
  ASSERT_EQ(Deliver(std::move(req), 0), runtime::HandleResult::kConsumed);
  EXPECT_FALSE(client_out_->TryPop());
  EXPECT_TRUE(backend_outs_[0]->TryPop() || backend_outs_[1]->TryPop());
}

TEST_F(DslExecTest, EofFansOutToAllOutputs) {
  Setup(kProxySource, "Memcached", 2);
  runtime::MsgRef eof = msgs_.Acquire();
  eof->kind = runtime::Msg::Kind::kEof;
  ASSERT_EQ(Deliver(std::move(eof), 0), runtime::HandleResult::kConsumed);
  runtime::MsgRef c = client_out_->TryPop();
  ASSERT_TRUE(c);
  EXPECT_EQ(c->kind, runtime::Msg::Kind::kEof);
  for (auto& b : backend_outs_) {
    runtime::MsgRef m = b->TryPop();
    ASSERT_TRUE(m);
    EXPECT_EQ(m->kind, runtime::Msg::Kind::kEof);
  }
}

// ------------------------------------------------------------ lowering pass ----

TEST(LoweringTest, RouterRulesLowerToCacheShapes) {
  auto compiled = CompileSource(kRouterSource);
  ASSERT_TRUE(compiled.ok());
  const ProcDecl* proc = (*compiled)->ast.FindProc("memcached");
  ASSERT_NE(proc, nullptr);
  ProcWiring wiring;
  wiring.endpoints["client"].inputs = {0};
  wiring.endpoints["client"].outputs = {0};
  wiring.endpoints["backends"].inputs = {1, 2};
  wiring.endpoints["backends"].outputs = {1, 2};

  const ProcPlan plan = AnalyzeProc(**compiled, *proc, wiring);
  ASSERT_EQ(plan.rules.size(), 3u);
  EXPECT_TRUE(plan.fully_lowered());
  ASSERT_TRUE(plan.rules[0].has_value());
  EXPECT_EQ(plan.rules[0]->shape, RulePlan::Shape::kCacheTestRoute);
  EXPECT_EQ(plan.rules[0]->forward_out, 0);
  EXPECT_EQ(plan.rules[0]->route_outs, (std::vector<int>{1, 2}));
  EXPECT_EQ(plan.rules[0]->dict, "memcached.cache");
  ASSERT_TRUE(plan.rules[1].has_value());
  EXPECT_EQ(plan.rules[1]->shape, RulePlan::Shape::kCacheUpdateForward);
  EXPECT_EQ(plan.rules[1]->forward_out, 0);
  EXPECT_EQ(plan.rules[2]->shape, RulePlan::Shape::kCacheUpdateForward);
}

TEST(LoweringTest, FoldtProcDoesNotLower) {
  auto compiled = CompileSource(kHadoopSource);
  ASSERT_TRUE(compiled.ok());
  const ProcDecl* proc = (*compiled)->ast.FindProc("hadoop");
  ASSERT_NE(proc, nullptr);
  ProcWiring wiring;
  wiring.endpoints["mappers"].inputs = {0, 1};
  wiring.endpoints["reducer"].outputs = {0};

  const ProcPlan plan = AnalyzeProc(**compiled, *proc, wiring);
  EXPECT_FALSE(plan.fully_lowered());
  EXPECT_EQ(plan.lowered_inputs(), 0u);
}

// Interp and lowered handlers must route every key to the same backend (same
// hash mask, same int64 mod) — the ablation is only meaningful if the two
// arms are observationally identical.
TEST_F(DslExecTest, LoweredRoutingMatchesInterp) {
  constexpr int kKeys = 32;
  std::vector<int> interp_choice(kKeys, -1);
  Setup(kRouterSource, "memcached", 4);
  for (int i = 0; i < kKeys; ++i) {
    runtime::MsgRef req = ParseCmd(RouterCmdWire(0x00, "key-" + std::to_string(i), ""));
    ASSERT_EQ(Deliver(std::move(req), 0), runtime::HandleResult::kConsumed);
    for (size_t b = 0; b < backend_outs_.size(); ++b) {
      if (backend_outs_[b]->TryPop()) {
        interp_choice[i] = static_cast<int>(b);
      }
    }
    ASSERT_GE(interp_choice[i], 0);
  }

  Setup(kRouterSource, "memcached", 4, /*lowered=*/true);
  for (int i = 0; i < kKeys; ++i) {
    runtime::MsgRef req = ParseCmd(RouterCmdWire(0x00, "key-" + std::to_string(i), ""));
    ASSERT_EQ(Deliver(std::move(req), 0), runtime::HandleResult::kConsumed);
    int got = -1;
    for (size_t b = 0; b < backend_outs_.size(); ++b) {
      if (backend_outs_[b]->TryPop()) {
        got = static_cast<int>(b);
      }
    }
    EXPECT_EQ(got, interp_choice[i]) << "key-" << i;
  }
  EXPECT_EQ(lowered_msgs_.load(), static_cast<uint64_t>(kKeys));
  EXPECT_EQ(interp_fallbacks_.load(), 0u);
}

TEST_F(DslExecTest, LoweredRouterCachesAndServesHits) {
  Setup(kRouterSource, "memcached", 2, /*lowered=*/true);
  runtime::MsgRef resp = ParseCmd(RouterCmdWire(0x0c, "hot-key", "value!"));
  ASSERT_EQ(Deliver(std::move(resp), /*input=*/1), runtime::HandleResult::kConsumed);
  EXPECT_TRUE(client_out_->TryPop());
  EXPECT_TRUE(state_.Get("memcached.cache", "hot-key").has_value());

  runtime::MsgRef req = ParseCmd(RouterCmdWire(0x0c, "hot-key", ""));
  ASSERT_EQ(Deliver(std::move(req), /*input=*/0), runtime::HandleResult::kConsumed);
  runtime::MsgRef cached = client_out_->TryPop();
  ASSERT_TRUE(cached);
  EXPECT_EQ(cached->kind, runtime::Msg::Kind::kBytes);  // interp-parity hit form
  EXPECT_FALSE(backend_outs_[0]->TryPop());
  EXPECT_FALSE(backend_outs_[1]->TryPop());
  EXPECT_EQ(lowered_msgs_.load(), 2u);
  EXPECT_EQ(interp_fallbacks_.load(), 0u);
}

TEST_F(DslExecTest, NullStateDemotesCachePlansToInterp) {
  Setup(kRouterSource, "memcached", 2, /*lowered=*/true, /*with_state=*/false);
  runtime::MsgRef resp = ParseCmd(RouterCmdWire(0x0c, "some-key", "v"));
  ASSERT_EQ(Deliver(std::move(resp), 1), runtime::HandleResult::kConsumed);
  EXPECT_EQ(lowered_msgs_.load(), 0u);
  EXPECT_EQ(interp_fallbacks_.load(), 1u);
}

TEST_F(DslExecTest, LoweredEofFansOutToAllOutputs) {
  Setup(kRouterSource, "memcached", 2, /*lowered=*/true);
  runtime::MsgRef eof = msgs_.Acquire();
  eof->kind = runtime::Msg::Kind::kEof;
  ASSERT_EQ(Deliver(std::move(eof), 0), runtime::HandleResult::kConsumed);
  runtime::MsgRef c = client_out_->TryPop();
  ASSERT_TRUE(c);
  EXPECT_EQ(c->kind, runtime::Msg::Kind::kEof);
  for (auto& b : backend_outs_) {
    runtime::MsgRef m = b->TryPop();
    ASSERT_TRUE(m);
    EXPECT_EQ(m->kind, runtime::Msg::Kind::kEof);
  }
}

// Fills `ch` until it refuses a push.
void FillChannel(runtime::Channel& ch, runtime::MsgPool& msgs) {
  for (;;) {
    runtime::MsgRef filler = msgs.Acquire();
    filler->kind = runtime::Msg::Kind::kBytes;
    if (!ch.TryPush(std::move(filler))) {
      return;
    }
  }
}

// A dropped EOF leaves the graph unable to retire: with one output full the
// interpreter must block and broadcast to every output on the retry.
TEST_F(DslExecTest, InterpEofBlocksOnFullOutputThenBroadcasts) {
  Setup(kProxySource, "Memcached", 2);
  FillChannel(*backend_outs_[0], msgs_);
  runtime::MsgRef eof = msgs_.Acquire();
  eof->kind = runtime::Msg::Kind::kEof;
  ASSERT_EQ(Deliver(eof, 0), runtime::HandleResult::kBlocked);
  EXPECT_FALSE(client_out_->TryPop()) << "all-or-nothing: no partial broadcast";
  EXPECT_FALSE(backend_outs_[1]->TryPop());

  while (backend_outs_[0]->TryPop()) {
  }
  ASSERT_EQ(Deliver(eof, 0), runtime::HandleResult::kConsumed);
  runtime::MsgRef c = client_out_->TryPop();
  ASSERT_TRUE(c);
  EXPECT_EQ(c->kind, runtime::Msg::Kind::kEof);
  for (auto& b : backend_outs_) {
    runtime::MsgRef m = b->TryPop();
    ASSERT_TRUE(m);
    EXPECT_EQ(m->kind, runtime::Msg::Kind::kEof);
  }
}

// A fallback that blocks once and then consumes is one message, counted once.
TEST_F(DslExecTest, FallbackCountedOncePerConsumedMessage) {
  Setup(kRouterSource, "memcached", 2, /*lowered=*/true, /*with_state=*/false);
  FillChannel(*client_out_, msgs_);
  runtime::MsgRef resp = ParseCmd(RouterCmdWire(0x00, "some-key", "v"));
  ASSERT_EQ(Deliver(resp, /*input=*/1), runtime::HandleResult::kBlocked);
  while (client_out_->TryPop()) {
  }
  ASSERT_EQ(Deliver(resp, /*input=*/1), runtime::HandleResult::kConsumed);
  EXPECT_TRUE(client_out_->TryPop());
  EXPECT_EQ(interp_fallbacks_.load(), 1u);
  EXPECT_EQ(lowered_msgs_.load(), 0u);
}

// A rule that writes a dict and then finds its output full must block with
// no effect and do the write once on the retry, as the lowered plan does.
TEST_F(DslExecTest, InterpBlockedCacheUpdateReplaysWithoutLoss) {
  Setup(kRouterSource, "memcached", 2);
  FillChannel(*client_out_, msgs_);
  runtime::MsgRef resp = ParseCmd(RouterCmdWire(0x0c, "hot-key", "value!"));
  ASSERT_EQ(Deliver(resp, /*input=*/1), runtime::HandleResult::kBlocked);
  EXPECT_FALSE(state_.Get("memcached.cache", "hot-key").has_value());
  while (client_out_->TryPop()) {
  }
  ASSERT_EQ(Deliver(resp, /*input=*/1), runtime::HandleResult::kConsumed);
  runtime::MsgRef out = client_out_->TryPop();
  ASSERT_TRUE(out) << "the reply must reach the client";
  EXPECT_EQ(out->kind, runtime::Msg::Kind::kGrammar);
  EXPECT_TRUE(state_.Get("memcached.cache", "hot-key").has_value());
}

// ------------------------------------------------------------- diagnostics ----
// Compiler errors must surface as clean InvalidArgument statuses with
// "line N:" position info — never a crash, never a silent mis-compile.

TEST(DiagnosticsTest, UnknownFieldInSizeExprHasPosition) {
  auto compiled = CompileSource(
      "type t: record\n"
      "    key : string {size=ghostlen}\n");
  ASSERT_FALSE(compiled.ok());
  EXPECT_EQ(compiled.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(compiled.status().message().find("line 2:"), std::string::npos)
      << compiled.status().ToString();
  EXPECT_NE(compiled.status().message().find("ghostlen"), std::string::npos);
}

TEST(DiagnosticsTest, UndeclaredChannelTypeHasPosition) {
  auto compiled = CompileSource(
      "type t: record\n"
      "    k : string {size=1}\n"
      "proc p: (ghost/ghost client)\n"
      "    client => client\n");
  ASSERT_FALSE(compiled.ok());
  EXPECT_EQ(compiled.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(compiled.status().message().find("line 3:"), std::string::npos)
      << compiled.status().ToString();
  EXPECT_NE(compiled.status().message().find("ghost"), std::string::npos);
}

TEST(DiagnosticsTest, BackendArrayWithoutPortsIsCreateError) {
  auto service = services::DslService::Create(services::kMemcachedRouterSource,
                                              "memcached", {});
  ASSERT_FALSE(service.ok());
  EXPECT_EQ(service.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(service.status().message().find("backend"), std::string::npos)
      << service.status().ToString();
}

// -------------------------------------------------------------- foldt parts ----

TEST(FoldtTest, OrderAndCombineWork) {
  auto compiled = CompileSource(kHadoopSource);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  auto program = std::move(compiled).value();

  auto order = MakeFoldtOrder(program, "kv", "key");
  auto combine = MakeFoldtCombine(program, "combine_kv");

  const grammar::Unit* unit = program->UnitFor("kv");
  runtime::Msg a, b;
  a.gmsg.BindUnit(unit);
  a.gmsg.SetBytes("key", "apple");
  a.gmsg.SetBytes("value", "3");
  b.gmsg.BindUnit(unit);
  b.gmsg.SetBytes("key", "banana");
  b.gmsg.SetBytes("value", "4");

  EXPECT_LT(order(a, b), 0);
  EXPECT_GT(order(b, a), 0);

  runtime::Msg a2;
  a2.gmsg.BindUnit(unit);
  a2.gmsg.SetBytes("key", "apple");
  a2.gmsg.SetBytes("value", "39");
  EXPECT_EQ(order(a, a2), 0);

  combine(a, a2);  // 3 + 39 = 42
  EXPECT_EQ(a.gmsg.GetBytes("key"), "apple");
  EXPECT_EQ(a.gmsg.GetBytes("value"), "42");
}

}  // namespace
}  // namespace flick::lang
