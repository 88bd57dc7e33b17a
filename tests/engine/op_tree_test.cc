// Tests of the physical operator layer (engine/op/): tree compilation,
// repeated execution of a compiled tree, per-operator stats and metrics,
// operator spans, and the executor guard paths driven through the tree.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "engine/executor.h"
#include "engine/op/compile.h"
#include "engine/op/explain.h"
#include "engine/op/op_metrics.h"
#include "lang/parser.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hermes::engine {
namespace {

class ScriptedDomain : public Domain {
 public:
  explicit ScriptedDomain(std::string name) : name_(std::move(name)) {}

  void Set(const DomainCall& call, AnswerSet answers, double first_ms = 1.0,
           double all_ms = 2.0) {
    scripts_[call.ToString()] = {std::move(answers), first_ms, all_ms};
  }
  int calls() const { return calls_; }

  const std::string& name() const override { return name_; }
  std::vector<FunctionInfo> Functions() const override { return {}; }
  Result<CallOutput> Run(const DomainCall& call) override {
    ++calls_;
    auto it = scripts_.find(call.ToString());
    if (it == scripts_.end()) {
      return Status::NotFound("unscripted: " + call.ToString());
    }
    CallOutput out;
    out.answers = it->second.answers;
    out.first_ms = it->second.first_ms;
    out.all_ms = it->second.all_ms;
    return out;
  }

 private:
  struct Script {
    AnswerSet answers;
    double first_ms;
    double all_ms;
  };
  std::string name_;
  std::map<std::string, Script> scripts_;
  int calls_ = 0;
};

struct Fixture {
  DomainRegistry registry;
  std::shared_ptr<ScriptedDomain> d = std::make_shared<ScriptedDomain>("d");
  lang::Program program;
  lang::Query query;

  Fixture() { (void)registry.Register("d", d); }

  void Parse(const std::string& program_text, const std::string& query_text) {
    Result<lang::Program> p = lang::Parser::ParseProgram(program_text);
    ASSERT_TRUE(p.ok()) << p.status();
    Result<lang::Query> q = lang::Parser::ParseQuery(query_text);
    ASSERT_TRUE(q.ok()) << q.status();
    program = std::move(p).value();
    query = std::move(q).value();
  }
};

DomainCall C(const std::string& fn, ValueList args) {
  return DomainCall{"d", fn, std::move(args)};
}

TEST(OpTreeTest, CompiledTreeShape) {
  Fixture fx;
  fx.Parse("", "?- in(X, d:f()) & X > 1 & in(Y, d:g(X)).");
  op::CompiledQuery cq = op::Compile(fx.program, fx.query);
  ASSERT_NE(cq.root, nullptr);
  ASSERT_NE(cq.sink, nullptr);
  EXPECT_EQ(cq.root->kind(), op::OpKind::kAnswerSink);
  EXPECT_EQ(cq.var_names, (std::vector<std::string>{"X", "Y"}));

  // The EXPLAIN rendering reflects the tree: sink over project over a
  // left-deep join chain in goal order.
  std::string text = op::ExplainTree(*cq.root, {});
  EXPECT_NE(text.find("AnswerSink"), std::string::npos) << text;
  EXPECT_NE(text.find("Project [X, Y]"), std::string::npos) << text;
  EXPECT_NE(text.find("NestedLoopJoin"), std::string::npos) << text;
  EXPECT_NE(text.find("DomainCall"), std::string::npos) << text;
  EXPECT_NE(text.find("Filter"), std::string::npos) << text;
  size_t first_call = text.find("d:f()");
  size_t filter = text.find("Filter");
  size_t second_call = text.find("d:g(");
  ASSERT_NE(first_call, std::string::npos);
  ASSERT_NE(second_call, std::string::npos);
  EXPECT_LT(first_call, filter);
  EXPECT_LT(filter, second_call);
}

TEST(OpTreeTest, EmptyQueryCompilesToUnit) {
  Fixture fx;
  fx.Parse("f('a').", "?- f('a').");
  op::CompiledQuery cq = op::Compile(fx.program, fx.query);
  std::string text = op::ExplainTree(*cq.root, {});
  EXPECT_NE(text.find("RulePredicate"), std::string::npos) << text;
}

TEST(OpTreeTest, ExecuteCompiledIsRepeatable) {
  Fixture fx;
  fx.d->Set(C("f", {}), {Value::Int(1), Value::Int(2)}, 10, 20);
  fx.Parse("", "?- in(X, d:f()).");
  op::CompiledQuery cq = op::Compile(fx.program, fx.query);
  Executor executor(&fx.registry, nullptr, {});
  for (int run = 0; run < 2; ++run) {
    CallContext ctx;
    Result<QueryExecution> exec =
        executor.ExecuteCompiled(fx.program, cq, &ctx);
    ASSERT_TRUE(exec.ok()) << exec.status();
    EXPECT_EQ(exec->answers.size(), 2u);
    EXPECT_DOUBLE_EQ(exec->t_first_ms, 10.0);
    EXPECT_DOUBLE_EQ(exec->t_all_ms, 20.0);
    EXPECT_EQ(exec->domain_calls, 1u);
    EXPECT_TRUE(exec->complete);
  }
  // Per-operator stats accumulate across the two runs of the same tree.
  EXPECT_EQ(cq.root->stats().opens, 2u);
  EXPECT_EQ(cq.root->stats().rows, 4u);
}

TEST(OpTreeTest, PerOperatorMetricsMatchExecution) {
  Fixture fx;
  fx.d->Set(C("outer", {}), {Value::Int(1), Value::Int(2)}, 1, 2);
  fx.d->Set(C("inner", {Value::Int(1)}), {Value::Str("a")}, 1, 1);
  fx.d->Set(C("inner", {Value::Int(2)}), {Value::Str("b")}, 1, 1);
  fx.Parse("", "?- in(X, d:outer()) & in(Y, d:inner(X)).");

  obs::MetricsRegistry registry;
  ExecutorOptions options;
  options.op_metrics = op::ExecOpMetrics::Bind(registry);
  Executor executor(&fx.registry, nullptr, options);
  Result<QueryExecution> exec = executor.Execute(fx.program, fx.query);
  ASSERT_TRUE(exec.ok()) << exec.status();
  EXPECT_EQ(exec->answers.size(), 2u);

  // One Open of the outer call op + one per outer tuple for the inner:
  // opens{op=domain_call} = 3 = the query's domain-call count.
  EXPECT_EQ(options.op_metrics->domain_call.opens->Value(), 3u);
  EXPECT_EQ(exec->domain_calls, 3u);
  // The join produced both answers; the sink consumed them.
  EXPECT_EQ(options.op_metrics->answer_sink.rows->Value(), 2u);
  EXPECT_EQ(options.op_metrics->nested_loop_join.rows->Value(), 2u);
}

TEST(OpTreeTest, OperatorSpansGatedByOption) {
  Fixture fx;
  fx.d->Set(C("f", {}), {Value::Int(1)}, 1, 2);
  fx.Parse("", "?- in(X, d:f()).");

  auto count_operator_spans = [](const obs::Tracer& tracer) {
    size_t n = 0;
    for (const obs::Span& span : tracer.spans()) {
      if (span.category == "operator") ++n;
    }
    return n;
  };

  {
    obs::Tracer tracer;
    obs::EventSinks sinks{&tracer};
    CallContext ctx;
    ctx.sinks = &sinks;
    Executor executor(&fx.registry, nullptr, {});
    ASSERT_TRUE(executor.Execute(fx.program, fx.query, &ctx).ok());
    EXPECT_EQ(count_operator_spans(tracer), 0u);  // default: walker shape
  }
  {
    obs::Tracer tracer;
    obs::EventSinks sinks{&tracer};
    CallContext ctx;
    ctx.sinks = &sinks;
    ExecutorOptions options;
    options.trace_operators = true;
    Executor executor(&fx.registry, nullptr, options);
    ASSERT_TRUE(executor.Execute(fx.program, fx.query, &ctx).ok());
    // Sink, project, domain call — every operator of the tree.
    EXPECT_EQ(count_operator_spans(tracer), 3u);
    for (const obs::Span& span : tracer.spans()) {
      if (span.category == "operator") {
        EXPECT_TRUE(span.closed);
      }
    }
  }
}

TEST(OpTreeTest, RecursionDepthGuardAtOpen) {
  Fixture fx;
  fx.Parse("p(X) :- p(X).", "?- p(1).");
  ExecutorOptions options;
  options.max_recursion_depth = 8;
  Executor executor(&fx.registry, nullptr, options);
  Result<QueryExecution> exec = executor.Execute(fx.program, fx.query);
  ASSERT_FALSE(exec.ok());
  EXPECT_NE(exec.status().ToString().find("recursion depth limit reached"),
            std::string::npos)
      << exec.status();
}

TEST(OpTreeTest, DomainCallBudgetStopsMidPipeline) {
  // outer delivers 3 tuples; each probes inner. Budget of 2 admits the
  // outer call and the first inner probe, then fails the second inner call
  // while the join is mid-flight.
  Fixture fx;
  fx.d->Set(C("outer", {}),
            {Value::Int(1), Value::Int(2), Value::Int(3)}, 1, 3);
  for (int i = 1; i <= 3; ++i) {
    fx.d->Set(C("inner", {Value::Int(i)}), {Value::Str("x")}, 1, 1);
  }
  fx.Parse("", "?- in(X, d:outer()) & in(Y, d:inner(X)).");
  ExecutorOptions options;
  options.max_domain_calls = 2;
  Executor executor(&fx.registry, nullptr, options);
  Result<QueryExecution> exec = executor.Execute(fx.program, fx.query);
  ASSERT_FALSE(exec.ok());
  EXPECT_NE(exec.status().ToString().find("budget exhausted"),
            std::string::npos)
      << exec.status();
  EXPECT_EQ(fx.d->calls(), 2);
}

TEST(OpTreeTest, InteractiveBatchResumesAcrossRuns) {
  Fixture fx;
  AnswerSet many;
  for (int i = 0; i < 10; ++i) many.push_back(Value::Int(i));
  fx.d->Set(C("big", {}), many, 1, 10);
  fx.Parse("", "?- in(X, d:big()).");

  ExecutorOptions options;
  options.mode = ExecutionMode::kInteractive;
  options.interactive_batch = 3;
  Executor executor(&fx.registry, nullptr, options);
  op::CompiledQuery cq = op::Compile(fx.program, fx.query);

  CallContext ctx;
  Result<QueryExecution> exec = executor.ExecuteCompiled(fx.program, cq, &ctx);
  ASSERT_TRUE(exec.ok()) << exec.status();
  EXPECT_EQ(exec->answers.size(), 3u);
  EXPECT_FALSE(exec->complete);

  // Re-running the same compiled tree restarts the batch (the paper's UI
  // re-queries); the tree resets cleanly and returns the batch again.
  CallContext ctx2;
  Result<QueryExecution> again =
      executor.ExecuteCompiled(fx.program, cq, &ctx2);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(again->answers.size(), 3u);
  EXPECT_FALSE(again->complete);
}

TEST(OpTreeTest, InteractiveStopIssuesNoFurtherCalls) {
  // Once the sink stops pulling, no downstream domain call is issued: the
  // first outer tuple satisfies the batch, so inner runs exactly once.
  Fixture fx;
  fx.d->Set(C("outer", {}),
            {Value::Int(1), Value::Int(2), Value::Int(3)}, 1, 3);
  for (int i = 1; i <= 3; ++i) {
    fx.d->Set(C("inner", {Value::Int(i)}), {Value::Str("x")}, 1, 1);
  }
  fx.Parse("", "?- in(X, d:outer()) & in(Y, d:inner(X)).");
  ExecutorOptions options;
  options.mode = ExecutionMode::kInteractive;
  options.interactive_batch = 1;
  Executor executor(&fx.registry, nullptr, options);
  Result<QueryExecution> exec = executor.Execute(fx.program, fx.query);
  ASSERT_TRUE(exec.ok());
  EXPECT_EQ(exec->answers.size(), 1u);
  EXPECT_EQ(fx.d->calls(), 2);  // outer + one inner probe
}

TEST(OpTreeTest, RuleStatsVisibleInExplainActuals) {
  Fixture fx;
  fx.d->Set(C("f", {}), {Value::Int(1), Value::Int(2)}, 1, 2);
  fx.Parse("p(X) :- in(X, d:f()).", "?- p(X).");
  op::CompiledQuery cq = op::Compile(fx.program, fx.query);
  Executor executor(&fx.registry, nullptr, {});
  CallContext ctx;
  ASSERT_TRUE(executor.ExecuteCompiled(fx.program, cq, &ctx).ok());

  std::string text = op::ExplainTree(*cq.root, /*actuals=*/true);
  EXPECT_NE(text.find("rule:"), std::string::npos) << text;
  EXPECT_NE(text.find("(actual: opens=1 rows=2"), std::string::npos) << text;
}

}  // namespace
}  // namespace hermes::engine
