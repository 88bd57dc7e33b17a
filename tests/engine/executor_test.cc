#include "engine/executor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "lang/parser.h"

namespace hermes::engine {
namespace {

/// Scriptable domain with controllable per-call latencies.
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

  Fixture() { (void)registry.Register("d", d); }

  Result<QueryExecution> Run(const std::string& program_text,
                             const std::string& query_text,
                             ExecutorOptions options = {}) {
    Result<lang::Program> program = lang::Parser::ParseProgram(program_text);
    EXPECT_TRUE(program.ok()) << program.status();
    Result<lang::Query> query = lang::Parser::ParseQuery(query_text);
    EXPECT_TRUE(query.ok()) << query.status();
    Executor executor(&registry, nullptr, options);
    return executor.Execute(*program, *query);
  }
};

DomainCall C(const std::string& fn, ValueList args) {
  return DomainCall{"d", fn, std::move(args)};
}

TEST(ExecutorTest, SingleCallEnumeration) {
  Fixture fx;
  fx.d->Set(C("f", {}), {Value::Int(1), Value::Int(2), Value::Int(3)}, 10, 30);
  Result<QueryExecution> exec = fx.Run("", "?- in(X, d:f()).");
  ASSERT_TRUE(exec.ok()) << exec.status();
  EXPECT_EQ(exec->var_names, (std::vector<std::string>{"X"}));
  ASSERT_EQ(exec->answers.size(), 3u);
  EXPECT_EQ(exec->answers[0][0], Value::Int(1));
  EXPECT_DOUBLE_EQ(exec->t_first_ms, 10.0);
  EXPECT_DOUBLE_EQ(exec->t_all_ms, 30.0);
  EXPECT_EQ(exec->domain_calls, 1u);
}

TEST(ExecutorTest, NestedLoopJoinTiming) {
  // Outer call: 2 answers at t=10 and t=20 (all=20). Inner per-answer call:
  // 1 answer, first=all=5. Pipeline: inner(1) runs [10,15], inner(2) starts
  // max(20, 15)=20, done 25. Ta = 25; Tf = 15.
  Fixture fx;
  fx.d->Set(C("outer", {}), {Value::Int(1), Value::Int(2)}, 10, 20);
  fx.d->Set(C("inner", {Value::Int(1)}), {Value::Str("a")}, 5, 5);
  fx.d->Set(C("inner", {Value::Int(2)}), {Value::Str("b")}, 5, 5);
  Result<QueryExecution> exec =
      fx.Run("", "?- in(X, d:outer()) & in(Y, d:inner(X)).");
  ASSERT_TRUE(exec.ok()) << exec.status();
  EXPECT_EQ(exec->answers.size(), 2u);
  EXPECT_DOUBLE_EQ(exec->t_first_ms, 15.0);
  EXPECT_DOUBLE_EQ(exec->t_all_ms, 25.0);
  EXPECT_EQ(exec->domain_calls, 3u);
}

TEST(ExecutorTest, NoDuplicateEliminationAcrossOuterTuples) {
  // The same inner call is issued once per outer answer (footnote 2).
  Fixture fx;
  fx.d->Set(C("outer", {}), {Value::Int(1), Value::Int(1)}, 1, 2);
  fx.d->Set(C("inner", {Value::Int(1)}), {Value::Str("a")}, 1, 1);
  Result<QueryExecution> exec =
      fx.Run("", "?- in(X, d:outer()) & in(Y, d:inner(X)).");
  ASSERT_TRUE(exec.ok());
  EXPECT_EQ(exec->answers.size(), 2u);
  EXPECT_EQ(fx.d->calls(), 3);  // outer + 2 identical inner calls
}

TEST(ExecutorTest, MembershipCheckSucceedsOnce) {
  Fixture fx;
  fx.d->Set(C("f", {}), {Value::Int(1), Value::Int(2), Value::Int(2)}, 1, 9);
  Result<QueryExecution> exec = fx.Run("", "?- in(2, d:f()).");
  ASSERT_TRUE(exec.ok()) << exec.status();
  EXPECT_EQ(exec->answers.size(), 1u);  // a check, not an enumeration
}

TEST(ExecutorTest, MembershipMissWaitsForFullSet) {
  Fixture fx;
  fx.d->Set(C("f", {}), {Value::Int(1)}, 1, 44);
  Result<QueryExecution> exec = fx.Run("", "?- in(9, d:f()).");
  ASSERT_TRUE(exec.ok());
  EXPECT_TRUE(exec->answers.empty());
  EXPECT_DOUBLE_EQ(exec->t_all_ms, 44.0);
}

TEST(ExecutorTest, ComparisonFiltersAndBinds) {
  Fixture fx;
  fx.d->Set(C("f", {}), {Value::Int(1), Value::Int(5), Value::Int(9)}, 1, 3);
  Result<QueryExecution> exec =
      fx.Run("", "?- in(X, d:f()) & X > 3 & =(Y, X).");
  ASSERT_TRUE(exec.ok()) << exec.status();
  ASSERT_EQ(exec->answers.size(), 2u);
  EXPECT_EQ(exec->answers[0][1], Value::Int(5));  // Y column
}

TEST(ExecutorTest, AttributePathsInComparisons) {
  Fixture fx;
  fx.d->Set(C("rows", {}),
            {Value::Struct({{"name", Value::Str("ann")},
                            {"age", Value::Int(30)}}),
             Value::Struct({{"name", Value::Str("bob")},
                            {"age", Value::Int(20)}})},
            1, 2);
  Result<QueryExecution> exec =
      fx.Run("", "?- in(T, d:rows()) & T.age >= 25 & =(N, T.name).");
  ASSERT_TRUE(exec.ok()) << exec.status();
  ASSERT_EQ(exec->answers.size(), 1u);
  EXPECT_EQ(exec->answers[0][1], Value::Str("ann"));
}

TEST(ExecutorTest, RuleEvaluationWithBindingPropagation) {
  Fixture fx;
  fx.d->Set(C("p", {Value::Str("a")}), {Value::Str("b1"), Value::Str("b2")},
            1, 2);
  fx.d->Set(C("q", {Value::Str("b1")}), {Value::Str("c1")}, 1, 2);
  fx.d->Set(C("q", {Value::Str("b2")}), {Value::Str("c2"), Value::Str("c3")},
            1, 2);
  Result<QueryExecution> exec = fx.Run(
      "m(A, C) :- in(B, d:p(A)) & in(C, d:q(B)).", "?- m('a', C).");
  ASSERT_TRUE(exec.ok()) << exec.status();
  ASSERT_EQ(exec->answers.size(), 3u);
  EXPECT_EQ(exec->answers[0][0], Value::Str("c1"));
  EXPECT_EQ(exec->answers[2][0], Value::Str("c3"));
}

TEST(ExecutorTest, MultipleRulesTriedSequentially) {
  Fixture fx;
  fx.d->Set(C("r1", {}), {Value::Int(1)}, 5, 5);
  fx.d->Set(C("r2", {}), {Value::Int(2)}, 7, 7);
  Result<QueryExecution> exec = fx.Run(
      "u(X) :- in(X, d:r1()).\n"
      "u(X) :- in(X, d:r2()).",
      "?- u(X).");
  ASSERT_TRUE(exec.ok()) << exec.status();
  ASSERT_EQ(exec->answers.size(), 2u);
  EXPECT_EQ(exec->answers[0][0], Value::Int(1));
  EXPECT_EQ(exec->answers[1][0], Value::Int(2));
  // Rule 2 starts only after rule 1 finished: t_all = 5 + 7 (plus the
  // sub-millisecond unification plumbing cost).
  EXPECT_NEAR(exec->t_all_ms, 12.0, 0.01);
}

TEST(ExecutorTest, HeadConstantsFilterCalls) {
  Fixture fx;
  fx.d->Set(C("f", {}), {Value::Int(7)}, 1, 1);
  Result<QueryExecution> exec = fx.Run(
      "tagged('yes', X) :- in(X, d:f()).", "?- tagged(W, X).");
  ASSERT_TRUE(exec.ok()) << exec.status();
  ASSERT_EQ(exec->answers.size(), 1u);
  EXPECT_EQ(exec->answers[0][0], Value::Str("yes"));

  // A mismatching constant makes the rule inapplicable.
  Result<QueryExecution> none = fx.Run(
      "tagged('yes', X) :- in(X, d:f()).", "?- tagged('no', X).");
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->answers.empty());
}

TEST(ExecutorTest, FactsEvaluate) {
  Fixture fx;
  Result<QueryExecution> exec = fx.Run(
      "color('red').\ncolor('blue').", "?- color(C).");
  ASSERT_TRUE(exec.ok()) << exec.status();
  EXPECT_EQ(exec->answers.size(), 2u);
}

TEST(ExecutorTest, InteractiveModeStopsAfterBatch) {
  Fixture fx;
  AnswerSet many;
  for (int i = 0; i < 100; ++i) many.push_back(Value::Int(i));
  fx.d->Set(C("big", {}), many, 1, 1000);
  fx.d->Set(C("probe", {Value::Int(0)}), {Value::Str("x")}, 1, 1);

  ExecutorOptions options;
  options.mode = ExecutionMode::kInteractive;
  options.interactive_batch = 1;
  Result<QueryExecution> exec = fx.Run("", "?- in(X, d:big()).", options);
  ASSERT_TRUE(exec.ok());
  EXPECT_EQ(exec->answers.size(), 1u);
  EXPECT_FALSE(exec->complete);
  // Stopping early: evaluation time is the first answer's time, far below
  // the 1000ms full-set time.
  EXPECT_LT(exec->t_all_ms, 10.0);
}

TEST(ExecutorTest, InteractiveBatchOfK) {
  Fixture fx;
  AnswerSet many;
  for (int i = 0; i < 10; ++i) many.push_back(Value::Int(i));
  fx.d->Set(C("big", {}), many, 1, 10);
  ExecutorOptions options;
  options.mode = ExecutionMode::kInteractive;
  options.interactive_batch = 4;
  Result<QueryExecution> exec = fx.Run("", "?- in(X, d:big()).", options);
  ASSERT_TRUE(exec.ok());
  EXPECT_EQ(exec->answers.size(), 4u);
  EXPECT_FALSE(exec->complete);
}

TEST(ExecutorTest, RepeatedOutputVariableActsAsJoin) {
  Fixture fx;
  fx.d->Set(C("f", {}), {Value::Int(1), Value::Int(2)}, 1, 2);
  fx.d->Set(C("g", {}), {Value::Int(2), Value::Int(3)}, 1, 2);
  Result<QueryExecution> exec =
      fx.Run("", "?- in(X, d:f()) & in(X, d:g()).");
  ASSERT_TRUE(exec.ok()) << exec.status();
  ASSERT_EQ(exec->answers.size(), 1u);
  EXPECT_EQ(exec->answers[0][0], Value::Int(2));
}

TEST(ExecutorTest, UnknownPredicateIsNotFound) {
  Fixture fx;
  EXPECT_TRUE(fx.Run("", "?- ghost(X).").status().IsNotFound());
}

TEST(ExecutorTest, UnboundDomainArgumentFails) {
  Fixture fx;
  fx.d->Set(C("f", {Value::Int(1)}), {Value::Int(1)}, 1, 1);
  EXPECT_FALSE(fx.Run("", "?- in(X, d:f(Y)).").ok());
}

TEST(ExecutorTest, RecursionDepthGuard) {
  Fixture fx;
  Result<QueryExecution> exec = fx.Run("loop(X) :- loop(X).", "?- loop(1).");
  EXPECT_EQ(exec.status().code(), StatusCode::kUnimplemented);
}

TEST(ExecutorTest, DomainCallBudgetGuard) {
  Fixture fx;
  AnswerSet many;
  for (int i = 0; i < 50; ++i) many.push_back(Value::Int(i));
  fx.d->Set(C("f", {}), many, 1, 2);
  for (int i = 0; i < 50; ++i) {
    fx.d->Set(C("g", {Value::Int(i)}), {Value::Int(i)}, 1, 1);
  }
  ExecutorOptions options;
  options.max_domain_calls = 10;
  Result<QueryExecution> exec =
      fx.Run("", "?- in(X, d:f()) & in(Y, d:g(X)).", options);
  EXPECT_EQ(exec.status().code(), StatusCode::kInternal);
}

TEST(ExecutorTest, ZeroAnswerTfEqualsTa) {
  Fixture fx;
  fx.d->Set(C("f", {}), {}, 3, 3);
  Result<QueryExecution> exec = fx.Run("", "?- in(X, d:f()).");
  ASSERT_TRUE(exec.ok());
  EXPECT_TRUE(exec->answers.empty());
  EXPECT_DOUBLE_EQ(exec->t_first_ms, exec->t_all_ms);
}

/// A source that is always down: the executor can lose it.
class DownDomain : public Domain {
 public:
  const std::string& name() const override { return name_; }
  std::vector<FunctionInfo> Functions() const override { return {}; }
  Result<CallOutput> Run(const DomainCall&) override {
    return Status::Unavailable("site is down");
  }

 private:
  std::string name_ = "down";
};

/// Every record in `dcsm`, in the order it was recorded.
std::vector<dcsm::CostRecord> RecordsInOrder(const dcsm::Dcsm& dcsm) {
  std::vector<dcsm::CostRecord> records;
  for (const dcsm::CallGroupKey& key : dcsm.database().Groups()) {
    for (const dcsm::CostRecord& r : *dcsm.database().GetGroup(key)) {
      records.push_back(r);
    }
  }
  std::sort(records.begin(), records.end(),
            [](const dcsm::CostRecord& a, const dcsm::CostRecord& b) {
              return a.record_time < b.record_time;
            });
  return records;
}

TEST(ExecutorTest, StatisticsRecordedIntoDcsm) {
  // p's body calls d:f, the join calls d:g once per solution of p, and
  // down:h is lost twice (once per d:g answer) under tolerance.
  Fixture fx;
  fx.d->Set(C("f", {}), {Value::Int(1)}, 2, 4);
  fx.d->Set(C("g", {Value::Int(1)}), {Value::Str("a"), Value::Str("b")}, 1, 3);
  ASSERT_TRUE(
      fx.registry.Register("down", std::make_shared<DownDomain>()).ok());
  Result<lang::Program> program =
      lang::Parser::ParseProgram("p(X) :- in(X, d:f()).");
  ASSERT_TRUE(program.ok()) << program.status();
  Result<lang::Query> query = lang::Parser::ParseQuery(
      "?- p(X) & in(Y, d:g(X)) & in(Z, down:h()).");
  ASSERT_TRUE(query.ok()) << query.status();
  ExecutorOptions options;
  options.tolerate_source_failures = true;
  dcsm::Dcsm dcsm;

  // One record per successful call, in call order, and one "idb" record
  // when p finishes; the lost calls add none.
  Executor executor(&fx.registry, &dcsm, options);
  CallContext ctx;
  Result<QueryExecution> exec = executor.Execute(*program, *query, &ctx);
  ASSERT_TRUE(exec.ok()) << exec.status();
  EXPECT_EQ(exec->domain_calls, 4u);
  std::vector<dcsm::CostRecord> records = RecordsInOrder(dcsm);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].call.ToString(), "d:f()");
  EXPECT_DOUBLE_EQ(records[0].cost.t_all_ms, 4.0);
  EXPECT_DOUBLE_EQ(records[0].cost.cardinality, 1.0);
  EXPECT_EQ(records[1].call.ToString(), "d:g(1)");
  EXPECT_DOUBLE_EQ(records[1].cost.cardinality, 2.0);
  EXPECT_EQ(records[2].call.domain, "idb");
  EXPECT_EQ(records[2].call.function, "p");
  EXPECT_EQ(ctx.metrics.stats_records, 3u);

  // record_statistics=false adds none.
  ExecutorOptions quiet = options;
  quiet.record_statistics = false;
  CallContext quiet_ctx;
  ASSERT_TRUE(Executor(&fx.registry, &dcsm, quiet)
                  .Execute(*program, *query, &quiet_ctx)
                  .ok());
  EXPECT_EQ(dcsm.database().TotalRecords(), 3u);
  EXPECT_EQ(quiet_ctx.metrics.stats_records, 0u);

  // Nor does an executor without a DCSM count any.
  CallContext bare_ctx;
  ASSERT_TRUE(Executor(&fx.registry, nullptr, options)
                  .Execute(*program, *query, &bare_ctx)
                  .ok());
  EXPECT_EQ(bare_ctx.metrics.stats_records, 0u);
}

}  // namespace
}  // namespace hermes::engine
