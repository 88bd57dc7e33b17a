#include "engine/op/compile.h"

#include <utility>

#include "engine/op/domain_call_op.h"
#include "engine/op/filter_op.h"
#include "engine/op/join_op.h"
#include "engine/op/rule_predicate_op.h"
#include "engine/op/scatter_gather_op.h"

namespace hermes::engine::op {

std::vector<std::string> QueryVariables(const lang::Query& query) {
  std::vector<std::string> out;
  auto add = [&out](const lang::Term& t) {
    if (!t.is_variable()) return;
    for (const std::string& existing : out) {
      if (existing == t.var_name) return;
    }
    out.push_back(t.var_name);
  };
  for (const lang::Atom& goal : query.goals) {
    switch (goal.kind) {
      case lang::Atom::Kind::kPredicate:
        for (const lang::Term& t : goal.args) add(t);
        break;
      case lang::Atom::Kind::kDomainCall:
        add(goal.output);
        for (const lang::Term& t : goal.call.args) add(t);
        break;
      case lang::Atom::Kind::kComparison:
        add(goal.lhs);
        add(goal.rhs);
        break;
    }
  }
  return out;
}

namespace {

RowFieldType FieldTypeOf(const Value& v) {
  switch (v.type()) {
    case Value::Type::kNull:
      return RowFieldType::kNull;
    case Value::Type::kBool:
      return RowFieldType::kBool;
    case Value::Type::kInt:
      return RowFieldType::kInt;
    case Value::Type::kDouble:
      return RowFieldType::kDouble;
    case Value::Type::kString:
      return RowFieldType::kString;
    case Value::Type::kList:
      return RowFieldType::kList;
    case Value::Type::kStruct:
      return RowFieldType::kStruct;
  }
  return RowFieldType::kAny;
}

}  // namespace

RowSchema InferSchema(const lang::Program& program, const lang::Query& query) {
  RowSchema schema = RowSchema::ForVariables(QueryVariables(query));
  auto pin = [&schema](const std::string& var, RowFieldType type) {
    int idx = schema.FieldIndex(var);
    if (idx >= 0 && schema.fields()[idx].type == RowFieldType::kAny) {
      schema.fields()[idx].type = type;
    }
  };
  for (const lang::Atom& goal : query.goals) {
    switch (goal.kind) {
      case lang::Atom::Kind::kComparison: {
        // `=(V, const)` fixes V's type to the constant's.
        if (goal.op != lang::RelOp::kEq) break;
        if (goal.lhs.is_variable() && goal.lhs.path.empty() &&
            goal.rhs.is_constant()) {
          pin(goal.lhs.var_name, FieldTypeOf(goal.rhs.constant));
        } else if (goal.rhs.is_variable() && goal.rhs.path.empty() &&
                   goal.lhs.is_constant()) {
          pin(goal.rhs.var_name, FieldTypeOf(goal.lhs.constant));
        }
        break;
      }
      case lang::Atom::Kind::kPredicate: {
        // A variable argument inherits a type when every matching rule
        // head carries a same-typed constant at that position.
        for (size_t i = 0; i < goal.args.size(); ++i) {
          const lang::Term& arg = goal.args[i];
          if (!arg.is_variable() || !arg.path.empty()) continue;
          bool seen = false, uniform = true;
          RowFieldType type = RowFieldType::kAny;
          for (const lang::Rule& rule : program.rules) {
            if (rule.head.predicate != goal.predicate ||
                rule.head.args.size() != goal.args.size()) {
              continue;
            }
            if (!rule.head.args[i].is_constant()) {
              uniform = false;
              break;
            }
            RowFieldType t = FieldTypeOf(rule.head.args[i].constant);
            if (!seen) {
              type = t;
              seen = true;
            } else if (t != type) {
              uniform = false;
              break;
            }
          }
          if (seen && uniform) pin(arg.var_name, type);
        }
        break;
      }
      case lang::Atom::Kind::kDomainCall:
        break;  // dynamically typed source output
    }
  }
  return schema;
}

std::unique_ptr<PhysicalOp> CompileGoal(const lang::Atom& goal,
                                        const lang::Program& program,
                                        size_t depth,
                                        const CompileOptions& options) {
  switch (goal.kind) {
    case lang::Atom::Kind::kDomainCall:
      return std::make_unique<DomainCallOp>(&goal, options.dcsm);
    case lang::Atom::Kind::kComparison:
      return std::make_unique<FilterOp>(&goal);
    case lang::Atom::Kind::kPredicate:
      return std::make_unique<RulePredicateOp>(&goal, &program, depth,
                                               options);
  }
  return std::make_unique<UnitOp>();  // unreachable
}

namespace {

/// True when the domain-call goal reads `var` in its call arguments or
/// touches it as its output term (a later enumerate of the same variable
/// is really a membership check against the earlier binding).
bool CallTouchesVar(const lang::Atom& goal, const std::string& var) {
  for (const lang::Term& arg : goal.call.args) {
    if (arg.is_variable() && arg.var_name == var) return true;
  }
  return goal.output.is_variable() && goal.output.var_name == var;
}

/// Length of the maximal scatter-gather run starting at goals[start]: the
/// longest prefix of consecutive domain-call goals none of which depends on
/// an output variable bound by an earlier member of the run.
size_t IndependentRunLength(const std::vector<lang::Atom>& goals,
                            size_t start) {
  size_t end = start;
  while (end < goals.size() &&
         goals[end].kind == lang::Atom::Kind::kDomainCall) {
    bool dependent = false;
    for (size_t k = start; k < end && !dependent; ++k) {
      const lang::Term& out = goals[k].output;
      if (out.is_variable() && CallTouchesVar(goals[end], out.var_name)) {
        dependent = true;
      }
    }
    if (dependent) break;
    ++end;
  }
  return end - start;
}

}  // namespace

std::unique_ptr<PhysicalOp> CompileGoals(const std::vector<lang::Atom>& goals,
                                         const lang::Program& program,
                                         size_t depth,
                                         const CompileOptions& options,
                                         std::vector<SpineSlot>* spine) {
  if (goals.empty()) return std::make_unique<UnitOp>();
  if (!options.record_spine) spine = nullptr;
  std::unique_ptr<PhysicalOp> chain;
  auto append = [&chain, spine](std::unique_ptr<PhysicalOp> op,
                                size_t goal_start, size_t goal_count,
                                bool single_domain_call) {
    if (chain == nullptr) {
      chain = std::move(op);
      return;
    }
    auto join = std::make_unique<NestedLoopJoinOp>(std::move(chain),
                                                   std::move(op));
    if (spine != nullptr) {
      join->set_spine_index(spine->size());
      spine->push_back(
          {join.get(), goal_start, goal_count, single_domain_call});
    }
    chain = std::move(join);
  };
  size_t i = 0;
  while (i < goals.size()) {
    if (options.async_scatter_gather &&
        goals[i].kind == lang::Atom::Kind::kDomainCall) {
      size_t run = IndependentRunLength(goals, i);
      if (run >= 2) {
        std::vector<std::unique_ptr<DomainCallOp>> members;
        members.reserve(run);
        for (size_t k = i; k < i + run; ++k) {
          members.push_back(
              std::make_unique<DomainCallOp>(&goals[k], options.dcsm));
        }
        append(std::make_unique<ScatterGatherOp>(std::move(members)), i, run,
               false);
        i += run;
        continue;
      }
    }
    append(CompileGoal(goals[i], program, depth, options), i, 1,
           goals[i].kind == lang::Atom::Kind::kDomainCall);
    ++i;
  }
  return chain;
}

CompiledQuery Compile(const lang::Program& program, const lang::Query& query,
                      const CompileOptions& options) {
  CompiledQuery compiled;
  compiled.var_names = QueryVariables(query);
  compiled.schema = InferSchema(program, query);
  auto project = std::make_unique<ProjectOp>(
      CompileGoals(query.goals, program, 0, options, &compiled.spine),
      compiled.var_names);
  auto sink = std::make_unique<AnswerSinkOp>(std::move(project));
  compiled.sink = sink.get();
  compiled.root = std::move(sink);
  return compiled;
}

}  // namespace hermes::engine::op
