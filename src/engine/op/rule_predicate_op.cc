#include "engine/op/rule_predicate_op.h"

#include <algorithm>
#include <utility>

#include "engine/op/compile.h"
#include "engine/op/explain.h"
#include "obs/flight_recorder.h"

namespace hermes::engine::op {

RulePredicateOp::RulePredicateOp(const lang::Atom* atom,
                                 const lang::Program* program, size_t depth,
                                 CompileOptions options)
    : atom_(atom), program_(program), depth_(depth), options_(options) {
  for (size_t i = 0; i < program->rules.size(); ++i) {
    const lang::Rule& rule = program->rules[i];
    if (rule.head.predicate == atom->predicate &&
        rule.head.args.size() == atom->args.size()) {
      matching_.push_back(i);
    }
  }
  bodies_.resize(matching_.size());
}

std::string RulePredicateOp::label() const {
  return "RulePredicate " + atom_->ToString();
}

PhysicalOp* RulePredicateOp::EnsureBody(size_t rule_pos) {
  if (bodies_[rule_pos] == nullptr) {
    const lang::Rule& rule = program_->rules[matching_[rule_pos]];
    bodies_[rule_pos] = CompileGoals(rule.body, *program_, depth_ + 1,
                                     options_);
  }
  return bodies_[rule_pos].get();
}

Status RulePredicateOp::OpenImpl(ExecContext& cx, double t_open) {
  if (depth_ >= cx.params->max_recursion_depth) {
    return Status::Unimplemented(
        "recursion depth limit reached evaluating '" + atom_->predicate +
        "' (recursive mediators are outside this engine's scope)");
  }

  // Downstream goals evaluated from a rule body's solutions intentionally
  // nest under this span: the envelope is the paper's per-predicate Tf/Ta
  // measurement window.
  rule_span_ = 0;
  if (cx.ctx->observed()) {
    rule_span_ = cx.ctx->Emit(
        obs::FlightEvent::At(obs::FlightEventKind::kRuleBegin, t_open)
            .set_detail(atom_->predicate));
  }

  t_open_ = t_open;
  cursor_ = t_open;
  last_emit_ = t_open;
  first_solution_t_ = -1.0;
  solutions_ = 0;
  rule_pos_ = 0;
  body_open_ = false;
  back_frame_.reset();
  local_.clear();

  if (matching_.empty()) {
    return Status::NotFound("no rule defines predicate '" + atom_->predicate +
                            "/" + std::to_string(atom_->args.size()) + "'");
  }
  return Status::OK();
}

Result<bool> RulePredicateOp::UnifyHead(ExecContext& cx,
                                        const lang::Rule& rule) {
  local_.clear();
  back_.clear();
  bool applicable = true;
  for (size_t i = 0; i < atom_->args.size() && applicable; ++i) {
    const lang::Term& caller_term = atom_->args[i];
    const lang::Term& head_term = rule.head.args[i];
    if (TermIsResolvable(caller_term, *cx.bindings)) {
      // View resolution: the head variable aliases the caller's storage
      // (stable while this rule runs — the caller cannot advance past an
      // open predicate). No Value copies crossing the head.
      HERMES_ASSIGN_OR_RETURN(const Value* v,
                              ResolveTermPtr(caller_term, *cx.bindings));
      if (head_term.is_constant()) {
        if (head_term.constant != *v) applicable = false;
      } else if (head_term.is_variable()) {
        if (!head_term.path.empty()) {
          return Status::InvalidArgument(
              "attribute path in rule head: " + head_term.ToString());
        }
        if (local_.BindView(head_term.var_name, v) ==
            Bindings::BindOutcome::kConflict) {
          applicable = false;
        }
      } else {
        return Status::InvalidArgument("'$b' in rule head");
      }
    } else {
      if (!caller_term.is_variable() || !caller_term.path.empty()) {
        return Status::InvalidArgument(
            "cannot pass unresolvable term '" + caller_term.ToString() +
            "' to predicate '" + atom_->predicate + "'");
      }
      back_.push_back({caller_term.var_name, &head_term});
    }
  }
  return applicable;
}

Result<bool> RulePredicateOp::NextImpl(ExecContext& cx, double t_resume,
                                       double* t_out) {
  // Backtrack past the previous solution's caller-side bindings; the body
  // producer resumes where the consumer finished that solution.
  back_frame_.reset();
  if (body_open_) body_resume_ = t_resume;

  for (;;) {
    if (!body_open_) {
      if (rule_pos_ >= matching_.size()) {
        RecordInvocation(cx);
        *t_out = cursor_;
        return false;
      }
      const lang::Rule& rule = program_->rules[matching_[rule_pos_]];
      HERMES_ASSIGN_OR_RETURN(bool applicable, UnifyHead(cx, rule));
      if (!applicable) {
        ++rule_pos_;
        continue;
      }
      PhysicalOp* body = EnsureBody(rule_pos_);
      body_open_ = true;  // before Open: Close must reach a partial open
      body_resume_ = cursor_;
      Bindings* caller = cx.bindings;
      cx.bindings = &local_;
      Status opened = body->Open(cx, cursor_);
      cx.bindings = caller;
      if (!opened.ok()) return opened;
    }

    PhysicalOp* body = bodies_[rule_pos_].get();
    double t = 0.0;
    Bindings* caller = cx.bindings;
    cx.bindings = &local_;
    Result<bool> produced = body->Next(cx, body_resume_, &t);
    cx.bindings = caller;
    if (!produced.ok()) return produced.status();

    if (!*produced) {
      // This rule's body completed at t; the next rule opens there.
      cursor_ = t;
      caller = cx.bindings;
      cx.bindings = &local_;
      body->Close(cx);
      cx.bindings = caller;
      body_open_ = false;
      local_.clear();
      ++rule_pos_;
      continue;
    }

    // One body solution at time t: bind outputs back onto the caller's
    // free variables, then surface the solution after the unification.
    back_frame_.emplace(cx.bindings);
    bool conflict = false;
    for (const BackBinding& bb : back_) {
      // The view targets the AST constant or the rule-local storage, both
      // stable until the frame rolls back (always before the body advances
      // or closes).
      const Value* v = nullptr;
      if (bb.head_term->is_constant()) {
        v = &bb.head_term->constant;
      } else {
        Result<const Value*> resolved = ResolveTermPtr(*bb.head_term, local_);
        if (!resolved.ok()) {
          return Status::InvalidArgument(
              "head variable '" + bb.head_term->ToString() + "' of '" +
              atom_->predicate + "' is unbound after evaluating the rule body");
        }
        v = resolved.value();
      }
      if (!back_frame_->BindView(bb.caller_var, v)) {
        // Same caller variable bound to conflicting outputs: no solution.
        conflict = true;
        break;
      }
    }
    if (conflict) {
      back_frame_.reset();
      body_resume_ = t;  // the producer resumes at the rejected solution
      continue;
    }
    if (first_solution_t_ < 0) first_solution_t_ = t;
    ++solutions_;
    *t_out = t + cx.params->unification_cost_ms;
    last_emit_ = *t_out;
    return true;
  }
}

void RulePredicateOp::RecordInvocation(ExecContext& cx) {
  if (cx.samples == nullptr || !cx.params->record_predicate_statistics) {
    return;
  }
  DomainCall invocation;
  invocation.domain = "idb";
  invocation.function = atom_->predicate;
  invocation.args.reserve(atom_->args.size());
  for (const lang::Term& arg : atom_->args) {
    Result<Value> v = TermIsResolvable(arg, *cx.bindings)
                          ? ResolveTerm(arg, *cx.bindings)
                          : Result<Value>(Value::Null());
    invocation.args.push_back(v.ok() ? *v : Value::Null());
  }
  cx.RecordSample(
      std::move(invocation),
      CostVector((first_solution_t_ < 0 ? cursor_ : first_solution_t_) -
                     t_open_,
                 cursor_ - t_open_, static_cast<double>(solutions_)),
      /*complete=*/true);
}

void RulePredicateOp::CloseImpl(ExecContext& cx) {
  back_frame_.reset();
  if (body_open_) {
    Bindings* caller = cx.bindings;
    cx.bindings = &local_;
    bodies_[rule_pos_]->Close(cx);
    cx.bindings = caller;
    body_open_ = false;
  }
  local_.clear();
  if (rule_span_ != 0) {
    cx.ctx->Emit(obs::FlightEventKind::kRuleEnd, std::max(cursor_, last_emit_),
                 rule_span_);
  }
  rule_span_ = 0;
}

std::vector<PhysicalOp*> RulePredicateOp::children() {
  std::vector<PhysicalOp*> kids;
  kids.reserve(bodies_.size());
  for (std::unique_ptr<PhysicalOp>& body : bodies_) kids.push_back(body.get());
  return kids;
}

void RulePredicateOp::Explain(ExplainPrinter& printer) {
  std::string adorn;
  for (const lang::Term& arg : atom_->args) {
    bool arg_bound =
        arg.is_constant() ||
        (arg.is_variable() && printer.bound().count(arg.var_name) > 0);
    adorn += arg_bound ? 'b' : 'f';
  }
  std::string annotations = "[args=" + (adorn.empty() ? "-" : adorn) +
                            ", rules=" + std::to_string(matching_.size()) +
                            "]";

  std::vector<std::function<void()>> kids;
  if (printer.OnPath(atom_->predicate)) {
    kids.push_back([this, &printer] {
      printer.Node(
          "(recursive expansion of '" + atom_->predicate + "' elided)", {});
    });
  } else {
    for (size_t pos = 0; pos < matching_.size(); ++pos) {
      kids.push_back([this, pos, &printer] {
        const lang::Rule& rule = program_->rules[matching_[pos]];
        // The body starts from the head's adornments: positions whose
        // caller argument is bound bind the head variable.
        std::set<std::string> body_bound;
        for (size_t i = 0; i < atom_->args.size(); ++i) {
          const lang::Term& caller_term = atom_->args[i];
          const lang::Term& head_term = rule.head.args[i];
          bool arg_bound =
              caller_term.is_constant() ||
              (caller_term.is_variable() &&
               printer.bound().count(caller_term.var_name) > 0);
          if (arg_bound && head_term.is_variable()) {
            body_bound.insert(head_term.var_name);
          }
        }
        PhysicalOp* body = EnsureBody(pos);
        std::set<std::string> saved = std::move(printer.bound());
        printer.bound() = std::move(body_bound);
        printer.PushPath(atom_->predicate);
        printer.Node("rule: " + rule.ToString(),
                     {[body, &printer] { body->Explain(printer); }});
        printer.PopPath();
        printer.bound() = std::move(saved);
      });
    }
  }
  printer.NodeFor(*this, annotations, std::move(kids));

  // The predicate binds its free variable arguments for goals to its right.
  for (const lang::Term& arg : atom_->args) {
    if (arg.is_variable()) printer.bound().insert(arg.var_name);
  }
}

}  // namespace hermes::engine::op
