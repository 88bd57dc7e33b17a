#include "engine/executor.h"

#include <cmath>
#include <utility>

#include "engine/op/sink_ops.h"
#include "obs/flight_recorder.h"

namespace hermes::engine {

Executor::Executor(const DomainRegistry* registry, dcsm::Dcsm* dcsm,
                   ExecutorOptions options)
    : registry_(registry), dcsm_(dcsm), options_(options) {}

std::string QueryExecution::ToString() const {
  std::string out = std::to_string(answers.size()) + " answer(s), Tf=" +
                    std::to_string(t_first_ms) + "ms, Ta=" +
                    std::to_string(t_all_ms) + "ms, " +
                    std::to_string(domain_calls) + " domain call(s)";
  if (!complete) out += " (partial)";
  return out;
}

Result<QueryExecution> Executor::Execute(const lang::Program& program,
                                         const lang::Query& query) {
  CallContext ctx;
  return Execute(program, query, &ctx);
}

Result<QueryExecution> Executor::Execute(const lang::Program& program,
                                         const lang::Query& query,
                                         CallContext* ctx) {
  op::CompiledQuery compiled = op::Compile(program, query);
  return ExecuteCompiled(program, compiled, ctx);
}

Result<QueryExecution> Executor::ExecuteCompiled(const lang::Program& program,
                                                 op::CompiledQuery& compiled,
                                                 CallContext* ctx,
                                                 op::ReplanManager* replan) {
  QueryExecution exec;
  exec.var_names = compiled.var_names;

  // The budget covers this execution on top of whatever the caller's
  // context already consumed.
  const uint64_t calls_before = ctx->metrics.domain_calls;
  ctx->call_budget = calls_before + options_.max_domain_calls;

  // The operators buffer this query's DCSM samples here; they reach the
  // DCSM in one batch when evaluation ends, so the shared statistics lock
  // is taken once per query instead of once per domain call. The guard
  // flushes on error exits too: a failed query still contributes the
  // statistics of the calls it did execute.
  std::vector<dcsm::CostRecord> samples;
  struct SampleFlush {
    dcsm::Dcsm* dcsm;
    std::vector<dcsm::CostRecord>* samples;
    ~SampleFlush() {
      if (!samples->empty()) dcsm->RecordBatch(std::move(*samples));
    }
  } flush{dcsm_, &samples};

  op::ExecParams params;
  params.mode = options_.mode;
  params.interactive_batch = options_.interactive_batch;
  params.comparison_cost_ms = options_.comparison_cost_ms;
  params.unification_cost_ms = options_.unification_cost_ms;
  params.max_recursion_depth = options_.max_recursion_depth;
  params.record_predicate_statistics = options_.record_predicate_statistics;
  params.trace_operators = options_.trace_operators;
  params.tolerate_source_failures = options_.tolerate_source_failures;

  // Per-query data-plane storage: the binding scope and the bump arena all
  // row payloads are carved from. Both die with this call — answers are
  // materialized to heap Values (TakeAnswers) before that.
  Bindings bindings;
  Arena arena;
  op::ExecContext cx;
  cx.program = &program;
  cx.ctx = ctx;
  cx.registry = registry_;
  cx.samples =
      dcsm_ != nullptr && options_.record_statistics ? &samples : nullptr;
  cx.params = &params;
  cx.bindings = &bindings;
  cx.op_metrics = options_.op_metrics.get();
  cx.arena = &arena;
  cx.schema = &compiled.schema;
  cx.replan = replan;
  auto publish_arena_usage = [&] {
    exec.arena_bytes = arena.bytes_used();
    if (options_.op_metrics != nullptr &&
        options_.op_metrics->arena_bytes != nullptr) {
      options_.op_metrics->arena_bytes->Set(
          static_cast<double>(arena.bytes_used()));
    }
    if (ctx->observed()) {
      obs::FlightEvent ev = obs::FlightEvent::At(
          obs::FlightEventKind::kArenaHighWater, ctx->now_ms);
      ev.value = static_cast<double>(arena.bytes_used());
      ctx->Emit(ev);
    }
  };

  // Pull the tree dry on the virtual clock. Any error closes the tree
  // first so operator spans and state unwind cleanly.
  double t_done = 0.0;
  Status status = compiled.root->Open(cx, 0.0);
  if (status.ok()) {
    double cursor = 0.0;
    while (true) {
      Result<bool> more = compiled.root->Next(cx, cursor, &t_done);
      if (!more.ok()) {
        status = more.status();
        break;
      }
      if (!*more) break;
      cursor = t_done;
    }
  }
  compiled.root->Close(cx);
  if (!status.ok()) {
    if (!options_.tolerate_source_failures || !status.IsDeadlineExceeded()) {
      return status;
    }
    // The query deadline cut evaluation short: hand back whatever the sink
    // collected, marked partial, with the clock pinned at the deadline.
    exec.answers = compiled.sink->TakeAnswers();
    exec.t_all_ms =
        std::isfinite(ctx->deadline_ms) ? ctx->deadline_ms : t_done;
    exec.t_first_ms = compiled.sink->has_first() ? compiled.sink->t_first()
                                                 : exec.t_all_ms;
    exec.complete = false;
    exec.domain_calls = ctx->metrics.domain_calls - calls_before;
    publish_arena_usage();
    return exec;
  }

  exec.answers = compiled.sink->TakeAnswers();
  exec.t_all_ms = t_done;
  exec.t_first_ms = compiled.sink->has_first() ? compiled.sink->t_first()
                                               : t_done;
  exec.complete = compiled.sink->complete() && !cx.source_incomplete;
  exec.domain_calls = ctx->metrics.domain_calls - calls_before;
  publish_arena_usage();
  return exec;
}

}  // namespace hermes::engine
