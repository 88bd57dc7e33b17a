#include "engine/query_pool.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace hermes {

namespace {

constexpr size_t kNumPriorities = 3;

/// The queue-wait quantile deadline-aware admission sheds against.
constexpr double kWatermarkQuantile = 0.90;

size_t PriorityIndex(QueryPriority p) {
  size_t idx = static_cast<size_t>(p);
  return idx < kNumPriorities ? idx : kNumPriorities - 1;
}

}  // namespace

std::unique_ptr<QueryPool> Mediator::Serve(QueryPoolOptions options) {
  return std::make_unique<QueryPool>(this, options);
}

QueryPool::QueryPool(Mediator* mediator, QueryPoolOptions options)
    : mediator_(mediator),
      queue_capacity_(options.queue_capacity > 0
                          ? options.queue_capacity
                          : 2 * std::max<size_t>(options.num_threads, 1)),
      admission_(options.admission),
      queue_wait_ms_(std::make_shared<obs::Histogram>(
          obs::Histogram::ExponentialBounds(0.01, 4.0, 12))),
      service_ms_(std::make_shared<obs::Histogram>(
          obs::Histogram::ExponentialBounds(0.01, 4.0, 12))) {
  obs::MetricsRegistry& registry = mediator_->metrics();
  registry.Register("hermes_pool_submitted_total",
                    "Queries accepted into the pool's queue", {}, submitted_);
  registry.Register("hermes_pool_completed_total",
                    "Queries whose future was fulfilled", {}, completed_);
  const std::string rejected_help =
      "Submissions refused or shed, by reason (full, shutdown, deadline, "
      "codel, brownout)";
  registry.Register("hermes_pool_rejected_total", rejected_help,
                    {{"reason", "full"}}, rejected_full_);
  registry.Register("hermes_pool_rejected_total", rejected_help,
                    {{"reason", "shutdown"}}, rejected_shutdown_);
  registry.Register("hermes_pool_rejected_total", rejected_help,
                    {{"reason", "deadline"}}, shed_deadline_);
  registry.Register("hermes_pool_rejected_total", rejected_help,
                    {{"reason", "codel"}}, shed_codel_);
  registry.Register("hermes_pool_rejected_total", rejected_help,
                    {{"reason", "brownout"}}, shed_brownout_);
  registry.Register("hermes_pool_queue_depth",
                    "Queries currently waiting in the submission queue", {},
                    queue_depth_);
  registry.Register("hermes_pool_queue_wait_ms",
                    "Wall-clock milliseconds a query waited in the queue", {},
                    queue_wait_ms_);
  registry.Register("hermes_pool_service_ms",
                    "Wall-clock milliseconds a worker spent serving a query",
                    {}, service_ms_);
  mediator_->BeginServing();
  size_t threads = std::max<size_t>(options.num_threads, 1);
  workers_.reserve(threads);
  for (size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

QueryPool::~QueryPool() { Shutdown(); }

size_t QueryPool::QueueDepthLocked() const {
  return queues_[0].size() + queues_[1].size() + queues_[2].size();
}

std::string QueryPool::QueueContextLocked() const {
  return "depth " + std::to_string(QueueDepthLocked()) + "/" +
         std::to_string(queue_capacity_) +
         " (high=" + std::to_string(queues_[0].size()) +
         " normal=" + std::to_string(queues_[1].size()) +
         " low=" + std::to_string(queues_[2].size()) + ")";
}

void QueryPool::RecordBrownoutOutcome(bool shed) {
  if (!admission_.enabled) return;
  overload::BrownoutController* brownout = mediator_->brownout();
  if (brownout != nullptr) brownout->RecordOutcome(shed);
}

Status QueryPool::Enqueue(Task task, std::future<Result<QueryResult>>* out) {
  // Admission control (both checks no-ops unless enabled): shed now, at the
  // door, rather than queueing work the query cannot use.
  if (admission_.enabled) {
    // Brownout ladder level 3: low-priority queries are refused while the
    // system is shedding hard (see BrownoutController).
    overload::BrownoutController* brownout = mediator_->brownout();
    if (task.options.priority == QueryPriority::kLow && brownout != nullptr &&
        brownout->level() >= overload::BrownoutController::kShedLow) {
      shed_brownout_->Add(1);
      RecordBrownoutOutcome(true);
      return Status::ResourceExhausted(
          "brownout level 3 (shed-low): low-priority query shed at "
          "admission; " +
          QueueContextLocked());
    }
    // Deadline-aware admission: if the queue-wait watermark alone would eat
    // the query's deadline, answering is pointless — shed instead. The
    // deadline is simulated ms; queue wait is host wall ms, comparable only
    // through the pacing scale (pacing 0 → simulated time never accrues
    // while queued, so skip).
    const double pacing = mediator_->service_pacing();
    if (admission_.deadline_aware && task.options.deadline_ms > 0.0 &&
        pacing > 0.0) {
      obs::HistogramSnapshot waits = queue_wait_ms_->Snapshot();
      if (waits.count >= admission_.watermark_min_samples) {
        const double watermark_ms = waits.Quantile(kWatermarkQuantile);
        const double budget_ms = task.options.deadline_ms * pacing;
        if (budget_ms < watermark_ms) {
          shed_deadline_->Add(1);
          RecordBrownoutOutcome(true);
          return Status::ResourceExhausted(
              "deadline budget " + std::to_string(budget_ms) +
              "ms below queue-wait watermark " +
              std::to_string(watermark_ms) + "ms (p" +
              std::to_string(static_cast<int>(kWatermarkQuantile * 100)) +
              " of " + std::to_string(waits.count) + " waits); " +
              QueueContextLocked());
        }
      }
    }
  }

  std::future<Result<QueryResult>> future = task.promise.get_future();
  // Fix the query id now, in submission order, so it does not depend on
  // which worker picks the task up when.
  if (task.options.query_id == 0) {
    task.options.query_id = mediator_->ReserveQueryId();
  }
  task.enqueued_at = std::chrono::steady_clock::now();
  queues_[PriorityIndex(task.options.priority)].push_back(std::move(task));
  submitted_->Add(1);
  queue_depth_->Set(static_cast<double>(QueueDepthLocked()));
  queue_ready_.notify_one();
  *out = std::move(future);
  return Status::OK();
}

std::future<Result<QueryResult>> QueryPool::Submit(std::string query_text,
                                                   QueryOptions options) {
  Task task;
  task.text = std::move(query_text);
  task.options = options;

  std::unique_lock<std::mutex> lock(mu_);
  queue_space_.wait(lock, [this] {
    return stopping_ || QueueDepthLocked() < queue_capacity_;
  });
  if (stopping_) {
    rejected_shutdown_->Add(1);
    task.promise.set_value(Status::FailedPrecondition(
        "QueryPool is shut down; no further submissions accepted"));
    return task.promise.get_future();
  }
  std::future<Result<QueryResult>> future;
  Status admitted = Enqueue(std::move(task), &future);
  if (!admitted.ok()) {
    // The task was shed: deliver the typed status through the future so
    // Submit keeps its fire-and-forget contract.
    std::promise<Result<QueryResult>> shed;
    future = shed.get_future();
    shed.set_value(std::move(admitted));
  }
  return future;
}

Status QueryPool::TrySubmit(std::string query_text, QueryOptions options,
                            std::future<Result<QueryResult>>* out) {
  Task task;
  task.text = std::move(query_text);
  task.options = options;

  std::unique_lock<std::mutex> lock(mu_);
  if (stopping_) {
    rejected_shutdown_->Add(1);
    return Status::FailedPrecondition(
        "QueryPool is shut down; no further submissions accepted");
  }
  if (QueueDepthLocked() >= queue_capacity_) {
    rejected_full_->Add(1);
    RecordBrownoutOutcome(true);
    return Status::ResourceExhausted("submission queue full: " +
                                     QueueContextLocked());
  }
  return Enqueue(std::move(task), out);
}

bool QueryPool::CodelShouldDropLocked(
    double sojourn_ms, std::chrono::steady_clock::time_point now) {
  auto to_duration = [](double ms) {
    return std::chrono::duration_cast<std::chrono::steady_clock::duration>(
        std::chrono::duration<double, std::milli>(ms));
  };
  if (sojourn_ms < admission_.codel_target_ms) {
    // Sojourn recovered below target: leave the dropping state entirely.
    codel_above_ = false;
    codel_dropping_ = false;
    return false;
  }
  if (!codel_above_) {
    // First sighting above target: arm a grace interval before dropping.
    codel_above_ = true;
    codel_first_above_ = now + to_duration(admission_.codel_interval_ms);
    return false;
  }
  if (codel_dropping_) {
    if (now >= codel_drop_next_) {
      // Still above target: drop again, pacing up with sqrt(drop count)
      // (the CoDel control law).
      ++codel_drop_count_;
      codel_drop_next_ =
          now + to_duration(admission_.codel_interval_ms /
                            std::sqrt(static_cast<double>(codel_drop_count_)));
      return true;
    }
    return false;
  }
  if (now >= codel_first_above_) {
    // Sojourn stayed above target for a full interval: start dropping.
    codel_dropping_ = true;
    codel_drop_count_ = 1;
    codel_drop_next_ = now + to_duration(admission_.codel_interval_ms);
    return true;
  }
  return false;
}

void QueryPool::WorkerLoop() {
  using Clock = std::chrono::steady_clock;
  auto ms_between = [](Clock::time_point from, Clock::time_point to) {
    return std::chrono::duration<double, std::milli>(to - from).count();
  };
  for (;;) {
    Task task;
    bool codel_shed = false;
    double sojourn_ms = 0.0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      queue_ready_.wait(
          lock, [this] { return stopping_ || QueueDepthLocked() > 0; });
      if (QueueDepthLocked() == 0) return;  // stopping and drained
      size_t priority = 0;
      while (queues_[priority].empty()) ++priority;
      task = std::move(queues_[priority].front());
      queues_[priority].pop_front();
      queue_depth_->Set(static_cast<double>(QueueDepthLocked()));
      queue_space_.notify_one();
      Clock::time_point now = Clock::now();
      sojourn_ms = ms_between(task.enqueued_at, now);
      // CoDel-style queue-delay shedding: once dequeue sojourn stays above
      // target for an interval, shed (never the high-priority class).
      if (admission_.enabled && admission_.codel_target_ms > 0.0 &&
          priority != PriorityIndex(QueryPriority::kHigh)) {
        codel_shed = CodelShouldDropLocked(sojourn_ms, now);
      }
    }
    queue_wait_ms_->Observe(sojourn_ms);
    if (codel_shed) {
      shed_codel_->Add(1);
      RecordBrownoutOutcome(true);
      task.promise.set_value(Status::ResourceExhausted(
          "queue sojourn " + std::to_string(sojourn_ms) +
          "ms stayed above CoDel target " +
          std::to_string(admission_.codel_target_ms) + "ms; query shed"));
      completed_->Add(1);
      continue;
    }
    RecordBrownoutOutcome(false);
    Clock::time_point started = Clock::now();
    Result<QueryResult> result = mediator_->Query(task.text, task.options);
    service_ms_->Observe(ms_between(started, Clock::now()));
    task.promise.set_value(std::move(result));
    completed_->Add(1);
  }
}

void QueryPool::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_ && workers_.empty()) return;  // already shut down
    stopping_ = true;
  }
  queue_ready_.notify_all();
  queue_space_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  if (!workers_.empty()) {
    workers_.clear();
    mediator_->EndServing();
  }
}

QueryPoolStats QueryPool::stats() const {
  QueryPoolStats snapshot;
  snapshot.submitted = submitted_->Value();
  snapshot.completed = completed_->Value();
  snapshot.rejected = static_cast<uint64_t>(rejected_full_->Value()) +
                      static_cast<uint64_t>(rejected_shutdown_->Value());
  snapshot.shed_deadline = shed_deadline_->Value();
  snapshot.shed_codel = shed_codel_->Value();
  snapshot.shed_brownout = shed_brownout_->Value();
  return snapshot;
}

}  // namespace hermes
