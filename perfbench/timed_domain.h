// Substrate-timing decorator: a Domain that forwards every call to the
// substrate it wraps and times it from outside. Registered as the terminal
// of a remote domain's call pipeline, it sees exactly the calls that reach
// the source — cache hits, breaker sheds and network losses never get here.
#ifndef PERFBENCH_TIMED_DOMAIN_H_
#define PERFBENCH_TIMED_DOMAIN_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "domain/domain.h"
#include "domain/pipeline.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// One timed source call, attributed to the query it ran for.
struct SourceSpan {
  uint64_t query_id = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  const std::string* domain = nullptr;  ///< Owned by the TimedDomain.
};

/// Shared sink of every TimedDomain of one mediator. Off, a call costs one
/// relaxed load; on, two clock reads, two atomic adds and (until the span
/// buffer is full) one short lock. Thread-safe.
class SourceClock {
 public:
  explicit SourceClock(size_t max_spans) : max_spans_(max_spans) {}

  void set_on(bool on) { on_.store(on, std::memory_order_relaxed); }
  bool on() const { return on_.load(std::memory_order_relaxed); }

  void Record(const SourceSpan& span) {
    ns_.fetch_add(static_cast<uint64_t>(span.end_ns - span.start_ns),
                  std::memory_order_relaxed);
    calls_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mu_);
    if (spans_.size() < max_spans_) spans_.push_back(span);
  }

  uint64_t ns() const { return ns_.load(std::memory_order_relaxed); }
  uint64_t calls() const { return calls_.load(std::memory_order_relaxed); }

  /// The recorded spans; call only after every query has finished.
  const std::vector<SourceSpan>& spans() const { return spans_; }

 private:
  const size_t max_spans_;
  std::atomic<bool> on_{false};
  std::atomic<uint64_t> ns_{0};
  std::atomic<uint64_t> calls_{0};
  std::mutex mu_;
  std::vector<SourceSpan> spans_;
};

/// Forwards CallOutput unchanged; only the SourceClock learns of the call.
class TimedDomain : public hermes::Domain {
 public:
  TimedDomain(std::shared_ptr<hermes::Domain> inner, SourceClock* clock)
      : inner_(std::move(inner)), clock_(clock) {}

  const std::string& name() const override { return inner_->name(); }
  std::vector<hermes::FunctionInfo> Functions() const override {
    return inner_->Functions();
  }
  bool HasCostModel() const override { return inner_->HasCostModel(); }
  hermes::Result<hermes::CostVector> EstimateCost(
      const hermes::lang::DomainCallSpec& pattern) const override {
    return inner_->EstimateCost(pattern);
  }

  hermes::Result<hermes::CallOutput> Run(
      const hermes::DomainCall& call) override {
    hermes::CallContext scratch;
    return Run(scratch, call);
  }

  hermes::Result<hermes::CallOutput> Run(
      hermes::CallContext& ctx, const hermes::DomainCall& call) override {
    if (!clock_->on()) return inner_->Run(ctx, call);
    SourceSpan span;
    span.query_id = ctx.query_id;
    span.domain = &inner_->name();
    span.start_ns = NowNs();
    hermes::Result<hermes::CallOutput> out = inner_->Run(ctx, call);
    span.end_ns = NowNs();
    clock_->Record(span);
    return out;
  }

 private:
  std::shared_ptr<hermes::Domain> inner_;
  SourceClock* clock_;
};

/// `inner` itself when `clock` is null, else `inner` behind a TimedDomain.
inline std::shared_ptr<hermes::Domain> Decorate(
    std::shared_ptr<hermes::Domain> inner, SourceClock* clock) {
  if (clock == nullptr) return inner;
  return std::make_shared<TimedDomain>(std::move(inner), clock);
}

}  // namespace perfbench

#endif  // PERFBENCH_TIMED_DOMAIN_H_
