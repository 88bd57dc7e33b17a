#ifndef HERMES_OBS_METRICS_H_
#define HERMES_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace hermes::obs {

/// Adds `delta` to an atomic double (no fetch_add for doubles on every
/// toolchain; a CAS loop is portable and uncontended in practice).
inline void AtomicAddDouble(std::atomic<double>& target, double delta) {
  double current = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(current, current + delta,
                                       std::memory_order_relaxed)) {
  }
}

/// Index of the calling thread's shard — a cheap stable hash of the thread
/// id, so concurrent writers of one instrument mostly touch distinct cache
/// lines (the same per-shard-atomics-merged-on-read pattern as the sharded
/// ResultCache).
size_t ThreadShardIndex(size_t num_shards);

/// Base class of every instrument a MetricsRegistry can expose.
class Metric {
 public:
  enum class Kind { kCounter, kFloatCounter, kGauge, kCallbackGauge,
                    kHistogram };

  virtual ~Metric() = default;
  virtual Kind kind() const = 0;
};

/// Monotonic integer counter. Lock-light: per-shard relaxed atomics, merged
/// on read. It only rises: a reader that wants one phase's count takes the
/// difference of two reads.
class Counter : public Metric {
 public:
  static constexpr size_t kShards = 16;

  Kind kind() const override { return Kind::kCounter; }

  void Add(uint64_t n = 1) {
    shards_[ThreadShardIndex(kShards)].v.fetch_add(n,
                                                   std::memory_order_relaxed);
  }
  uint64_t Value() const {
    uint64_t total = 0;
    for (const Shard& s : shards_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> v{0};
  };
  Shard shards_[kShards];
};

/// Monotonic floating-point counter (financial charges, simulated ms).
class FloatCounter : public Metric {
 public:
  static constexpr size_t kShards = 16;

  Kind kind() const override { return Kind::kFloatCounter; }

  void Add(double delta) {
    AtomicAddDouble(shards_[ThreadShardIndex(kShards)].v, delta);
  }
  double Value() const {
    double total = 0.0;
    for (const Shard& s : shards_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }

 private:
  struct alignas(64) Shard {
    std::atomic<double> v{0.0};
  };
  Shard shards_[kShards];
};

/// A value that goes up and down (cache byte usage, live worker count).
class Gauge : public Metric {
 public:
  Kind kind() const override { return Kind::kGauge; }

  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double delta) { AtomicAddDouble(value_, delta); }
  double Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// A gauge whose value is computed at exposition time (e.g. the byte usage
/// of a lock-striped cache). The callback runs on the exposing thread and
/// may take the owning structure's internal locks; it must not call back
/// into the registry.
class CallbackGauge : public Metric {
 public:
  explicit CallbackGauge(std::function<double()> fn) : fn_(std::move(fn)) {}

  Kind kind() const override { return Kind::kCallbackGauge; }
  double Value() const { return fn_ ? fn_() : 0.0; }

 private:
  std::function<double()> fn_;
};

/// A mergeable point-in-time view of a histogram. `counts` has one slot per
/// upper bound plus a final overflow (+Inf) slot.
struct HistogramSnapshot {
  std::vector<double> bounds;    ///< Ascending upper bounds (excl. +Inf).
  std::vector<uint64_t> counts;  ///< bounds.size() + 1 slots.
  double sum = 0.0;
  uint64_t count = 0;

  /// Adds `other` into this snapshot. Bounds must match (the associativity
  /// the concurrency tests assert only holds within one bucket layout).
  void Merge(const HistogramSnapshot& other);

  /// Linear-interpolated quantile estimate (q in [0,1]); 0 when empty.
  double Quantile(double q) const;
};

/// Fixed-bucket histogram over per-shard atomic bucket counts. Observations
/// land in the bucket of the smallest upper bound >= value (Prometheus `le`
/// semantics); values above every bound land in the overflow bucket.
class Histogram : public Metric {
 public:
  static constexpr size_t kShards = 8;

  /// `bounds` must be non-empty and strictly ascending.
  explicit Histogram(std::vector<double> bounds);

  /// `n` bounds: start, start*factor, start*factor^2, ...
  static std::vector<double> ExponentialBounds(double start, double factor,
                                               size_t n);
  /// `n` bounds: start, start+step, start+2*step, ...
  static std::vector<double> LinearBounds(double start, double step, size_t n);

  Kind kind() const override { return Kind::kHistogram; }

  void Observe(double value);
  HistogramSnapshot Snapshot() const;
  const std::vector<double>& bounds() const { return bounds_; }

 private:
  struct Shard {
    std::vector<std::atomic<uint64_t>> counts;  // bounds + overflow
    std::atomic<double> sum{0.0};
    std::atomic<uint64_t> count{0};
  };

  std::vector<double> bounds_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

enum class ExpositionFormat { kPrometheus, kJson };

/// Label set attached to one metric series, e.g. {{"domain", "video"}}.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// A process- or mediator-wide catalogue of named instruments, exposable as
/// Prometheus text or JSON.
///
/// Instruments are shared_ptr-owned: components keep a handle for their hot
/// path (updates never touch the registry lock) and the registry keeps one
/// for exposition. `GetOrAdd*` returns the existing instrument when the
/// same (name, labels) series was registered before with the same kind —
/// so a re-wired component (a replaced CIM wrapper, a new QueryPool over
/// the same mediator) keeps accumulating into one series instead of
/// resetting or duplicating it.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  std::shared_ptr<Counter> GetOrAddCounter(const std::string& name,
                                           const std::string& help,
                                           const Labels& labels = {});
  std::shared_ptr<FloatCounter> GetOrAddFloatCounter(const std::string& name,
                                                     const std::string& help,
                                                     const Labels& labels = {});
  std::shared_ptr<Gauge> GetOrAddGauge(const std::string& name,
                                       const std::string& help,
                                       const Labels& labels = {});
  /// `bounds` is consulted only when the series does not exist yet.
  std::shared_ptr<Histogram> GetOrAddHistogram(const std::string& name,
                                               const std::string& help,
                                               std::vector<double> bounds,
                                               const Labels& labels = {});
  /// Registers (or replaces — the callback captures component lifetimes)
  /// an exposition-time computed gauge.
  void RegisterCallbackGauge(const std::string& name, const std::string& help,
                             const Labels& labels,
                             std::function<double()> fn);

  /// Registers `metric` under (name, labels), replacing any existing
  /// series with that identity.
  void Register(const std::string& name, const std::string& help,
                const Labels& labels, std::shared_ptr<Metric> metric);

  /// Renders every registered series. Prometheus output groups series of
  /// one family under a single # HELP / # TYPE header; JSON output is an
  /// object with a "metrics" array.
  std::string Expose(ExpositionFormat format) const;
  std::string ExposePrometheus() const {
    return Expose(ExpositionFormat::kPrometheus);
  }
  std::string ExposeJson() const { return Expose(ExpositionFormat::kJson); }

  size_t size() const;

 private:
  struct Entry {
    std::string name;
    std::string help;
    Labels labels;
    std::shared_ptr<Metric> metric;
  };

  /// The series (name, labels) as a T, made from `args` (and replacing a
  /// series of another kind) when it is not one yet.
  template <typename T, typename... Args>
  std::shared_ptr<T> GetOrAdd(const std::string& name, const std::string& help,
                              const Labels& labels, Args&&... args);

  /// Existing entry with this identity, or nullptr. Caller holds mu_.
  Entry* FindLocked(const std::string& name, const Labels& labels);

  /// Replaces `existing`'s help and metric, or appends a new entry when
  /// `existing` is null. Caller holds mu_.
  void PutLocked(Entry* existing, const std::string& name,
                 const std::string& help, const Labels& labels,
                 std::shared_ptr<Metric> metric);

  mutable std::mutex mu_;
  /// Registration order, which the exposition keeps within a family.
  std::vector<Entry> entries_;
  /// Positions in entries_ by the hash of their (name, labels); FindLocked
  /// compares the entries of one hash.
  std::unordered_multimap<size_t, size_t> index_;
};

}  // namespace hermes::obs

#endif  // HERMES_OBS_METRICS_H_
