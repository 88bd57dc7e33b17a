#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <thread>

#include "common/strings.h"

namespace hermes::obs {

size_t ThreadShardIndex(size_t num_shards) {
  static thread_local const size_t hashed =
      std::hash<std::thread::id>()(std::this_thread::get_id());
  return hashed % num_shards;
}

// ---- Histogram --------------------------------------------------------------

void HistogramSnapshot::Merge(const HistogramSnapshot& other) {
  if (counts.empty()) {
    *this = other;
    return;
  }
  if (other.counts.empty()) return;
  for (size_t i = 0; i < counts.size() && i < other.counts.size(); ++i) {
    counts[i] += other.counts[i];
  }
  sum += other.sum;
  count += other.count;
}

double HistogramSnapshot::Quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::min(std::max(q, 0.0), 1.0);
  uint64_t rank = static_cast<uint64_t>(std::ceil(q * count));
  if (rank == 0) rank = 1;
  uint64_t seen = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    seen += counts[i];
    if (seen >= rank) {
      // Interpolate within [lower, upper) of the bucket that crossed.
      double lower = i == 0 ? 0.0 : bounds[i - 1];
      double upper = i < bounds.size() ? bounds[i] : bounds.back();
      uint64_t in_bucket = counts[i];
      uint64_t before = seen - in_bucket;
      double frac = in_bucket == 0
                        ? 1.0
                        : static_cast<double>(rank - before) /
                              static_cast<double>(in_bucket);
      return lower + (upper - lower) * frac;
    }
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  shards_.reserve(kShards);
  for (size_t i = 0; i < kShards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->counts = std::vector<std::atomic<uint64_t>>(bounds_.size() + 1);
    shards_.push_back(std::move(shard));
  }
}

std::vector<double> Histogram::ExponentialBounds(double start, double factor,
                                                 size_t n) {
  std::vector<double> bounds;
  bounds.reserve(n);
  double v = start;
  for (size_t i = 0; i < n; ++i) {
    bounds.push_back(v);
    v *= factor;
  }
  return bounds;
}

std::vector<double> Histogram::LinearBounds(double start, double step,
                                            size_t n) {
  std::vector<double> bounds;
  bounds.reserve(n);
  for (size_t i = 0; i < n; ++i) bounds.push_back(start + step * i);
  return bounds;
}

void Histogram::Observe(double value) {
  Shard& shard = *shards_[ThreadShardIndex(kShards)];
  size_t bucket =
      std::lower_bound(bounds_.begin(), bounds_.end(), value) - bounds_.begin();
  shard.counts[bucket].fetch_add(1, std::memory_order_relaxed);
  AtomicAddDouble(shard.sum, value);
  shard.count.fetch_add(1, std::memory_order_relaxed);
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  snap.bounds = bounds_;
  snap.counts.assign(bounds_.size() + 1, 0);
  for (const auto& shard : shards_) {
    for (size_t i = 0; i < shard->counts.size(); ++i) {
      snap.counts[i] += shard->counts[i].load(std::memory_order_relaxed);
    }
    snap.sum += shard->sum.load(std::memory_order_relaxed);
    snap.count += shard->count.load(std::memory_order_relaxed);
  }
  return snap;
}

// ---- Registry ---------------------------------------------------------------

namespace {

std::string PrometheusEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

/// `{k="v",...}` rendering; `extra` appends one more label (histogram le).
std::string PrometheusLabels(const Labels& labels,
                             const std::string& extra_key = "",
                             const std::string& extra_value = "") {
  if (labels.empty() && extra_key.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ",";
    first = false;
    out += k + "=\"" + PrometheusEscape(v) + "\"";
  }
  if (!extra_key.empty()) {
    if (!first) out += ",";
    out += extra_key + "=\"" + PrometheusEscape(extra_value) + "\"";
  }
  out += "}";
  return out;
}

const char* PrometheusType(Metric::Kind kind) {
  switch (kind) {
    case Metric::Kind::kCounter:
    case Metric::Kind::kFloatCounter:
      return "counter";
    case Metric::Kind::kGauge:
    case Metric::Kind::kCallbackGauge:
      return "gauge";
    case Metric::Kind::kHistogram:
      return "histogram";
  }
  return "untyped";
}

double ScalarValue(const Metric& metric) {
  switch (metric.kind()) {
    case Metric::Kind::kCounter:
      return static_cast<double>(static_cast<const Counter&>(metric).Value());
    case Metric::Kind::kFloatCounter:
      return static_cast<const FloatCounter&>(metric).Value();
    case Metric::Kind::kGauge:
      return static_cast<const Gauge&>(metric).Value();
    case Metric::Kind::kCallbackGauge:
      return static_cast<const CallbackGauge&>(metric).Value();
    case Metric::Kind::kHistogram:
      return 0.0;  // histograms are rendered bucket-wise
  }
  return 0.0;
}

/// Hash of a series identity (name and labels), for the registry's index.
size_t IdentityHash(const std::string& name, const Labels& labels) {
  std::hash<std::string> hash;
  size_t h = hash(name);
  for (const auto& [k, v] : labels) {
    h = h * 31 + hash(k);
    h = h * 31 + hash(v);
  }
  return h;
}

}  // namespace

MetricsRegistry::Entry* MetricsRegistry::FindLocked(const std::string& name,
                                                    const Labels& labels) {
  auto [begin, end] = index_.equal_range(IdentityHash(name, labels));
  for (auto it = begin; it != end; ++it) {
    Entry& entry = entries_[it->second];
    if (entry.name == name && entry.labels == labels) return &entry;
  }
  return nullptr;
}

void MetricsRegistry::PutLocked(Entry* existing, const std::string& name,
                                const std::string& help, const Labels& labels,
                                std::shared_ptr<Metric> metric) {
  if (existing != nullptr) {
    existing->help = help;
    existing->metric = std::move(metric);
    return;
  }
  index_.emplace(IdentityHash(name, labels), entries_.size());
  entries_.push_back(Entry{name, help, labels, std::move(metric)});
}

void MetricsRegistry::Register(const std::string& name, const std::string& help,
                               const Labels& labels,
                               std::shared_ptr<Metric> metric) {
  std::lock_guard<std::mutex> lock(mu_);
  PutLocked(FindLocked(name, labels), name, help, labels, std::move(metric));
}

template <typename T, typename... Args>
std::shared_ptr<T> MetricsRegistry::GetOrAdd(const std::string& name,
                                             const std::string& help,
                                             const Labels& labels,
                                             Args&&... args) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry* existing = FindLocked(name, labels);
  if (existing != nullptr) {
    if (auto typed = std::dynamic_pointer_cast<T>(existing->metric)) {
      return typed;
    }
  }
  auto metric = std::make_shared<T>(std::forward<Args>(args)...);
  PutLocked(existing, name, help, labels, metric);
  return metric;
}

std::shared_ptr<Counter> MetricsRegistry::GetOrAddCounter(
    const std::string& name, const std::string& help, const Labels& labels) {
  return GetOrAdd<Counter>(name, help, labels);
}

std::shared_ptr<FloatCounter> MetricsRegistry::GetOrAddFloatCounter(
    const std::string& name, const std::string& help, const Labels& labels) {
  return GetOrAdd<FloatCounter>(name, help, labels);
}

std::shared_ptr<Gauge> MetricsRegistry::GetOrAddGauge(const std::string& name,
                                                      const std::string& help,
                                                      const Labels& labels) {
  return GetOrAdd<Gauge>(name, help, labels);
}

std::shared_ptr<Histogram> MetricsRegistry::GetOrAddHistogram(
    const std::string& name, const std::string& help,
    std::vector<double> bounds, const Labels& labels) {
  return GetOrAdd<Histogram>(name, help, labels, std::move(bounds));
}

void MetricsRegistry::RegisterCallbackGauge(const std::string& name,
                                            const std::string& help,
                                            const Labels& labels,
                                            std::function<double()> fn) {
  Register(name, help, labels,
           std::make_shared<CallbackGauge>(std::move(fn)));
}

size_t MetricsRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

std::string MetricsRegistry::Expose(ExpositionFormat format) const {
  // Copy the catalogue under the lock, then render lock-free (callback
  // gauges may take component locks while computing their value).
  std::vector<Entry> entries;
  {
    std::lock_guard<std::mutex> lock(mu_);
    entries = entries_;
  }
  // Prometheus requires all series of one family to be consecutive.
  std::stable_sort(entries.begin(), entries.end(),
                   [](const Entry& a, const Entry& b) { return a.name < b.name; });

  std::string out;
  if (format == ExpositionFormat::kPrometheus) {
    const std::string* prev_family = nullptr;
    for (const Entry& entry : entries) {
      if (prev_family == nullptr || *prev_family != entry.name) {
        out += "# HELP " + entry.name + " " + PrometheusEscape(entry.help) +
               "\n";
        out += "# TYPE " + entry.name + " " +
               PrometheusType(entry.metric->kind()) + "\n";
        prev_family = &entry.name;
      }
      if (entry.metric->kind() == Metric::Kind::kHistogram) {
        HistogramSnapshot snap =
            static_cast<const Histogram&>(*entry.metric).Snapshot();
        uint64_t cumulative = 0;
        for (size_t i = 0; i < snap.bounds.size(); ++i) {
          cumulative += snap.counts[i];
          out += entry.name + "_bucket" +
                 PrometheusLabels(entry.labels, "le",
                                  FormatNumber(snap.bounds[i])) +
                 " " + std::to_string(cumulative) + "\n";
        }
        cumulative += snap.counts.back();
        out += entry.name + "_bucket" +
               PrometheusLabels(entry.labels, "le", "+Inf") + " " +
               std::to_string(cumulative) + "\n";
        out += entry.name + "_sum" + PrometheusLabels(entry.labels) + " " +
               FormatNumber(snap.sum) + "\n";
        out += entry.name + "_count" + PrometheusLabels(entry.labels) + " " +
               std::to_string(snap.count) + "\n";
      } else {
        out += entry.name + PrometheusLabels(entry.labels) + " " +
               FormatNumber(ScalarValue(*entry.metric)) + "\n";
      }
    }
    return out;
  }

  // JSON exposition.
  out = "{\"metrics\":[";
  bool first = true;
  for (const Entry& entry : entries) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"" + JsonEscape(entry.name) + "\",\"help\":\"" +
           JsonEscape(entry.help) + "\",\"type\":\"" +
           PrometheusType(entry.metric->kind()) + "\",\"labels\":{";
    bool first_label = true;
    for (const auto& [k, v] : entry.labels) {
      if (!first_label) out += ",";
      first_label = false;
      out += "\"" + JsonEscape(k) + "\":\"" + JsonEscape(v) + "\"";
    }
    out += "}";
    if (entry.metric->kind() == Metric::Kind::kHistogram) {
      HistogramSnapshot snap =
          static_cast<const Histogram&>(*entry.metric).Snapshot();
      out += ",\"buckets\":[";
      for (size_t i = 0; i < snap.counts.size(); ++i) {
        if (i > 0) out += ",";
        std::string le =
            i < snap.bounds.size() ? FormatNumber(snap.bounds[i]) : "\"+Inf\"";
        out += "{\"le\":" + le + ",\"count\":" + std::to_string(snap.counts[i]) +
               "}";
      }
      out += "],\"sum\":" + FormatNumber(snap.sum) +
             ",\"count\":" + std::to_string(snap.count);
    } else {
      out += ",\"value\":" + FormatNumber(ScalarValue(*entry.metric));
    }
    out += "}";
  }
  out += "]}";
  return out;
}

}  // namespace hermes::obs
