#include "obs/flight_recorder.h"

#include <algorithm>
#include <atomic>
#include <cassert>

#include "common/strings.h"

namespace hermes::obs {

namespace {

/// Monotone source of recorder ids. Starts at 1 so the "empty" TLS cache
/// entry (id 0) never matches a live recorder.
std::atomic<uint64_t> g_next_recorder_id{1};

/// Per-thread cache of (recorder id -> ring) resolutions. A thread usually
/// talks to one recorder (its mediator's); tests create several, so this is
/// a small vector rather than a single slot. Entries for destroyed
/// recorders are harmless tombstones: their ids are never issued again.
struct TlsRingCache {
  std::vector<std::pair<uint64_t, void*>> entries;
};

TlsRingCache& LocalCache() {
  thread_local TlsRingCache cache;
  return cache;
}

}  // namespace

const char* FlightEventKindName(FlightEventKind kind) {
  switch (kind) {
    case FlightEventKind::kQueryStart: return "query_start";
    case FlightEventKind::kQueryEnd: return "query_end";
    case FlightEventKind::kCallIssued: return "call_issued";
    case FlightEventKind::kCallCompleted: return "call_completed";
    case FlightEventKind::kCallFailed: return "call_failed";
    case FlightEventKind::kBreakerTransition: return "breaker_transition";
    case FlightEventKind::kScatterFanout: return "scatter_fanout";
    case FlightEventKind::kArenaHighWater: return "arena_high_water";
    case FlightEventKind::kDriftExceeded: return "drift_exceeded";
    case FlightEventKind::kPlanCacheHit: return "plan_cache_hit";
    case FlightEventKind::kPlanCacheMiss: return "plan_cache_miss";
    case FlightEventKind::kPlanCacheInvalidate: return "plan_cache_invalidate";
    case FlightEventKind::kReplan: return "replan";
    case FlightEventKind::kBrownout: return "brownout";
#define HERMES_SPAN_KIND(id, stem, label, cat)          \
  case FlightEventKind::k##id##Begin: return stem "_begin"; \
  case FlightEventKind::k##id##End: return stem "_end";
      HERMES_SPAN_KINDS(HERMES_SPAN_KIND)
#undef HERMES_SPAN_KIND
  }
  return "unknown";
}

const char* CacheLookupName(CacheLookup lookup) {
  switch (lookup) {
    case CacheLookup::kNone: return "";
    case CacheLookup::kExactHit: return "exact-hit";
    case CacheLookup::kEqualityHit: return "equality-hit";
    case CacheLookup::kPartialHit: return "partial-hit";
    case CacheLookup::kMiss: return "miss";
  }
  return "unknown";
}

std::string FlightEvent::ToString() const {
  std::string out = "[q" + std::to_string(query_id) + " #" +
                    std::to_string(seq) + " t=" + FormatNumber(sim_ms) +
                    "ms] " + FlightEventKindName(kind);
  if (site[0] != '\0') out += " site=" + site_str();
  if (domain[0] != '\0') out += " domain=" + domain_str();
  if (detail[0] != '\0') out += " detail=" + detail_str();
  if (value != 0.0) out += " value=" + FormatNumber(value);
  if (aux != 0) out += " aux=" + std::to_string(aux);
  if (begin_seq != 0) out += " begin=#" + std::to_string(begin_seq);
  if (failed) out += " failed";
  if (cache != CacheLookup::kNone) {
    out += std::string(" cache=") + CacheLookupName(cache);
  }
  if (degraded) out += " degraded";
  return out;
}

std::string FlightEvent::ToJson() const {
  std::string out = "{\"query_id\":" + std::to_string(query_id) +
                    ",\"seq\":" + std::to_string(seq) + ",\"kind\":\"" +
                    FlightEventKindName(kind) +
                    "\",\"sim_ms\":" + FormatNumber(sim_ms) +
                    ",\"value\":" + FormatNumber(value) +
                    ",\"aux\":" + std::to_string(aux);
  if (site[0] != '\0') out += ",\"site\":\"" + JsonEscape(site_str()) + "\"";
  if (domain[0] != '\0') {
    out += ",\"domain\":\"" + JsonEscape(domain_str()) + "\"";
  }
  if (detail[0] != '\0') {
    out += ",\"detail\":\"" + JsonEscape(detail_str()) + "\"";
  }
  if (begin_seq != 0) out += ",\"begin_seq\":" + std::to_string(begin_seq);
  if (failed) out += ",\"failed\":true";
  if (cache != CacheLookup::kNone) {
    out += std::string(",\"cache\":\"") + CacheLookupName(cache) + "\"";
  }
  if (degraded) out += ",\"degraded\":true";
  if (host_ns != 0) out += ",\"host_ns\":" + std::to_string(host_ns);
  out += "}";
  return out;
}

FlightRecorder::FlightRecorder(size_t ring_capacity)
    : id_(g_next_recorder_id.fetch_add(1, std::memory_order_relaxed)),
      capacity_(ring_capacity == 0 ? 1 : ring_capacity) {}

FlightRecorder::~FlightRecorder() = default;

FlightRecorder::Ring* FlightRecorder::LocalRing() {
  TlsRingCache& cache = LocalCache();
  for (const auto& [id, ring] : cache.entries) {
    if (id == id_) return static_cast<Ring*>(ring);
  }
  auto owned = std::make_unique<Ring>();
  owned->slots.resize(capacity_);
  Ring* ring = owned.get();
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    rings_.push_back(std::move(owned));
  }
  cache.entries.emplace_back(id_, ring);
  return ring;
}

void FlightRecorder::Emit(const FlightEvent& ev) {
  Emit(ev, EventStamp{ev.query_id, ev.seq, ev.host_ns});
}

void FlightRecorder::Emit(const FlightEvent& ev, const EventStamp& stamp) {
  Ring* ring = LocalRing();
  // The writer is the only thread that ever takes this mutex outside a
  // snapshot, so the lock is uncontended on the hot path.
  std::lock_guard<std::mutex> lock(ring->mu);
  FlightEvent& slot = ring->slots[ring->next];
  slot = ev;
  stamp.Apply(slot);
  if (++ring->next == capacity_) ring->next = 0;
  ++ring->total;
  if (ring->size < capacity_) {
    ++ring->size;
  } else {
    ++ring->dropped;
  }
  assert(ring->next < capacity_);
  assert(ring->size <= capacity_);
  assert(ring->total == ring->size + ring->dropped);
}

uint64_t FlightRecorder::Sum(uint64_t Ring::*field) const {
  std::lock_guard<std::mutex> registry_lock(registry_mu_);
  uint64_t sum = 0;
  for (const auto& ring : rings_) {
    std::lock_guard<std::mutex> ring_lock(ring->mu);
    sum += (*ring).*field;
  }
  return sum;
}

std::vector<FlightEvent> FlightRecorder::Resident(
    const uint64_t* query_id) const {
  std::vector<FlightEvent> out;
  std::lock_guard<std::mutex> registry_lock(registry_mu_);
  for (const auto& ring : rings_) {
    std::lock_guard<std::mutex> ring_lock(ring->mu);
    size_t start = (ring->next + capacity_ - ring->size) % capacity_;
    for (size_t i = 0; i < ring->size; ++i) {
      const FlightEvent& ev = ring->slots[(start + i) % capacity_];
      if (query_id == nullptr || ev.query_id == *query_id) out.push_back(ev);
    }
  }
  return out;
}

std::vector<FlightEvent> FlightRecorder::SnapshotQuery(
    uint64_t query_id) const {
  std::vector<FlightEvent> out = Resident(&query_id);
  std::sort(out.begin(), out.end(),
            [](const FlightEvent& a, const FlightEvent& b) {
              return a.seq < b.seq;
            });
  return out;
}

std::vector<FlightEvent> FlightRecorder::SnapshotAll() const {
  std::vector<FlightEvent> out = Resident(nullptr);
  std::sort(out.begin(), out.end(),
            [](const FlightEvent& a, const FlightEvent& b) {
              if (a.sim_ms != b.sim_ms) return a.sim_ms < b.sim_ms;
              if (a.query_id != b.query_id) return a.query_id < b.query_id;
              return a.seq < b.seq;
            });
  return out;
}

size_t FlightRecorder::ring_count() const {
  std::lock_guard<std::mutex> lock(registry_mu_);
  return rings_.size();
}

void FlightRecorder::BindMetrics(MetricsRegistry& registry) {
  registry.RegisterCallbackGauge(
      "hermes_flight_events_total",
      "Flight-recorder events emitted since the recorder was created.", {},
      [this] { return static_cast<double>(total_events()); });
  registry.RegisterCallbackGauge(
      "hermes_flight_events_dropped_total",
      "Flight-recorder events overwritten by ring wraparound.", {},
      [this] { return static_cast<double>(dropped_events()); });
}

}  // namespace hermes::obs
