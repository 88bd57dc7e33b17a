#ifndef HERMES_OBS_FLIGHT_RECORDER_H_
#define HERMES_OBS_FLIGHT_RECORDER_H_

#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"

namespace hermes::obs {

/// The span kinds besides the query and domain-call spans, as
/// X(Id, event-name stem, span label, span category). Each is a pair of
/// FlightEventKinds, k<Id>Begin and k<Id>End; the derived span is named
/// the label followed by the begin event's `detail`.
#define HERMES_SPAN_KINDS(X)                                    \
  X(Optimize, "optimize", "optimize", "optimizer")              \
  X(Rule, "rule", "rule:", "rule")                              \
  X(Op, "op", "op:", "operator")                                \
  X(NetworkHop, "network_hop", "network-hop", "net")            \
  X(RetryWait, "retry_wait", "retry-wait", "resilience")        \
  X(Failover, "failover", "failover", "resilience")             \
  X(BreakerShed, "breaker_shed", "breaker-shed", "resilience")  \
  X(LoadShed, "load_shed", "load-shed", "overload")             \
  X(Hedge, "hedge", "hedge", "overload")

/// What happened. The recorder is a diagnostic black box, not a metrics
/// pipeline: kinds are coarse and the free-form `detail` field carries the
/// discriminating information ("open", "exact-hit", ...).
///
/// Spans are event pairs. `kQueryStart`/`kQueryEnd` bracket the query,
/// `kCallIssued` and `kCallCompleted`/`kCallFailed` a domain call, and the
/// HERMES_SPAN_KINDS pairs the rest. An end event names its opener by
/// `begin_seq`; obs::Tracer derives the span tree from that. Each action on
/// a call's path is one span whose own two events carry what happened to
/// it: the begin event what was known when it started (site, domain, the
/// retry attempt, the shed limit, the hedge trigger), the end event the
/// result (the cache outcome, the retry cause and backoff, `win` or
/// `cancelled`). Begin events of these spans leave `detail` empty, since
/// it would extend the span's name.
///
/// A call through a CIM emits no events of its own lookup: the call's end
/// event carries the lookup's outcome (`FlightEvent::cache`), and
/// obs::Tracer derives the `cache-lookup` span from it at export.
enum class FlightEventKind : uint8_t {
  kQueryStart = 0,
  kQueryEnd,
  kCallIssued,
  kCallCompleted,
  kCallFailed,
  kBreakerTransition,
  kScatterFanout,
  kArenaHighWater,
  kDriftExceeded,
  kPlanCacheHit,
  kPlanCacheMiss,
  kPlanCacheInvalidate,
  kReplan,
  kBrownout,
#define HERMES_SPAN_KIND(id, stem, label, cat) k##id##Begin, k##id##End,
  HERMES_SPAN_KINDS(HERMES_SPAN_KIND)
#undef HERMES_SPAN_KIND
};

const char* FlightEventKindName(FlightEventKind kind);

/// The outcome of the CIM lookup a domain call went through, carried on
/// the call's end event; kNone for a call that reached no CIM.
enum class CacheLookup : uint8_t {
  kNone = 0,
  kExactHit,
  kEqualityHit,
  kPartialHit,
  kMiss,
};

/// "exact-hit", "equality-hit", "partial-hit" or "miss"; "" for kNone.
const char* CacheLookupName(CacheLookup lookup);

/// Host steady-clock nanoseconds, the time base of FlightEvent::host_ns.
inline uint64_t HostNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One structured recorder event. Trivially copyable by design: rings hold
/// events by value, snapshots memcpy them out, and nothing here allocates.
/// Strings are fixed-size truncating buffers — diagnostics want the first
/// 20 characters of a site name far more than they want a heap pointer.
struct FlightEvent {
  static constexpr size_t kSiteChars = 24;
  static constexpr size_t kDomainChars = 24;
  static constexpr size_t kDetailChars = 32;

  uint64_t query_id = 0;  ///< 0 = not attributable to one query.
  /// Host steady clock at emission (HostNowNs). The one field that differs
  /// between replays, so equality ignores it.
  uint64_t host_ns = 0;
  /// Per-query emission order, from 1 (deterministic); 0 = no event.
  uint32_t seq = 0;
  /// On a span-end event the `seq` of the event that opened the span; 0 on
  /// every other event.
  uint32_t begin_seq = 0;
  FlightEventKind kind = FlightEventKind::kQueryStart;
  /// Span-end kinds: the span failed; `detail` holds the cause and `site`
  /// where it happened (the full Status text stays with the caller).
  bool failed = false;
  /// Call-end kinds: the outcome of the call's CIM lookup, and whether the
  /// lookup served cached answers for an unreachable source. Both sit in
  /// what was padding, so the event keeps its size.
  CacheLookup cache = CacheLookup::kNone;
  bool degraded = false;
  double sim_ms = 0.0;    ///< Simulated clock at emission.
  double value = 0.0;     ///< Kind-specific magnitude (ms, bytes, fanout).
  uint64_t aux = 0;       ///< Kind-specific count (attempt, rows).
  char site[kSiteChars] = {};
  char domain[kDomainChars] = {};
  char detail[kDetailChars] = {};

  /// An event of `kind` at simulated time `sim_ms`. CallContext::Emit
  /// stamps the query id, seq and host time.
  static FlightEvent At(FlightEventKind kind, double sim_ms) {
    FlightEvent ev;
    ev.kind = kind;
    ev.sim_ms = sim_ms;
    return ev;
  }
  /// The event closing the span opened by the event numbered `begin_seq`.
  static FlightEvent End(FlightEventKind kind, uint32_t begin_seq,
                         double sim_ms) {
    FlightEvent ev = At(kind, sim_ms);
    ev.begin_seq = begin_seq;
    return ev;
  }

  FlightEvent& set_site(std::string_view s) { return Set(site, kSiteChars, s); }
  FlightEvent& set_domain(std::string_view s) {
    return Set(domain, kDomainChars, s);
  }
  FlightEvent& set_detail(std::string_view s) {
    return Set(detail, kDetailChars, s);
  }
  /// Marks a span-end event failed with `cause` at `where`.
  FlightEvent& set_failed(std::string_view cause,
                          std::string_view where = {}) {
    failed = true;
    set_site(where);
    return set_detail(cause);
  }

  std::string site_str() const { return std::string(site); }
  std::string domain_str() const { return std::string(domain); }
  std::string detail_str() const { return std::string(detail); }

  bool operator==(const FlightEvent& other) const {
    return query_id == other.query_id && seq == other.seq &&
           begin_seq == other.begin_seq && kind == other.kind &&
           failed == other.failed && cache == other.cache &&
           degraded == other.degraded && sim_ms == other.sim_ms &&
           value == other.value && aux == other.aux &&
           std::memcmp(site, other.site, kSiteChars) == 0 &&
           std::memcmp(domain, other.domain, kDomainChars) == 0 &&
           std::memcmp(detail, other.detail, kDetailChars) == 0;
  }

  /// One-line rendering for slow-query logs and bundle manifests.
  std::string ToString() const;
  /// JSON object rendering for bundle `events.json`.
  std::string ToJson() const;

 private:
  FlightEvent& Set(char* dst, size_t cap, std::string_view s) {
    size_t n = s.size() < cap - 1 ? s.size() : cap - 1;
    if (n != 0) std::memcpy(dst, s.data(), n);  // s.data() may be null
    dst[n] = '\0';
    return *this;
  }
};

static_assert(sizeof(FlightEvent) == 136,
              "FlightEvent's fields fill its padding; a new one must not "
              "grow every ring slot");

/// What CallContext::Emit stamps on an event as each sink copies it.
struct EventStamp {
  uint64_t query_id = 0;
  uint32_t seq = 0;
  uint64_t host_ns = 0;

  void Apply(FlightEvent& ev) const {
    ev.query_id = query_id;
    ev.seq = seq;
    ev.host_ns = host_ns;
  }
};

/// A lock-light per-thread flight recorder: each writer thread gets its own
/// bounded ring of FlightEvents (overwrite-oldest), so emission never
/// contends with other writers. Snapshots walk every ring under its (in
/// practice uncontended) mutex without stopping the world.
///
/// Rings are keyed in thread-local storage by a process-unique recorder id
/// that is never reused, so a cached ring pointer can never dangle into a
/// different (later) recorder: a destroyed recorder's id simply never
/// matches again.
class FlightRecorder {
 public:
  explicit FlightRecorder(size_t ring_capacity = 4096);
  ~FlightRecorder();

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Appends `ev` to the calling thread's ring, evicting the oldest event
  /// when the ring is full.
  void Emit(const FlightEvent& ev);
  /// Emit() of `ev` stamped with `stamp` as it is copied into the ring.
  void Emit(const FlightEvent& ev, const EventStamp& stamp);

  /// All events for `query_id` across every ring, ordered by `seq`. A
  /// query executes on one thread, so its events live in one ring in
  /// emission order — the sort makes the result ring-layout independent.
  std::vector<FlightEvent> SnapshotQuery(uint64_t query_id) const;

  /// Every resident event across all rings, ordered by
  /// (sim_ms, query_id, seq).
  std::vector<FlightEvent> SnapshotAll() const;

  size_t ring_capacity() const { return capacity_; }
  size_t ring_count() const;
  uint64_t total_events() const { return Sum(&Ring::total); }
  uint64_t dropped_events() const { return Sum(&Ring::dropped); }

  /// Registers `hermes_flight_events_total` / `hermes_flight_events_dropped_total`.
  void BindMetrics(MetricsRegistry& registry);

 private:
  /// Cache-line aligned, and counted per ring rather than in shared
  /// atomics, so writers on different threads share no line.
  struct alignas(64) Ring {
    mutable std::mutex mu;
    std::vector<FlightEvent> slots;  ///< capacity_ entries, lazily sized.
    size_t next = 0;                 ///< Next write position.
    size_t size = 0;                 ///< Resident events (<= capacity).
    uint64_t total = 0;              ///< Events written.
    uint64_t dropped = 0;            ///< Overwritten events.
  };

  Ring* LocalRing();
  /// Every resident event, or only those of `*query_id` when non-null.
  std::vector<FlightEvent> Resident(const uint64_t* query_id) const;
  /// `field` summed over every ring.
  uint64_t Sum(uint64_t Ring::*field) const;

  const uint64_t id_;  ///< Process-unique, never reused.
  const size_t capacity_;

  mutable std::mutex registry_mu_;
  std::vector<std::unique_ptr<Ring>> rings_;
};

}  // namespace hermes::obs

#endif  // HERMES_OBS_FLIGHT_RECORDER_H_
