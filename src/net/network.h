#ifndef HERMES_NET_NETWORK_H_
#define HERMES_NET_NETWORK_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "common/rng.h"
#include "net/site.h"
#include "obs/metrics.h"

namespace hermes::net {

/// Aggregate traffic statistics of the network simulator — a plain
/// snapshot view over the simulator's live obs counters (the one source of
/// truth, also exposable through a MetricsRegistry).
struct NetworkStats {
  uint64_t calls = 0;           ///< Remote calls attempted.
  uint64_t failures = 0;        ///< Calls lost to site unavailability.
  uint64_t bytes_transferred = 0;
  double total_charge = 0.0;    ///< Financial charges accrued.
  double total_network_ms = 0.0;
};

/// Deterministic wide-area-network simulator.
///
/// The simulator never sleeps: it *plans* the latency profile of a remote
/// call (connection, request flight, per-byte transfer, jitter,
/// availability) and the caller folds those times into the simulated
/// CallOutput latencies. All randomness is derived from the constructor
/// seed plus the call hash, so a given experiment replays identically.
///
/// Concurrency: all methods are thread-safe. Statistics are relaxed
/// atomics merged into a snapshot by `stats()`. Randomness comes in two
/// flavours:
///  - the legacy shared stream (two-argument `PlanCall`), which folds a
///    global sequence counter into each draw — bit-identical to the
///    historical single-threaded behaviour, but draw values depend on the
///    global interleaving of calls;
///  - caller-owned streams (three-argument `PlanCall`), where the caller
///    passes an `Rng` it seeded per query via `Rng::StreamSeed(seed(),
///    query_id)` — draws then depend only on that stream's own history,
///    so per-query latencies replay identically at any thread count.
class NetworkSimulator {
 public:
  explicit NetworkSimulator(uint64_t seed = 1996) : seed_(seed) {}

  NetworkSimulator(const NetworkSimulator&) = delete;
  NetworkSimulator& operator=(const NetworkSimulator&) = delete;

  /// The planned latency profile of shipping one call to `site`.
  struct Transfer {
    bool available = true;
    double request_ms = 0.0;       ///< connect + request flight time.
    double response_lag_ms = 0.0;  ///< Return flight time (first byte).
    double per_byte_ms = 0.0;      ///< Transfer cost per response byte.
    double penalty_ms = 0.0;       ///< Retry timeout when unavailable.
  };

  /// Plans a call using the legacy shared stream. `call_hash`
  /// individualizes jitter per distinct call; an internal sequence counter
  /// makes *repetitions* of the same call jitter independently.
  /// Counts the call in the global statistics.
  Transfer PlanCall(const SiteParams& site, size_t call_hash);

  /// Plans a call drawing jitter/availability from the caller's own
  /// `stream` (per-query determinism; see class comment). The shared
  /// sequence counter is not consulted or advanced.
  /// Counts the call in the global statistics.
  Transfer PlanCall(const SiteParams& site, size_t call_hash, Rng& stream);

  /// Records a completed transfer of `bytes` answer bytes to `site`,
  /// accumulating byte counts and financial charges.
  /// Returns the financial charge for this call.
  double RecordTransfer(const SiteParams& site, size_t bytes,
                        double network_ms);

  /// Records a failed (unavailable) call.
  void RecordFailure();

  /// A coherent-enough snapshot of the counters (each counter is
  /// individually exact; the set is not read atomically as a whole).
  NetworkStats stats() const;
  void ResetStats();

  /// Registers the live counters with `registry` under hermes_net_* names.
  /// The counters exist (and count) whether or not this is ever called.
  void BindMetrics(obs::MetricsRegistry& registry);

  /// The base seed, for deriving per-query streams via Rng::StreamSeed.
  uint64_t seed() const { return seed_; }

 private:
  /// Draws one transfer plan for `site` from `rng` (seeded by the caller).
  Transfer PlanWith(const SiteParams& site, Rng& rng);

  uint64_t seed_;
  std::atomic<uint64_t> sequence_{0};

  // Live statistics: sharded lock-light counters; stats() merges them into
  // a NetworkStats snapshot, BindMetrics exposes them by reference.
  std::shared_ptr<obs::Counter> calls_ = std::make_shared<obs::Counter>();
  std::shared_ptr<obs::Counter> failures_ = std::make_shared<obs::Counter>();
  std::shared_ptr<obs::Counter> bytes_ = std::make_shared<obs::Counter>();
  std::shared_ptr<obs::FloatCounter> charge_ =
      std::make_shared<obs::FloatCounter>();
  std::shared_ptr<obs::FloatCounter> network_ms_ =
      std::make_shared<obs::FloatCounter>();
};

}  // namespace hermes::net

#endif  // HERMES_NET_NETWORK_H_
