#ifndef HERMES_NET_NETWORK_H_
#define HERMES_NET_NETWORK_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "common/rng.h"
#include "net/site.h"

namespace hermes::net {

/// Deterministic wide-area-network simulator.
///
/// The simulator never sleeps: it *plans* the latency profile of a remote
/// call (connection, request flight, per-byte transfer, jitter,
/// availability) and the caller folds those times into the simulated
/// CallOutput latencies. All randomness is derived from the constructor
/// seed plus the call hash, so a given experiment replays identically.
/// It counts nothing: each link (NetworkInterceptor) counts its own
/// traffic, and the query's CallContext counts what the query used.
///
/// Concurrency: all methods are thread-safe. Randomness comes in two
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
  Transfer PlanCall(const SiteParams& site, size_t call_hash);

  /// Plans a call drawing jitter/availability from the caller's own
  /// `stream` (per-query determinism; see class comment). The shared
  /// sequence counter is not consulted or advanced.
  Transfer PlanCall(const SiteParams& site, size_t call_hash, Rng& stream);

  /// The financial charge of shipping `bytes` answer bytes from `site`:
  /// its per-call fee plus its per-KB fee.
  static double Charge(const SiteParams& site, size_t bytes);

  /// The base seed, for deriving per-query streams via Rng::StreamSeed.
  uint64_t seed() const { return seed_; }

 private:
  /// Draws one transfer plan for `site` from `rng` (seeded by the caller).
  Transfer PlanWith(const SiteParams& site, Rng& rng);

  uint64_t seed_;
  std::atomic<uint64_t> sequence_{0};
};

}  // namespace hermes::net

#endif  // HERMES_NET_NETWORK_H_
