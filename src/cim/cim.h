#ifndef HERMES_CIM_CIM_H_
#define HERMES_CIM_CIM_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cim/compiled_invariant.h"
#include "cim/result_cache.h"
#include "domain/domain.h"
#include "lang/ast.h"

namespace hermes::cim {

/// Simulated processing-time parameters of the CIM module. These are
/// deliberately small relative to remote-call latencies — the paper found
/// "the overhead of checking the cache and the invariants without success
/// ... to be negligible".
struct CimCostParams {
  double exact_lookup_ms = 0.3;    ///< Hash probe into the result cache.
  double per_cached_answer_ms = 0.05;  ///< Streaming one answer from memory.
  /// Testing whether an invariant's call pattern applies at all (fails fast
  /// on a different function/arity) — charged for every invariant.
  double per_invariant_attempt_ms = 0.4;
  /// Processing a *matching* invariant: building the substitution and
  /// checking conditions.
  double per_invariant_ms = 25.0;
  double per_cache_probe_ms = 8.0; ///< Probing one cache entry during search.
  double per_compare_byte_ms = 0.12;  ///< Merging partial answers with the
                                      ///< actual call's (duplicate check).
};

/// Behavioural switches of the CIM module.
struct CimOptions {
  bool use_cache = true;       ///< Serve exact cache hits.
  bool use_invariants = true;  ///< Consult invariants on exact-miss.
  bool cache_results = true;   ///< Insert actual-call results into the cache.
  /// On a subset-invariant (partial) hit, still execute the actual call and
  /// merge (all-answers mode). When false the partial answers are returned
  /// as an incomplete set (interactive mode).
  bool complete_partial_hits = true;
  /// Degradation-ladder fallback (see DESIGN.md "Failure model &
  /// resilience"): when the actual call fails Unavailable on a cache MISS,
  /// serve any cache entry that subsumes the call — stale and incomplete
  /// entries included — marked CallOutput::degraded instead of failing.
  /// Off by default: the historical miss-path behaviour is to fail.
  bool serve_stale_on_unavailable = false;
  /// Staleness bound: entries older than this many CIM calls are treated
  /// as absent (and dropped lazily). 0 disables aging. Result caches over
  /// *changing* sources need this — the paper's caches assume static
  /// sources, so the default keeps entries forever.
  uint64_t max_entry_age = 0;
};

/// Outcome counters of the CIM module — a snapshot view over CimDomain's
/// live obs counters (the one source of truth, also exposable through a
/// MetricsRegistry via BindMetrics).
struct CimStats {
  uint64_t exact_hits = 0;
  uint64_t equality_hits = 0;
  uint64_t partial_hits = 0;
  uint64_t misses = 0;
  uint64_t actual_calls = 0;
  uint64_t unavailable_masked = 0;
  uint64_t unavailable_failed = 0;
  uint64_t stale_serves = 0;  ///< Miss-path outages masked by stale entries.
};

/// How one CIM lookup was resolved — reported per call so concurrent
/// callers can attribute hit/miss outcomes to their own query without
/// diffing the shared counters (which is racy under concurrency).
enum class CimOutcome {
  kExactHit,
  kEqualityHit,
  kPartialHit,
  kMiss,
};

/// Section 4.1's Cache and Invariant Manager, packaged as a Domain.
///
/// "During run-time the CIM behaves like any other domain" — the execution
/// engine needs no special operators; the rule rewriter simply redirects
/// `in(X, d:f(args))` subgoals to the CIM wrapper of `d`. On each call CIM
/// tries, in order:
///   1. an exact cache hit,
///   2. an equality-invariant hit (a cached call the invariants prove
///      equivalent),
///   3. a subset-invariant hit (a cached call whose answers are a subset
///      of the requested call's) — served immediately as partial answers,
///      with the actual call executed in parallel to complete the set,
///   4. the actual domain call, whose result is then cached.
///
/// Each invariant is compiled once, when it is added (CompiledInvariant).
/// A lookup reads the call in place under the logical domain name; only a
/// call that reaches the source is copied under that name.
///
/// Concurrency: `RunWith`/`Run` are safe to call from many threads at once.
/// The result cache is internally lock-striped, outcome counters and the
/// staleness tick are relaxed atomics, and lookups operate on value
/// snapshots of cache entries. An invariant scan views an entry's call only
/// while its shard lock is held and copies only the entry that matches. The
/// invariant list is the one piece of configuration state with no internal
/// lock: AddInvariant(s) must happen before concurrent serving starts
/// (Mediator enforces this by freezing wiring while a QueryPool serves).
class CimDomain : public Domain {
 public:
  /// `target_domain` is the logical domain name the mediator's rules and
  /// invariants use (e.g. "video"); incoming calls are normalized to it so
  /// that cache keys and invariant matching are independent of the CIM
  /// wrapper's own registry name (e.g. "cim_video").
  CimDomain(std::string name, std::string target_domain,
            std::shared_ptr<Domain> inner, CimOptions options = {},
            CimCostParams params = {}, size_t cache_max_entries = 0,
            size_t cache_max_bytes = 0, size_t cache_shards = 0)
      : name_(std::move(name)),
        target_domain_(std::move(target_domain)),
        inner_(std::move(inner)),
        options_(options),
        params_(params),
        cache_(cache_max_entries, cache_max_bytes, cache_shards) {}

  /// Compiles and registers an invariant. Invariants whose calls mention
  /// other domains are accepted and simply never match calls routed to
  /// this CIM.
  void AddInvariant(const lang::Invariant& invariant);

  /// Parses and registers every invariant in `text`.
  Status AddInvariants(const std::string& text);

  const std::string& name() const override { return name_; }
  std::vector<FunctionInfo> Functions() const override {
    return inner_->Functions();
  }
  Result<CallOutput> Run(const DomainCall& call) override;
  using Domain::Run;

  /// How the CIM reaches the real source when the cache cannot (fully)
  /// answer. CacheInterceptor passes the rest of its pipeline; plain
  /// Run(call) passes the wrapped inner domain.
  using ActualCallFn = std::function<Result<CallOutput>(const DomainCall&)>;

  /// Section 4.1's lookup algorithm with the actual-call path factored out:
  /// exact hit → equality invariant → subset invariant (partial) → actual
  /// call via `actual`, whose complete results are inserted into the cache.
  /// When `outcome` is non-null it receives how the call was resolved.
  /// `prefer_stale` (brownout ladder) serves a stale complete entry
  /// directly instead of refreshing it, and arms the stale fallback for
  /// unavailable AND load-shed actual calls regardless of
  /// `serve_stale_on_unavailable` — shedding source load at the cost of
  /// degraded freshness.
  Result<CallOutput> RunWith(const DomainCall& raw_call,
                             const ActualCallFn& actual,
                             CimOutcome* outcome = nullptr,
                             bool prefer_stale = false);

  ResultCache& cache() { return cache_; }
  /// A coherent-enough snapshot of the outcome counters (each counter is
  /// individually exact; the set is not read atomically as a whole).
  CimStats stats() const;

  /// Registers the outcome counters (and the inner cache's series) with
  /// `registry`, labeled {domain=<target domain>}.
  void BindMetrics(obs::MetricsRegistry& registry);
  CimOptions& options() { return options_; }
  Domain* inner() { return inner_.get(); }
  size_t num_invariants() const { return invariants_.size(); }

 private:
  /// A usable cached entry found through the invariants. Holds a value
  /// snapshot of the entry: a pointer would dangle as soon as a concurrent
  /// (or downstream RunActual) Put/eviction touched its shard.
  struct InvariantHit {
    CacheEntry entry;
    bool equality = false;   ///< True: answers identical; false: subset.
    double search_ms = 0.0;  ///< Simulated time spent finding it.
  };

  /// Scans the invariants (and, where needed, the cache) for an entry the
  /// invariants prove equal to — or a subset of — `call`'s answer set.
  /// Accumulates simulated search time in `*search_ms` even on failure.
  /// `allow_stale` admits aged-out entries (the stale-fallback ladder).
  std::optional<InvariantHit> FindViaInvariants(const CallKey& call,
                                                double* search_ms,
                                                bool allow_stale = false) const;

  /// Attempts to find a cached entry matching the target of `inv` in
  /// direction `dir` under θ = `theta` (the pattern's bindings), such that
  /// the invariant's conditions hold. `scratch` has room for a copy of θ
  /// or the target's arguments. Adds probe costs to `*search_ms`.
  std::optional<CacheEntry> ProbeTarget(
      const CompiledInvariant& inv, const CompiledInvariant::Direction& dir,
      const Value* const* theta, const Value** scratch, double* search_ms,
      bool allow_stale) const;

  /// Stale-fallback probe of the degradation ladder: any entry — stale or
  /// incomplete — that subsumes `call`, by exact key first, then through
  /// the invariants.
  std::optional<CacheEntry> FindStaleFallback(const CallKey& call,
                                              double* search_ms) const;

  /// Serves answers straight from an owned entry snapshot (moves them out).
  CallOutput ServeFromCache(CacheEntry entry, double lead_ms,
                            bool complete) const;

  /// Runs the actual call through `actual`, caching on success.
  Result<CallOutput> RunActual(DomainCall call, const ActualCallFn& actual);

  std::string name_;
  std::string target_domain_;
  std::shared_ptr<Domain> inner_;
  CimOptions options_;
  CimCostParams params_;
  /// True when `entry` is too old to serve under options_.max_entry_age.
  bool IsStale(const CacheEntry& entry) const;

  ResultCache cache_;
  std::vector<CompiledInvariant> invariants_;
  /// The pointers one invariant search needs: θ, then either a copy of θ
  /// per scanned entry or the arguments of a ground target.
  size_t search_pointers_ = 0;

  // Live outcome counters (lock-light obs instruments; stats() snapshots
  // them, BindMetrics exposes them by reference).
  struct LiveStats {
    std::shared_ptr<obs::Counter> exact_hits = std::make_shared<obs::Counter>();
    std::shared_ptr<obs::Counter> equality_hits =
        std::make_shared<obs::Counter>();
    std::shared_ptr<obs::Counter> partial_hits =
        std::make_shared<obs::Counter>();
    std::shared_ptr<obs::Counter> misses = std::make_shared<obs::Counter>();
    std::shared_ptr<obs::Counter> actual_calls =
        std::make_shared<obs::Counter>();
    std::shared_ptr<obs::Counter> unavailable_masked =
        std::make_shared<obs::Counter>();
    std::shared_ptr<obs::Counter> unavailable_failed =
        std::make_shared<obs::Counter>();
    std::shared_ptr<obs::Counter> stale_serves =
        std::make_shared<obs::Counter>();
  };
  LiveStats stats_;
  std::atomic<uint64_t> tick_{0};  ///< Logical call counter for staleness.
};

}  // namespace hermes::cim

#endif  // HERMES_CIM_CIM_H_
