#include "cim/cim.h"

#include <algorithm>
#include <unordered_set>

#include "lang/parser.h"

namespace hermes::cim {

void CimDomain::AddInvariant(const lang::Invariant& invariant) {
  const CompiledInvariant& inv = invariants_.emplace_back(invariant);
  search_pointers_ = std::max(
      search_pointers_,
      inv.num_slots() + std::max({inv.num_slots(), inv.lhs().args.size(),
                                  inv.rhs().args.size()}));
}

Status CimDomain::AddInvariants(const std::string& text) {
  HERMES_ASSIGN_OR_RETURN(std::vector<lang::Invariant> parsed,
                          lang::Parser::ParseInvariants(text));
  for (const lang::Invariant& inv : parsed) AddInvariant(inv);
  return Status::OK();
}

CimStats CimDomain::stats() const {
  CimStats snapshot;
  snapshot.exact_hits = stats_.exact_hits->Value();
  snapshot.equality_hits = stats_.equality_hits->Value();
  snapshot.partial_hits = stats_.partial_hits->Value();
  snapshot.misses = stats_.misses->Value();
  snapshot.actual_calls = stats_.actual_calls->Value();
  snapshot.unavailable_masked = stats_.unavailable_masked->Value();
  snapshot.unavailable_failed = stats_.unavailable_failed->Value();
  snapshot.stale_serves = stats_.stale_serves->Value();
  return snapshot;
}

void CimDomain::BindMetrics(obs::MetricsRegistry& registry) {
  obs::Labels labels = {{"domain", target_domain_}};
  registry.Register("hermes_cim_exact_hits_total",
                    "Calls answered by an exact cache hit", labels,
                    stats_.exact_hits);
  registry.Register("hermes_cim_equality_hits_total",
                    "Calls answered via an equality invariant", labels,
                    stats_.equality_hits);
  registry.Register("hermes_cim_partial_hits_total",
                    "Calls served a cached subset via a containment invariant",
                    labels, stats_.partial_hits);
  registry.Register("hermes_cim_misses_total",
                    "Calls the cache and invariants could not answer", labels,
                    stats_.misses);
  registry.Register("hermes_cim_actual_calls_total",
                    "Calls forwarded to the actual source", labels,
                    stats_.actual_calls);
  registry.Register("hermes_cim_unavailable_masked_total",
                    "Source outages masked by serving stale cached answers",
                    labels, stats_.unavailable_masked);
  registry.Register("hermes_cim_unavailable_failed_total",
                    "Source outages the cache could not mask", labels,
                    stats_.unavailable_failed);
  // Registered under the resilience family: the stale-fallback serve is a
  // rung of the degradation ladder, observed alongside retries/breakers.
  registry.Register("hermes_resilience_stale_serves_total",
                    "Miss-path outages masked by stale/incomplete entries",
                    labels, stats_.stale_serves);
  cache_.BindMetrics(registry, target_domain_);
}

CallOutput CimDomain::ServeFromCache(CacheEntry entry, double lead_ms,
                                     bool complete) const {
  CallOutput out;
  out.first_ms = lead_ms + params_.per_cached_answer_ms;
  out.all_ms = lead_ms + params_.per_cached_answer_ms *
                             static_cast<double>(
                                 std::max<size_t>(entry.answers.size(), 1));
  out.complete = complete && entry.complete;
  out.answers = std::move(entry.answers);
  return out;
}

Result<CallOutput> CimDomain::RunActual(DomainCall call,
                                        const ActualCallFn& actual) {
  stats_.actual_calls->Add(1);
  HERMES_ASSIGN_OR_RETURN(CallOutput out, actual(call));
  // Entries age against accumulated source-call sim time; each actual
  // call moves the clock its own service time forward.
  cache_.AdvanceSimClock(out.all_ms);
  if (options_.cache_results && out.complete) {
    cache_.Put(std::move(call), out.answers, /*complete=*/true,
               tick_.load(std::memory_order_relaxed));
  }
  return out;
}

bool CimDomain::IsStale(const CacheEntry& entry) const {
  return options_.max_entry_age > 0 &&
         tick_.load(std::memory_order_relaxed) - entry.inserted_at >
             options_.max_entry_age;
}

std::optional<CacheEntry> CimDomain::ProbeTarget(
    const CompiledInvariant& inv, const CompiledInvariant::Direction& dir,
    const Value* const* theta, const Value** scratch, double* search_ms,
    bool allow_stale) const {
  const CompiledInvariant::Side& target = inv.target(dir);
  if (dir.target_bound) {
    if (!inv.ConditionsHold(theta)) return std::nullopt;
    *search_ms += params_.per_cache_probe_ms;
    CompiledInvariant::Gather(target, theta, scratch);
    std::optional<CacheEntry> entry = cache_.Peek(
        CallKey(target.domain, target.function, scratch, target.args.size()));
    if (entry.has_value() && !allow_stale && IsStale(*entry)) {
      return std::nullopt;
    }
    return entry;
  }

  // The target still has free slots (e.g. the V_1 of the paper's select_<
  // invariant): scan the cache for an entry that matches it and satisfies
  // the conditions. Each entry is matched in place, on a fresh copy of θ
  // whose new bindings view the entry's own arguments.
  const size_t num_slots = inv.num_slots();
  std::optional<CacheEntry> found;
  cache_.ForEach([&](const DomainCall& call, const CacheEntry& entry) {
    *search_ms += params_.per_cache_probe_ms;
    if (!allow_stale && IsStale(entry)) return true;
    std::copy_n(theta, num_slots, scratch);
    if (!CompiledInvariant::Match(target, call, scratch) ||
        !inv.ConditionsHold(scratch)) {
      return true;
    }
    found = entry;  // the one copy; the views die with the shard lock
    return false;   // stop scanning
  });
  return found;
}

std::optional<CimDomain::InvariantHit> CimDomain::FindViaInvariants(
    const CallKey& call, double* search_ms, bool allow_stale) const {
  // θ, then the scratch pointers ProbeTarget needs after it.
  std::vector<const Value*> pointers(search_pointers_);
  const Value** theta = pointers.data();
  std::optional<InvariantHit> best_partial;

  for (const CompiledInvariant& inv : invariants_) {
    *search_ms += params_.per_invariant_attempt_ms;
    const Value** scratch = theta + inv.num_slots();
    // Equality is symmetric: the requested call may match either side.
    // Containment serves cached answers as a *partial* result: the cached
    // call is on the ⊆ side and the requested call on the ⊇ side.
    for (const CompiledInvariant::Direction& dir : inv.directions()) {
      std::fill_n(theta, inv.num_slots(), nullptr);
      if (!CompiledInvariant::Match(inv.pattern(dir), call, theta)) continue;
      *search_ms += params_.per_invariant_ms;
      std::optional<CacheEntry> entry =
          ProbeTarget(inv, dir, theta, scratch, search_ms, allow_stale);
      if (!entry.has_value()) continue;
      if (inv.equality()) {
        if (entry->complete) {
          return InvariantHit{std::move(*entry), true, *search_ms};
        }
        continue;
      }
      if (!best_partial.has_value() ||
          entry->bytes > best_partial->entry.bytes) {
        best_partial = InvariantHit{std::move(*entry), false, *search_ms};
      }
    }
  }
  return best_partial;
}

std::optional<CacheEntry> CimDomain::FindStaleFallback(
    const CallKey& call, double* search_ms) const {
  // Exact key first — even a stale or incomplete entry names the right
  // answer set, which beats no answers at all when the source is down.
  *search_ms += params_.exact_lookup_ms;
  std::optional<CacheEntry> entry = cache_.Peek(call);
  if (entry.has_value()) return entry;
  if (!options_.use_invariants) return std::nullopt;
  std::optional<InvariantHit> hit =
      FindViaInvariants(call, search_ms, /*allow_stale=*/true);
  if (!hit.has_value()) return std::nullopt;
  return std::move(hit->entry);
}

Result<CallOutput> CimDomain::Run(const DomainCall& raw_call) {
  return RunWith(raw_call,
                 [this](const DomainCall& call) { return inner_->Run(call); });
}

Result<CallOutput> CimDomain::RunWith(const DomainCall& raw_call,
                                      const ActualCallFn& actual,
                                      CimOutcome* outcome,
                                      bool prefer_stale) {
  // Rules, invariants and cache keys use the logical domain name. The call
  // is read under it in place; only a call that reaches the source is
  // copied under it, for the source and for the cache.
  const CallKey call(target_domain_, raw_call.function, raw_call.args);
  auto renamed = [&] {
    return DomainCall{target_domain_, raw_call.function, raw_call.args};
  };

  tick_.fetch_add(1, std::memory_order_relaxed);
  if (outcome != nullptr) *outcome = CimOutcome::kMiss;
  double lead_ms = 0.0;

  // Step 1: exact cache hit.
  if (options_.use_cache) {
    lead_ms += params_.exact_lookup_ms;
    std::optional<CacheEntry> entry = cache_.Get(call);
    if (entry.has_value() && IsStale(*entry)) {
      if (prefer_stale && entry->complete) {
        // Brownout: a stale complete entry stands in without touching the
        // source at all — that is exactly the load the ladder sheds. It is
        // the exact hit the call reports, and a stale serve.
        stats_.exact_hits->Add(1);
        stats_.stale_serves->Add(1);
        if (outcome != nullptr) *outcome = CimOutcome::kExactHit;
        CallOutput out =
            ServeFromCache(std::move(*entry), lead_ms, /*complete=*/true);
        out.degraded = true;
        return out;
      }
      // Lazily age out — except when stale entries double as the outage
      // fallback's salvage material (a successful refresh overwrites them
      // anyway).
      if (!options_.serve_stale_on_unavailable) cache_.Remove(call);
      entry.reset();
    }
    if (entry.has_value() && entry->complete) {
      stats_.exact_hits->Add(1);
      if (outcome != nullptr) *outcome = CimOutcome::kExactHit;
      return ServeFromCache(std::move(*entry), lead_ms, /*complete=*/true);
    }
  }

  // Steps 2 & 3: invariants.
  std::optional<InvariantHit> hit;
  if (options_.use_cache && options_.use_invariants) {
    double search_ms = 0.0;
    hit = FindViaInvariants(call, &search_ms);
    lead_ms += search_ms;
  }

  if (hit.has_value() && hit->equality) {
    stats_.equality_hits->Add(1);
    if (outcome != nullptr) *outcome = CimOutcome::kEqualityHit;
    return ServeFromCache(std::move(hit->entry), lead_ms, /*complete=*/true);
  }

  if (hit.has_value()) {
    // Subset-invariant (partial) hit. `partial` is this call's own value
    // snapshot, so downstream cache writes (our RunActual's Put, or any
    // concurrent query's) cannot invalidate it.
    stats_.partial_hits->Add(1);
    if (outcome != nullptr) *outcome = CimOutcome::kPartialHit;
    CacheEntry& partial = hit->entry;

    if (!options_.complete_partial_hits) {
      // Interactive mode: hand back the fast partial set; the engine may
      // never need the rest.
      return ServeFromCache(std::move(partial), lead_ms, /*complete=*/false);
    }

    // All-answers mode: issue the actual call "in parallel" with serving
    // the cached subset, then merge with duplicate elimination.
    Result<CallOutput> full = RunActual(renamed(), actual);
    if (!full.ok()) {
      // An outage is masked by the cached subset: a partial answer beats
      // failing the call.
      if (full.status().IsUnavailable()) {
        stats_.unavailable_masked->Add(1);
        CallOutput masked = ServeFromCache(std::move(partial), lead_ms,
                                           /*complete=*/false);
        masked.degraded = true;  // the subset stood in for a live source
        return masked;
      }
      return full.status();
    }

    CallOutput out;
    out.answers = partial.answers;  // cached subset arrives first
    std::unordered_set<Value, ValueHash> seen(partial.answers.begin(),
                                              partial.answers.end());
    for (Value& v : full->answers) {
      if (seen.find(v) == seen.end()) out.answers.push_back(std::move(v));
    }
    double cached_all_ms =
        lead_ms + params_.per_cached_answer_ms *
                      static_cast<double>(
                          std::max<size_t>(partial.answers.size(), 1));
    // CIM "must keep the answers from the cache in memory and compare them
    // with the answers from the actual call" — the merge cost scales with
    // the partial answer size.
    double merge_ms =
        params_.per_compare_byte_ms * static_cast<double>(partial.bytes);
    out.first_ms = lead_ms + params_.per_cached_answer_ms;
    out.all_ms = std::max(cached_all_ms, lead_ms + full->all_ms) + merge_ms;
    out.complete = true;
    return out;
  }

  // Step 4: miss — the actual call must be made.
  stats_.misses->Add(1);
  Result<CallOutput> full = RunActual(renamed(), actual);
  if (!full.ok()) {
    // Under brownout the stale fallback also masks load-shed calls — the
    // limiter turned the source away, the cache keeps the query whole.
    const bool maskable =
        full.status().IsUnavailable() ||
        (prefer_stale && full.status().IsResourceExhausted());
    if (maskable) {
      if (options_.serve_stale_on_unavailable || prefer_stale) {
        // Last rung of the degradation ladder: any subsuming entry — stale
        // or incomplete — beats failing the query outright.
        double salvage_ms = 0.0;
        std::optional<CacheEntry> fallback =
            FindStaleFallback(call, &salvage_ms);
        if (fallback.has_value()) {
          stats_.stale_serves->Add(1);
          CallOutput out = ServeFromCache(std::move(*fallback),
                                          lead_ms + salvage_ms,
                                          /*complete=*/true);
          out.degraded = true;
          return out;
        }
      }
      if (full.status().IsUnavailable()) stats_.unavailable_failed->Add(1);
    }
    return full.status();
  }
  full->first_ms += lead_ms;
  full->all_ms += lead_ms;
  return std::move(full).value();
}

}  // namespace hermes::cim
