#include "net/network.h"

#include <functional>

namespace hermes::net {

NetworkSimulator::Transfer NetworkSimulator::PlanWith(const SiteParams& site,
                                                      Rng& rng) {
  Transfer t;

  if (site.availability < 1.0 && rng.NextDouble() >= site.availability) {
    t.available = false;
    t.penalty_ms = site.retry_timeout_ms;
    return t;
  }

  auto jittered = [&rng, &site](double base) {
    return base * (1.0 + site.jitter * (2.0 * rng.NextDouble() - 1.0));
  };
  t.request_ms = jittered(site.connect_ms) + jittered(site.rtt_ms / 2.0);
  t.response_lag_ms = jittered(site.rtt_ms / 2.0);
  t.per_byte_ms =
      site.bytes_per_ms > 0 ? jittered(1.0 / site.bytes_per_ms) : 0.0;
  return t;
}

NetworkSimulator::Transfer NetworkSimulator::PlanCall(const SiteParams& site,
                                                      size_t call_hash) {
  // fetch_add(1) + 1 reproduces the historical pre-increment values, so
  // single-threaded draw sequences stay bit-identical to the old code.
  uint64_t seq = sequence_.fetch_add(1, std::memory_order_relaxed) + 1;
  Rng rng(seed_ ^ call_hash ^ std::hash<std::string>()(site.name) ^
          (seq * 0x2545F4914F6CDD1DULL));
  return PlanWith(site, rng);
}

NetworkSimulator::Transfer NetworkSimulator::PlanCall(const SiteParams& site,
                                                      size_t call_hash,
                                                      Rng& stream) {
  // Per-query stream: fold the call hash and site into the draw via a
  // sub-stream so distinct calls within the query jitter independently,
  // while the sequence within one (call, site) pair follows the caller's
  // stream — untouched by other queries.
  Rng rng(Rng::StreamSeed(
      stream.NextU64(),
      call_hash ^ std::hash<std::string>()(site.name)));
  return PlanWith(site, rng);
}

double NetworkSimulator::Charge(const SiteParams& site, size_t bytes) {
  return site.charge_per_call +
         site.charge_per_kb * (static_cast<double>(bytes) / 1024.0);
}

}  // namespace hermes::net
