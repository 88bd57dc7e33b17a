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
  calls_->Add(1);
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
  calls_->Add(1);
  // Per-query stream: fold the call hash and site into the draw via a
  // sub-stream so distinct calls within the query jitter independently,
  // while the sequence within one (call, site) pair follows the caller's
  // stream — untouched by other queries.
  Rng rng(Rng::StreamSeed(
      stream.NextU64(),
      call_hash ^ std::hash<std::string>()(site.name)));
  return PlanWith(site, rng);
}

double NetworkSimulator::RecordTransfer(const SiteParams& site, size_t bytes,
                                        double network_ms) {
  bytes_->Add(bytes);
  network_ms_->Add(network_ms);
  double charge = site.charge_per_call +
                  site.charge_per_kb * (static_cast<double>(bytes) / 1024.0);
  charge_->Add(charge);
  return charge;
}

void NetworkSimulator::RecordFailure() { failures_->Add(1); }

NetworkStats NetworkSimulator::stats() const {
  NetworkStats snapshot;
  snapshot.calls = calls_->Value();
  snapshot.failures = failures_->Value();
  snapshot.bytes_transferred = bytes_->Value();
  snapshot.total_charge = charge_->Value();
  snapshot.total_network_ms = network_ms_->Value();
  return snapshot;
}

void NetworkSimulator::ResetStats() {
  calls_->Reset();
  failures_->Reset();
  bytes_->Reset();
  charge_->Reset();
  network_ms_->Reset();
}

void NetworkSimulator::BindMetrics(obs::MetricsRegistry& registry) {
  registry.Register("hermes_net_calls_total",
                    "Remote calls attempted across all sites",
                    {}, calls_);
  registry.Register("hermes_net_failures_total",
                    "Remote calls lost to site unavailability", {}, failures_);
  registry.Register("hermes_net_bytes_total",
                    "Answer bytes shipped over simulated links", {}, bytes_);
  registry.Register("hermes_net_charge_total",
                    "Financial access fees accrued (simulated)", {}, charge_);
  registry.Register("hermes_net_sim_ms_total",
                    "Simulated network milliseconds consumed", {}, network_ms_);
}

}  // namespace hermes::net
