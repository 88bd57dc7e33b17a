// The benchmark's three workloads: how each one wires its mediator through
// the public API, which query text its clients send, and the reference
// mediator its answers are checked against.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/mediator.h"
#include "lang/ast.h"
#include "timed_domain.h"

namespace perfbench {

/// How the clients drive a workload. Every workload is closed loop.
struct DriveSpec {
  /// Client threads calling Mediator::Query directly; 0 when served.
  size_t clients = 0;
  /// Served through Mediator::Serve by one submitter that keeps
  /// `outstanding` queries in flight on `pool_threads` workers.
  bool served = false;
  size_t pool_threads = 0;
  size_t outstanding = 0;
  hermes::QueryOptions options;
  /// Only every n-th query of a stream records DCSM statistics (0: none).
  /// The cost-vector database keeps every record it is given, so an
  /// unpaced run that recorded every call would grow by tens of MB/s.
  uint64_t stats_every = 1;
  /// The traced run also times Mediator::Plan (workloads that optimize).
  bool plans = false;

  /// `options` for the `seq`-th query of a stream.
  hermes::QueryOptions OptionsFor(uint64_t seq) const {
    hermes::QueryOptions out = options;
    out.record_statistics = stats_every != 0 && seq % stats_every == 0;
    return out;
  }
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual const std::string& name() const = 0;
  virtual const DriveSpec& drive() const = 0;
  /// One line on the shape of the inputs, for the run header.
  virtual std::string Describe() const = 0;

  /// Wires and warms the measured mediator. A non-null `clock` puts a
  /// TimedDomain in front of every substrate.
  virtual hermes::Result<std::unique_ptr<hermes::Mediator>> Build(
      SourceClock* clock) const = 0;

  /// The same configuration wired by the testbed's own setup function
  /// (no decorator) and its decorated replica — the pair the decorator
  /// equivalence check runs. Neither is warmed or bounded differently.
  virtual hermes::Result<std::unique_ptr<hermes::Mediator>> BuildTestbed()
      const = 0;
  virtual hermes::Result<std::unique_ptr<hermes::Mediator>> BuildReplica(
      SourceClock* clock) const = 0;

  /// Same data, direct execution: no optimizer, no CIM, no faults.
  virtual hermes::Result<std::unique_ptr<hermes::Mediator>> BuildReference()
      const = 0;
  hermes::QueryOptions ReferenceOptions() const;

  /// The `seq`-th query id client `client` sends. Ids name query texts;
  /// the mediator only ever sees the text.
  virtual uint64_t Draw(size_t client, uint64_t seq) const = 0;
  virtual std::string Text(uint64_t id) const = 0;

  /// The call patterns query `id` issues, for timing DCSM Cost().
  virtual const std::vector<hermes::lang::DomainCallSpec>& Patterns(
      uint64_t id) const = 0;
};

/// The workload called `name` with inputs drawn from `seed`; null when no
/// workload has that name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed);

/// splitmix64 finalizer: the benchmark's only source of randomness.
uint64_t Mix(uint64_t x);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
