#ifndef HERMES_DOMAIN_DOMAIN_H_
#define HERMES_DOMAIN_DOMAIN_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "domain/call.h"
#include "domain/cost.h"
#include "lang/ast.h"

namespace hermes {

struct CallContext;

/// Signature of one callable function exported by a domain.
struct FunctionInfo {
  std::string name;
  size_t arity = 0;
  std::string doc;
};

/// The result of executing one ground domain call, with its simulated
/// latency profile.
///
/// `first_ms` is the simulated delay until the first answer is available
/// to the caller and `all_ms` the delay until the full answer set is.
/// The pipelined executor interpolates the arrival time of answer i
/// linearly between the two (see ArrivalOffsetMs), which is how the system
/// measures the paper's T_f / T_a without ever sleeping.
struct CallOutput {
  AnswerSet answers;
  double first_ms = 0.0;
  double all_ms = 0.0;
  /// False when `answers` is only a partial answer set (e.g. a CIM
  /// subset-invariant hit served in interactive mode before the real call).
  bool complete = true;
  /// True when the answers were served from degraded material — a stale or
  /// partial cache entry stood in for an unreachable source. The engine
  /// folds this into QueryResult::completeness.
  bool degraded = false;
};

/// Simulated arrival offset (ms after call start) of answer `index` out of
/// `output.answers.size()` answers.
double ArrivalOffsetMs(const CallOutput& output, size_t index);

/// An external software package / data source mediated by HERMES.
///
/// Domains execute ground calls and report simulated latency in the
/// returned CallOutput. A domain that "has a well-understood cost model"
/// (Section 6) may additionally answer cost-estimation requests; DCSM then
/// delegates to it instead of caching statistics.
class Domain {
 public:
  virtual ~Domain() = default;

  Domain(const Domain&) = delete;
  Domain& operator=(const Domain&) = delete;

  /// Registry name of the domain ("ingres", "video", "spatial", ...).
  virtual const std::string& name() const = 0;

  /// The functions this domain exports.
  virtual std::vector<FunctionInfo> Functions() const = 0;

  /// Executes a ground call. The call's `domain` field may differ from
  /// name() when the domain is wrapped (in a PipelineDomain or a CIM);
  /// implementations should dispatch on `call.function`/`call.args` only.
  virtual Result<CallOutput> Run(const DomainCall& call) = 0;

  /// Context-aware execution (the call-pipeline path). Plain domains ignore
  /// the context; PipelineDomain threads it through its interceptor stack
  /// so per-query metrics accumulate. Results are identical either way.
  virtual Result<CallOutput> Run(CallContext& ctx, const DomainCall& call) {
    (void)ctx;
    return Run(call);
  }

  /// True when the domain ships its own cost-estimation module.
  virtual bool HasCostModel() const { return false; }

  /// Native cost estimate for a call pattern (only when HasCostModel()).
  virtual Result<CostVector> EstimateCost(
      const lang::DomainCallSpec& pattern) const {
    (void)pattern;
    return Status::Unimplemented("domain '" + name() +
                                 "' has no native cost model");
  }

 protected:
  Domain() = default;
};

}  // namespace hermes

#endif  // HERMES_DOMAIN_DOMAIN_H_
