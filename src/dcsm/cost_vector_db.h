#ifndef HERMES_DCSM_COST_VECTOR_DB_H_
#define HERMES_DCSM_COST_VECTOR_DB_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "common/clock.h"
#include "common/intrusive_map.h"
#include "common/result.h"
#include "dcsm/cost_record.h"
#include "lang/ast.h"

namespace hermes::dcsm {

/// A call group read in place, for lookups that build no CallGroupKey. It
/// hashes and orders like the key it names, and views its parts: it must
/// not outlive them.
struct CallGroupRef {
  std::string_view domain;
  std::string_view function;
  size_t arity = 0;

  /// Hash over all three components, for hashed group indexes.
  size_t Hash() const {
    size_t h = std::hash<std::string_view>{}(domain);
    h ^= std::hash<std::string_view>{}(function) + 0x9e3779b97f4a7c15ULL +
         (h << 6) + (h >> 2);
    h ^= arity + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    return h;
  }
  bool operator<(const CallGroupRef& other) const {
    return std::tie(domain, function, arity) <
           std::tie(other.domain, other.function, other.arity);
  }
  bool operator==(const CallGroupRef& other) const {
    return domain == other.domain && function == other.function &&
           arity == other.arity;
  }
};

/// Identifies one statistics table: all records of calls to a given
/// domain function at a given arity.
struct CallGroupKey {
  std::string domain;
  std::string function;
  size_t arity = 0;

  CallGroupRef ref() const { return {domain, function, arity}; }
  bool operator<(const CallGroupKey& other) const {
    return ref() < other.ref();
  }
  bool operator==(const CallGroupKey& other) const {
    return ref() == other.ref();
  }
  /// Heterogeneous order, so a map keyed by CallGroupKey is probed by ref.
  friend bool operator<(const CallGroupKey& key, const CallGroupRef& ref) {
    return key.ref() < ref;
  }
  friend bool operator<(const CallGroupRef& ref, const CallGroupKey& key) {
    return ref < key.ref();
  }
  size_t Hash() const { return ref().Hash(); }
  std::string ToString() const {
    return domain + ":" + function + "/" + std::to_string(arity);
  }
};

/// A call pattern read in place: `domain:function(args)` with each
/// argument a constant or `$b`. Its parts live elsewhere — a call site's
/// own spec, a ground call, the estimator's bindings — so an estimate
/// through a view copies nothing. It must not outlive them.
struct PatternView {
  std::string_view domain;
  std::string_view function;
  size_t arity = 0;

  /// A spec's pattern. Any argument that is not a constant reads as `$b`:
  /// a call site's variables are bound by the time the call runs.
  explicit PatternView(const lang::DomainCallSpec& spec)
      : domain(spec.domain),
        function(spec.function),
        arity(spec.args.size()),
        terms_(spec.args.data()) {}
  /// A ground call's pattern: every argument is a constant.
  explicit PatternView(const DomainCall& call)
      : domain(call.domain),
        function(call.function),
        arity(call.args.size()),
        values_(call.args.data()) {}
  /// Argument i is the constant `*args[i]`, or `$b` where `args[i]` is null.
  PatternView(std::string_view domain, std::string_view function,
              const Value* const* args, size_t arity)
      : domain(domain), function(function), arity(arity), ptrs_(args) {}

  /// Argument i's constant, or null where it reads as `$b`.
  const Value* constant(size_t i) const {
    if (terms_ != nullptr) {
      return terms_[i].is_constant() ? &terms_[i].constant : nullptr;
    }
    return values_ != nullptr ? &values_[i] : ptrs_[i];
  }
  CallGroupRef group() const { return {domain, function, arity}; }

  /// The pattern as a spec (constants copied, `$b` elsewhere).
  lang::DomainCallSpec ToSpec() const;

 private:
  const lang::Term* terms_ = nullptr;
  const Value* values_ = nullptr;
  const Value* const* ptrs_ = nullptr;
};

/// Result of aggregating statistics records for a call pattern.
struct Aggregate {
  CostVector cost;
  size_t matched = 0;        ///< Records (or summarized originals) matched.
  size_t rows_scanned = 0;   ///< Rows examined to compute the aggregate.
  bool has_t_first = false;
  bool has_t_all = false;
  bool has_cardinality = false;
};

/// In mask-based pattern matching, argument position `i` of a pattern is
/// treated as a constant filter iff bit `i` is set AND the pattern holds a
/// constant there; every other position acts as `$b`. This lets the
/// Section 6.3 relaxation lattice walk subsets of the constant positions
/// without materializing a relaxed copy of the call spec per subset.
using ArgMask = uint64_t;
constexpr ArgMask kAllArgs = ~ArgMask{0};

/// Section 6.1's cost vector database: the full, per-execution statistics
/// of every domain call the mediator has issued. Groups are kept in an
/// intrusive hash index keyed by (domain, function, arity), so the
/// estimator's group probe is one hash + one chain walk instead of a
/// red-black-tree descent with string comparisons per level.
class CostVectorDatabase {
 public:
  CostVectorDatabase() = default;
  ~CostVectorDatabase();

  CostVectorDatabase(const CostVectorDatabase&) = delete;
  CostVectorDatabase& operator=(const CostVectorDatabase&) = delete;

  /// Appends a record, stamping it with the next logical record time.
  void Record(CostRecord record);

  /// Convenience: records a fully-observed execution of `call`.
  void RecordExecution(const DomainCall& call, const CostVector& cost);

  /// All records for a call group, or nullptr when none exist.
  const std::vector<CostRecord>* GetGroup(const CallGroupRef& group) const;
  const std::vector<CostRecord>* GetGroup(const CallGroupKey& key) const {
    return GetGroup(key.ref());
  }

  /// Aggregates (averages) records matching a call pattern whose arguments
  /// are constants or `$b`. Constants must equal the record's argument at
  /// the same position; `$b` matches anything. Optionally weights records
  /// by recency: weight = 0.5^((now - record_time)/halflife).
  Result<Aggregate> Estimate(const lang::DomainCallSpec& pattern,
                             double recency_halflife = 0.0) const;

  /// Mask-based aggregation over an already-located group (see ArgMask);
  /// nullopt when no record matches. `records` must be a vector previously
  /// returned by GetGroup for the pattern's own group. Used by the
  /// estimator's relaxation loop: the group is probed once and each
  /// lattice point is a mask, not a copy.
  std::optional<Aggregate> EstimateGroup(
      const std::vector<CostRecord>& records, const PatternView& pattern,
      ArgMask const_mask, double recency_halflife = 0.0) const;

  /// All group keys, sorted.
  std::vector<CallGroupKey> Groups() const;

  size_t TotalRecords() const { return total_records_; }

  /// Approximate storage footprint in bytes (the paper's "heavy burden on
  /// storage" metric for the summarization tradeoff experiments).
  size_t ApproxBytes() const;

  uint64_t now() const { return clock_.last(); }

  void Clear();

 private:
  /// One call group: its key, records, and hash-chain membership in one
  /// allocation.
  struct Group {
    CallGroupKey key;
    std::vector<CostRecord> records;
    IntrusiveMapNode hash_node;
  };

  Group* FindGroup(const CallGroupRef& group, size_t hash) const;
  void FreeGroups();

  IntrusiveHashMap<Group, &Group::hash_node> groups_;
  size_t total_records_ = 0;
  LogicalTime clock_;
};

}  // namespace hermes::dcsm

#endif  // HERMES_DCSM_COST_VECTOR_DB_H_
