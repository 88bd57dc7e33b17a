#ifndef HERMES_DCSM_SUMMARY_TABLE_H_
#define HERMES_DCSM_SUMMARY_TABLE_H_

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "dcsm/cost_vector_db.h"

namespace hermes::dcsm {

/// One aggregated row of a summary table: per-metric weighted sums so the
/// row can participate in further (still exact) aggregation, plus the
/// paper's `l` attribute — the number of original records folded in.
struct SummaryRow {
  ValueList dims;  ///< Values of the retained dimension positions.
  double sum_t_first = 0, weight_t_first = 0;
  double sum_t_all = 0, weight_t_all = 0;
  double sum_cardinality = 0, weight_cardinality = 0;
  uint64_t l = 0;

  /// The averaged cost vector of this row.
  CostVector Mean() const {
    return CostVector(weight_t_first > 0 ? sum_t_first / weight_t_first : 0,
                      weight_t_all > 0 ? sum_t_all / weight_t_all : 0,
                      weight_cardinality > 0
                          ? sum_cardinality / weight_cardinality
                          : 0);
  }
};

/// A (possibly lossy) summarization of one call group's statistics
/// (Section 6.2).
///
/// `dims` lists the retained argument positions (0-based). A table
/// retaining every position is a *lossless* summarization: any question the
/// cost estimator can ask gets the same answer as on the raw records. A
/// table that drops positions is *lossy*: calls differing only in dropped
/// positions share rows.
class SummaryTable {
 public:
  SummaryTable(CallGroupKey key, std::vector<size_t> dims)
      : key_(std::move(key)), dims_(std::move(dims)) {
    for (size_t d : dims_) {
      if (d < 64) dims_mask_ |= ArgMask{1} << d;
    }
  }

  /// Builds the summary of `records` retaining the `dims` positions.
  static Result<SummaryTable> Build(const CallGroupKey& key,
                                    const std::vector<CostRecord>& records,
                                    std::vector<size_t> dims);

  /// Folds one more record into the summary (incremental maintenance —
  /// keeps the table equivalent to a full rebuild over the extended record
  /// set). Records of the wrong group are ignored.
  void Fold(const CostRecord& record);

  const CallGroupKey& key() const { return key_; }
  const std::vector<size_t>& dims() const { return dims_; }
  /// Bitmask with bit `d` set for every retained dimension position `d`
  /// (precomputed; the estimator's relaxation loop compares masks instead
  /// of position vectors).
  ArgMask dims_mask() const { return dims_mask_; }
  bool IsLossless() const { return dims_.size() == key_.arity; }

  /// Exact lookup of the row whose dimension values equal `dim_values`
  /// (ordered as `dims()`); nullptr when absent.
  const SummaryRow* Lookup(const ValueList& dim_values) const;
  /// Lookup() of `pattern`'s constants at the retained dimensions, read in
  /// place (the estimator's exact probe).
  const SummaryRow* Lookup(const PatternView& pattern) const;

  /// Aggregates over rows matching a call pattern. The pattern's constant
  /// positions must all be retained dimensions of this table (otherwise
  /// the table cannot answer the question and InvalidArgument is
  /// returned). Aggregation weights rows by their per-metric weights.
  Result<Aggregate> EstimateForPattern(
      const lang::DomainCallSpec& pattern) const;

  /// Mask-based aggregation (see ArgMask in cost_vector_db.h); nullopt
  /// when no row matches. Positions outside `const_mask` act as `$b` even
  /// when the pattern holds a constant there. The caller guarantees the
  /// effective constant set is a subset of `dims()` (compare masks) and
  /// that the pattern's group matches `key()`. Avoids the
  /// per-relaxation-step spec copy.
  std::optional<Aggregate> EstimateMasked(const PatternView& pattern,
                                          ArgMask const_mask) const;

  /// True when the table's dimensions include every constant position of
  /// `pattern`, i.e. the table can answer for it.
  bool CanAnswer(const lang::DomainCallSpec& pattern) const;

  size_t num_rows() const { return rows_.size(); }
  size_t ApproxBytes() const;

  /// A row key read in place: `pattern`'s constants at `dims`, hashed and
  /// compared like the Value::List of them (a `$b` reads as null).
  struct DimsOf {
    const std::vector<size_t>* dims;
    const PatternView* pattern;
  };
  struct RowHash {
    using is_transparent = void;
    size_t operator()(const Value& key) const { return key.Hash(); }
    size_t operator()(const DimsOf& key) const;
  };
  struct RowEq {
    using is_transparent = void;
    bool operator()(const Value& a, const Value& b) const { return a == b; }
    bool operator()(const Value& a, const DimsOf& b) const;
    bool operator()(const DimsOf& a, const Value& b) const {
      return (*this)(b, a);
    }
  };
  using RowMap = std::unordered_map<Value, SummaryRow, RowHash, RowEq>;

  /// Iterates rows in unspecified order.
  const RowMap& rows() const { return rows_; }

 private:
  CallGroupKey key_;
  std::vector<size_t> dims_;  // sorted ascending
  ArgMask dims_mask_ = 0;     // bit d set for every d in dims_
  // Keyed by Value::List(dim values) for hashing.
  RowMap rows_;
};

}  // namespace hermes::dcsm

#endif  // HERMES_DCSM_SUMMARY_TABLE_H_
