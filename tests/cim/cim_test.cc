#include "cim/cim.h"

#include <gtest/gtest.h>

#include <map>

namespace hermes::cim {
namespace {

/// Scriptable inner domain: maps call keys to answers, counts invocations,
/// and can simulate unavailability.
class ScriptedDomain : public Domain {
 public:
  explicit ScriptedDomain(std::string name) : name_(std::move(name)) {}

  void SetAnswers(const DomainCall& call, AnswerSet answers) {
    answers_[call.ToString()] = std::move(answers);
  }
  void SetUnavailable(bool down) { down_ = down; }
  int calls() const { return calls_; }

  const std::string& name() const override { return name_; }
  std::vector<FunctionInfo> Functions() const override { return {}; }
  Result<CallOutput> Run(const DomainCall& call) override {
    ++calls_;
    if (down_) return Status::Unavailable("scripted outage");
    auto it = answers_.find(call.ToString());
    if (it == answers_.end()) {
      return Status::NotFound("unscripted call " + call.ToString());
    }
    CallOutput out;
    out.answers = it->second;
    out.first_ms = 100.0;
    out.all_ms = 500.0;
    return out;
  }

 private:
  std::string name_;
  std::map<std::string, AnswerSet> answers_;
  bool down_ = false;
  int calls_ = 0;
};

DomainCall Range(const std::string& video, int f, int l) {
  return DomainCall{
      "video", "fto", {Value::Str(video), Value::Int(f), Value::Int(l)}};
}

struct CimFixture {
  std::shared_ptr<ScriptedDomain> inner;
  std::unique_ptr<CimDomain> cim;

  explicit CimFixture(CimOptions options = {}) {
    inner = std::make_shared<ScriptedDomain>("video");
    cim = std::make_unique<CimDomain>("cim_video", "video", inner, options);
    inner->SetAnswers(Range("rope", 4, 47),
                      {Value::Str("rupert"), Value::Str("brandon")});
    inner->SetAnswers(Range("rope", 4, 127),
                      {Value::Str("rupert"), Value::Str("brandon"),
                       Value::Str("mrs_wilson")});
  }
};

TEST(CimTest, MissForwardsAndCaches) {
  CimFixture fx;
  // Calls arrive under the CIM's registry name; they are normalized.
  DomainCall call = Range("rope", 4, 47);
  call.domain = "cim_video";
  Result<CallOutput> out = fx.cim->Run(call);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(out->answers.size(), 2u);
  EXPECT_EQ(fx.inner->calls(), 1);
  EXPECT_EQ(fx.cim->stats().misses, 1u);

  // Second identical call: exact hit, no inner call, much faster.
  Result<CallOutput> again = fx.cim->Run(call);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(fx.inner->calls(), 1);
  EXPECT_EQ(fx.cim->stats().exact_hits, 1u);
  EXPECT_EQ(again->answers.size(), 2u);
  EXPECT_LT(again->all_ms, out->all_ms / 10.0);
}

TEST(CimTest, CacheDisabledAlwaysCallsActual) {
  CimOptions options;
  options.use_cache = false;
  CimFixture fx(options);
  (void)fx.cim->Run(Range("rope", 4, 47));
  (void)fx.cim->Run(Range("rope", 4, 47));
  EXPECT_EQ(fx.inner->calls(), 2);
  EXPECT_EQ(fx.cim->stats().exact_hits, 0u);
}

TEST(CimTest, EqualityInvariantServesEquivalentCall) {
  CimFixture fx;
  ASSERT_TRUE(fx.cim
                  ->AddInvariants(
                      "L >= 130000 => video:fto('rope', F, L) = "
                      "video:fto('rope', F, 129999).")
                  .ok());
  fx.inner->SetAnswers(Range("rope", 4, 129999), {Value::Str("everyone")});
  // Warm the cache with the clamped call.
  (void)fx.cim->Run(Range("rope", 4, 129999));
  ASSERT_EQ(fx.inner->calls(), 1);

  // An unclamped call is served via the equality invariant.
  Result<CallOutput> out = fx.cim->Run(Range("rope", 4, 500000));
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(out->answers, AnswerSet{Value::Str("everyone")});
  EXPECT_EQ(fx.inner->calls(), 1);  // no actual call
  EXPECT_EQ(fx.cim->stats().equality_hits, 1u);
  EXPECT_TRUE(out->complete);
}

TEST(CimTest, EqualityInvariantMatchesEitherSide) {
  CimFixture fx;
  ASSERT_TRUE(
      fx.cim->AddInvariants("=> video:fto('a', F, L) = video:fto('b', F, L).")
          .ok());
  fx.inner->SetAnswers(Range("a", 1, 2), {Value::Int(1)});
  (void)fx.cim->Run(Range("a", 1, 2));  // cache the lhs-side call
  // A call matching the *rhs* must also find it.
  Result<CallOutput> out = fx.cim->Run(Range("b", 1, 2));
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(fx.cim->stats().equality_hits, 1u);
}

TEST(CimTest, SupersetInvariantGivesPartialThenCompletes) {
  CimFixture fx;
  ASSERT_TRUE(fx.cim
                  ->AddInvariants(
                      "F2 <= F1 & L1 <= L2 => video:fto(V, F2, L2) >= "
                      "video:fto(V, F1, L1).")
                  .ok());
  // Warm with the narrow range.
  (void)fx.cim->Run(Range("rope", 4, 47));
  ASSERT_EQ(fx.inner->calls(), 1);

  // The wider range gets the cached subset immediately and the actual call
  // completes the answer set.
  Result<CallOutput> out = fx.cim->Run(Range("rope", 4, 127));
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(fx.cim->stats().partial_hits, 1u);
  EXPECT_EQ(fx.inner->calls(), 2);  // actual call still made
  EXPECT_TRUE(out->complete);
  ASSERT_EQ(out->answers.size(), 3u);
  // Cached subset first, then the new answers, no duplicates.
  EXPECT_EQ(out->answers[0], Value::Str("rupert"));
  EXPECT_EQ(out->answers[1], Value::Str("brandon"));
  EXPECT_EQ(out->answers[2], Value::Str("mrs_wilson"));
  // First answer beats the actual call's 100ms first-answer latency.
  EXPECT_LT(out->first_ms, 100.0);
  // Completion cannot beat the actual call.
  EXPECT_GE(out->all_ms, 500.0);
}

TEST(CimTest, SubsetInvariantDirectionAlsoWorks) {
  // lhs <= rhs: a call matching rhs can use a cached lhs as partial.
  CimFixture fx;
  ASSERT_TRUE(fx.cim
                  ->AddInvariants(
                      "F1 >= F2 & L1 <= L2 => video:fto(V, F1, L1) <= "
                      "video:fto(V, F2, L2).")
                  .ok());
  (void)fx.cim->Run(Range("rope", 4, 47));  // cache narrow (lhs side)
  Result<CallOutput> out = fx.cim->Run(Range("rope", 4, 127));
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(fx.cim->stats().partial_hits, 1u);
}

TEST(CimTest, InteractiveModeServesPartialOnly) {
  CimOptions options;
  options.complete_partial_hits = false;
  CimFixture fx(options);
  ASSERT_TRUE(fx.cim
                  ->AddInvariants(
                      "F2 <= F1 & L1 <= L2 => video:fto(V, F2, L2) >= "
                      "video:fto(V, F1, L1).")
                  .ok());
  (void)fx.cim->Run(Range("rope", 4, 47));
  int calls_before = fx.inner->calls();
  Result<CallOutput> out = fx.cim->Run(Range("rope", 4, 127));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(fx.inner->calls(), calls_before);  // no actual call
  EXPECT_FALSE(out->complete);
  EXPECT_EQ(out->answers.size(), 2u);  // just the cached subset
}

TEST(CimTest, InvariantsDisabledSkipsSearch) {
  CimOptions options;
  options.use_invariants = false;
  CimFixture fx(options);
  ASSERT_TRUE(
      fx.cim->AddInvariants("=> video:fto('a', F, L) = video:fto('b', F, L).")
          .ok());
  fx.inner->SetAnswers(Range("a", 1, 2), {Value::Int(1)});
  fx.inner->SetAnswers(Range("b", 1, 2), {Value::Int(1)});
  (void)fx.cim->Run(Range("a", 1, 2));
  (void)fx.cim->Run(Range("b", 1, 2));
  EXPECT_EQ(fx.cim->stats().equality_hits, 0u);
  EXPECT_EQ(fx.inner->calls(), 2);
}

TEST(CimTest, UnavailabilityMaskedByPartialHit) {
  CimFixture fx;
  ASSERT_TRUE(fx.cim
                  ->AddInvariants(
                      "F2 <= F1 & L1 <= L2 => video:fto(V, F2, L2) >= "
                      "video:fto(V, F1, L1).")
                  .ok());
  (void)fx.cim->Run(Range("rope", 4, 47));
  fx.inner->SetUnavailable(true);
  Result<CallOutput> out = fx.cim->Run(Range("rope", 4, 127));
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_FALSE(out->complete);  // best effort from the cache
  EXPECT_EQ(out->answers.size(), 2u);
  EXPECT_EQ(fx.cim->stats().unavailable_masked, 1u);
}

TEST(CimTest, UnavailabilityWithNoCacheFails) {
  CimFixture fx;
  fx.inner->SetUnavailable(true);
  Result<CallOutput> out = fx.cim->Run(Range("rope", 4, 47));
  EXPECT_TRUE(out.status().IsUnavailable());
  EXPECT_EQ(fx.cim->stats().unavailable_failed, 1u);
}

TEST(CimTest, ExactHitFasterThanEqualityHit) {
  // The paper's Figure 5: exact cache hits beat invariant-derived hits
  // because invariant matching costs time.
  CimFixture fx;
  ASSERT_TRUE(fx.cim
                  ->AddInvariants(
                      "L >= 130000 => video:fto('rope', F, L) = "
                      "video:fto('rope', F, 129999).")
                  .ok());
  fx.inner->SetAnswers(Range("rope", 4, 129999), {Value::Str("x")});
  (void)fx.cim->Run(Range("rope", 4, 129999));

  Result<CallOutput> exact = fx.cim->Run(Range("rope", 4, 129999));
  Result<CallOutput> via_inv = fx.cim->Run(Range("rope", 4, 500000));
  ASSERT_TRUE(exact.ok() && via_inv.ok());
  EXPECT_LT(exact->first_ms, via_inv->first_ms);
}

TEST(CimTest, CacheResultsDisabledDoesNotPopulate) {
  CimOptions options;
  options.cache_results = false;
  CimFixture fx(options);
  (void)fx.cim->Run(Range("rope", 4, 47));
  (void)fx.cim->Run(Range("rope", 4, 47));
  EXPECT_EQ(fx.inner->calls(), 2);
  EXPECT_EQ(fx.cim->cache().size(), 0u);
}

TEST(CimTest, BestPartialIsLargestCachedSubset) {
  CimFixture fx;
  ASSERT_TRUE(fx.cim
                  ->AddInvariants(
                      "F2 <= F1 & L1 <= L2 => video:fto(V, F2, L2) >= "
                      "video:fto(V, F1, L1).")
                  .ok());
  fx.inner->SetAnswers(Range("rope", 10, 20), {Value::Str("rupert")});
  fx.inner->SetAnswers(Range("rope", 4, 500),
                       {Value::Str("rupert"), Value::Str("brandon"),
                        Value::Str("phillip"), Value::Str("janet")});
  (void)fx.cim->Run(Range("rope", 10, 20));  // small subset
  (void)fx.cim->Run(Range("rope", 4, 500));  // larger subset
  fx.inner->SetAnswers(Range("rope", 1, 1000),
                       {Value::Str("rupert"), Value::Str("brandon"),
                        Value::Str("phillip"), Value::Str("janet"),
                        Value::Str("david")});
  Result<CallOutput> out = fx.cim->Run(Range("rope", 1, 1000));
  ASSERT_TRUE(out.ok());
  // The larger cached subset (4 answers) should lead; answer 0..3 from it.
  ASSERT_EQ(out->answers.size(), 5u);
  EXPECT_EQ(out->answers[3], Value::Str("janet"));
}

}  // namespace
}  // namespace hermes::cim
