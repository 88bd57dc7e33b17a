// Unpaced host-cost benchmark of the HERMES mediator.
//
//   hermes_perf --workload NAME --seed N --seconds S --trace 0|1
//               [--trace-out FILE] [--corrupt-answer]
//   hermes_perf --workload NAME --seed N --setup-only
//
// Builds the workload's mediator through the public API (set-up is timed
// over several fresh builds; --setup-only prints that median as
// `SETUP seconds` and stops), drives it closed loop for S seconds with no
// service pacing, then checks every distinct answer against a reference
// mediator that executes the same text directly. After an untimed warm-up,
// --trace 0 measures the end-to-end metrics, each a trimmed mean over
// half-second windows. --trace 1
// alternates untraced and traced windows: the traced ones time each
// layer's public entry points from
// here (parse, plan, DCSM cost, Query, and the substrates through
// TimedDomain), keep the spans in memory and write them as Chrome
// trace_event JSON at the end; the untraced windows give the tracing
// overhead. --corrupt-answer falsifies one observed answer, to show that
// the answer check fails the run.
//
// The last stdout line is `RESULT {json}`; the exit code is non-zero on any
// wrong answer, failed self-check or set-up error.

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "core_rotator.h"
#include "engine/mediator.h"
#include "engine/query_pool.h"
#include "lang/parser.h"
#include "timed_domain.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

using hermes::Mediator;
using hermes::QueryResult;
using hermes::Result;

/// The untraced run is cut into windows of this length; each end-to-end
/// timing is the mean of its per-window values with the kTrimmedShare
/// highest and lowest windows dropped. Trimming keeps a burst of noise
/// from outside the process out of the result; the mean of the rest varies
/// less from run to run than the median does.
constexpr double kWindowSeconds = 0.5;
constexpr double kTrimmedShare = 0.1;
/// Closed-loop driving before the first timed window, so the timed windows
/// start with warm caches, allocator and answer tallies; its queries are
/// answer-checked but counted in no metric.
constexpr double kWarmUpSeconds = 1.0;
/// Traced queries per client whose spans go into the Chrome trace.
constexpr size_t kTracedQueriesKept = 400;
/// Source spans kept for the Chrome trace (totals count every call).
constexpr size_t kSourceSpansKept = 20000;
/// Queries the decorator equivalence check replays on both mediators.
constexpr uint64_t kEquivalenceQueries = 48;
/// Client index of the equivalence-check stream.
constexpr size_t kCheckClient = 2000;
/// A process's set-up time is the median of at least kMinSetups fresh
/// builds, more while they fit in kSetupBudget. run.py averages it over
/// several processes (see --setup-only).
constexpr size_t kMinSetups = 3;
constexpr size_t kMaxSetups = 1000;
constexpr auto kSetupBudget = std::chrono::milliseconds(500);
/// Threads the answer check runs the reference mediator on, the main
/// thread included (a process runs at most 3 threads).
constexpr size_t kOracleThreads = 3;
/// Wrong answers printed to stderr; the count covers all of them.
constexpr size_t kWrongAnswersReported = 20;

double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double MaxRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Linear-interpolated quantile of `v` (sorted in place).
double Quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// Mean of `v` (sorted in place) without its `share` lowest and `share`
/// highest values.
double TrimmedMean(std::vector<double>& v, double share) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t cut = static_cast<size_t>(share * static_cast<double>(v.size()));
  double sum = 0.0;
  for (size_t i = cut; i < v.size() - cut; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * cut);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ---- Answers ------------------------------------------------------------------

/// A query's answers as its sorted distinct row hashes.
std::vector<uint64_t> RowHashes(const hermes::engine::QueryExecution& exec) {
  std::vector<uint64_t> rows;
  rows.reserve(exec.answers.size());
  for (const hermes::ValueList& row : exec.answers) {
    uint64_t h = 0x84222325cbf29ce4ULL;
    for (const hermes::Value& v : row) h = Mix(h ^ v.Hash());
    rows.push_back(h);
  }
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  return rows;
}

uint64_t Digest(const std::vector<uint64_t>& rows) {
  uint64_t h = rows.size();
  for (uint64_t r : rows) h = Mix(h ^ r);
  return h;
}

/// One answer seen for a query id, and how often. Compact: an unpaced run
/// may see a million distinct queries.
struct Observed {
  uint64_t id = 0;
  uint64_t digest = 0;
  uint32_t partial = 0;  ///< 1 + index of its rows in partial_rows; 0: complete.
  uint32_t count = 1;
};

/// The answers one client saw; repeats are folded by periodic compaction.
class Observations {
 public:
  void Add(uint64_t id, const QueryResult& res) {
    std::vector<uint64_t> rows = RowHashes(res.execution);
    Observed o;
    o.id = id;
    o.digest = Digest(rows);
    if (res.completeness != hermes::QueryCompleteness::kComplete) {
      partial_rows_.push_back(std::move(rows));
      o.partial = static_cast<uint32_t>(partial_rows_.size());
    }
    seen_.push_back(o);
    if (seen_.size() >= next_compaction_) Compact();
  }

  /// Folds entries with equal id, digest and completeness into one.
  void Compact() {
    auto key = [](const Observed& o) {
      return std::make_tuple(o.id, o.digest, o.partial != 0);
    };
    std::sort(seen_.begin(), seen_.end(),
              [&](const Observed& a, const Observed& b) {
                return key(a) < key(b);
              });
    size_t out = 0;
    for (size_t i = 0; i < seen_.size(); ++i) {
      if (out > 0 && key(seen_[out - 1]) == key(seen_[i])) {
        seen_[out - 1].count += seen_[i].count;
      } else {
        seen_[out++] = seen_[i];
      }
    }
    seen_.resize(out);
    next_compaction_ = std::max<size_t>(2 * out, kFirstCompaction);
  }

  std::vector<Observed>& seen() { return seen_; }
  const std::vector<uint64_t>& rows(const Observed& o) const {
    return partial_rows_[o.partial - 1];
  }

 private:
  static constexpr size_t kFirstCompaction = size_t{1} << 16;
  std::vector<Observed> seen_;
  std::vector<std::vector<uint64_t>> partial_rows_;
  size_t next_compaction_ = kFirstCompaction;
};

// ---- Per-client tallies -----------------------------------------------------

struct Sample {
  double wall_us = 0.0;
  double tf_ms = 0.0;
  double ta_ms = 0.0;
};

/// Host-clock stamps of one traced query (ns; 0 = step not taken).
struct QueryTrace {
  uint64_t query_id = 0;
  int64_t begin = 0, end = 0;
  int64_t parse0 = 0, parse1 = 0;
  int64_t plan0 = 0, plan1 = 0;
  int64_t cost0 = 0, cost1 = 0;
  int64_t exec0 = 0, exec1 = 0;
};

struct Tally {
  uint64_t attempted = 0, ok = 0, failed = 0, refused = 0, incomplete = 0;
  uint64_t answers = 0, arena_bytes = 0, plan_cache_hits = 0;
  uint64_t optimized = 0;  ///< Queries whose result lists candidates.
  hermes::CallMetrics m;
  // Traced windows only.
  int64_t parse_ns = 0, cost_ns = 0, query_ns = 0;
  uint64_t cost_calls = 0, planned = 0, candidates = 0;
  std::vector<double> plan_us;

  void Add(const Result<QueryResult>& res) {
    ++attempted;
    if (!res.ok()) {
      if (res.status().IsResourceExhausted()) {
        ++refused;
      } else {
        ++failed;
      }
      return;
    }
    ++ok;
    if (res->completeness != hermes::QueryCompleteness::kComplete) ++incomplete;
    answers += res->execution.answers.size();
    arena_bytes += res->execution.arena_bytes;
    if (res->plan_cache_hit) ++plan_cache_hits;
    if (!res->candidates.empty()) ++optimized;
    m.Merge(res->metrics);
  }

  void Merge(const Tally& o) {
    attempted += o.attempted;
    ok += o.ok;
    failed += o.failed;
    refused += o.refused;
    incomplete += o.incomplete;
    answers += o.answers;
    arena_bytes += o.arena_bytes;
    plan_cache_hits += o.plan_cache_hits;
    optimized += o.optimized;
    m.Merge(o.m);
    parse_ns += o.parse_ns;
    cost_ns += o.cost_ns;
    query_ns += o.query_ns;
    cost_calls += o.cost_calls;
    planned += o.planned;
    candidates += o.candidates;
    plan_us.insert(plan_us.end(), o.plan_us.begin(), o.plan_us.end());
  }
};

/// Everything one client (or the submitter) accumulates over a run.
struct ClientState {
  explicit ClientState(size_t index) : client(index) {}
  size_t client;
  uint64_t seq = 0;  ///< Position in the client's query stream.
  Tally untraced, traced;
  std::vector<Sample> window;  ///< Answered queries of the current window.
  Observations answers;
  std::vector<QueryTrace> traces;
};

// ---- Driving -----------------------------------------------------------------

/// The steps the traced run times before the query itself: parse, plan
/// (when the workload optimizes) and a DCSM Cost() per call pattern.
void TimeFrontLayers(const Workload& w, Mediator& med, uint64_t id,
                     const std::string& text, Tally& t, QueryTrace& qt) {
  qt.parse0 = NowNs();
  Result<hermes::lang::Query> parsed = hermes::lang::Parser::ParseQuery(text);
  qt.parse1 = NowNs();
  t.parse_ns += qt.parse1 - qt.parse0;
  (void)parsed;
  if (w.drive().plans) {
    qt.plan0 = NowNs();
    Result<hermes::optimizer::OptimizerResult> plan =
        med.Plan(text, w.drive().options);
    qt.plan1 = NowNs();
    // Plan() parses too; its plan time is what remains.
    const int64_t plan_ns = (qt.plan1 - qt.plan0) - (qt.parse1 - qt.parse0);
    t.plan_us.push_back(static_cast<double>(std::max<int64_t>(plan_ns, 0)) /
                        1e3);
    ++t.planned;
    if (plan.ok()) t.candidates += plan->candidates.size();
  }
  qt.cost0 = NowNs();
  for (const hermes::lang::DomainCallSpec& pattern : w.Patterns(id)) {
    Result<hermes::dcsm::CostEstimate> cost = med.dcsm().Cost(pattern);
    (void)cost;
    ++t.cost_calls;
  }
  qt.cost1 = NowNs();
  t.cost_ns += qt.cost1 - qt.cost0;
}

/// One closed-loop client calling Mediator::Query until `until`.
void RunClient(const Workload& w, Mediator& med, ClientState& cs,
               Clock::time_point until, bool traced) {
  Tally& t = traced ? cs.traced : cs.untraced;
  while (Clock::now() < until) {
    hermes::QueryOptions options = w.drive().OptionsFor(cs.seq);
    const uint64_t id = w.Draw(cs.client, cs.seq++);
    const std::string text = w.Text(id);
    options.query_id = med.ReserveQueryId();
    QueryTrace qt;
    qt.query_id = options.query_id;
    qt.begin = NowNs();
    if (traced) TimeFrontLayers(w, med, id, text, t, qt);
    qt.exec0 = NowNs();
    Result<QueryResult> res = med.Query(text, options);
    qt.exec1 = NowNs();
    qt.end = qt.exec1;
    t.Add(res);
    if (traced) {
      t.query_ns += qt.exec1 - qt.exec0;
      if (cs.traces.size() < kTracedQueriesKept) cs.traces.push_back(qt);
    }
    if (!traced && res.ok()) {
      cs.window.push_back({static_cast<double>(qt.exec1 - qt.exec0) / 1e3,
                           res->tf_sim_ms, res->ta_sim_ms});
    }
    if (res.ok()) cs.answers.Add(id, *res);
  }
}

/// The served workload's submitter: keeps `outstanding` queries in flight
/// on the pool; latency is submit → the submitter seeing the answer.
void RunSubmitter(const Workload& w, Mediator& med, hermes::QueryPool& pool,
                  ClientState& cs, Clock::time_point until, bool traced,
                  CoreRotator& cores) {
  struct Pending {
    uint64_t id = 0;
    QueryTrace qt;
    std::future<Result<QueryResult>> future;
  };
  Tally& t = traced ? cs.traced : cs.untraced;
  std::deque<Pending> pending;
  while (true) {
    cores.Tick();
    if (pending.size() < w.drive().outstanding && Clock::now() < until) {
      Pending p;
      const hermes::QueryOptions options = w.drive().OptionsFor(cs.seq);
      p.id = w.Draw(cs.client, cs.seq++);
      const std::string text = w.Text(p.id);
      p.qt.begin = NowNs();
      if (traced) TimeFrontLayers(w, med, p.id, text, t, p.qt);
      p.future = pool.Submit(text, options);
      pending.push_back(std::move(p));
      continue;
    }
    if (pending.empty()) break;
    Pending& p = pending.front();
    Result<QueryResult> res = p.future.get();
    p.qt.end = NowNs();
    t.Add(res);
    if (res.ok()) {
      p.qt.query_id = res->query_id;
      if (!traced) {
        cs.window.push_back({static_cast<double>(p.qt.end - p.qt.begin) / 1e3,
                             res->tf_sim_ms, res->ta_sim_ms});
      }
      cs.answers.Add(p.id, *res);
      if (traced && cs.traces.size() < kTracedQueriesKept) {
        cs.traces.push_back(p.qt);
      }
    }
    pending.pop_front();
  }
}

/// CIM outcome and eviction counters summed over a mediator's CIMs.
struct CimCounters {
  uint64_t lookups = 0, invariant_hits = 0, evictions = 0;

  static CimCounters Read(Mediator& med) {
    CimCounters c;
    for (const std::string& d : med.CachedDomains()) {
      hermes::cim::CimDomain* cim = med.cim(d);
      if (cim == nullptr) continue;
      const hermes::cim::CimStats s = cim->stats();
      c.lookups += s.exact_hits + s.equality_hits + s.partial_hits + s.misses;
      c.invariant_hits += s.equality_hits + s.partial_hits;
      c.evictions += cim->cache().stats().evictions;
    }
    return c;
  }
  void AddDelta(const CimCounters& before, const CimCounters& after) {
    lookups += after.lookups - before.lookups;
    invariant_hits += after.invariant_hits - before.invariant_hits;
    evictions += after.evictions - before.evictions;
  }
};

/// Drives the measured mediator window by window from every client.
class Driver {
 public:
  Driver(const Workload& w, Mediator& med, CoreRotator& cores)
      : w_(w), med_(med), cores_(cores) {
    const size_t n = w.drive().served ? 1 : w.drive().clients;
    for (size_t c = 0; c < n; ++c) {
      clients_.push_back(std::make_unique<ClientState>(c));
    }
    if (w.drive().served) {
      hermes::QueryPoolOptions options;
      options.num_threads = w.drive().pool_threads;
      pool_ = med.Serve(options);
      service_ms_ = med.metrics().GetOrAddHistogram(
          "hermes_pool_service_ms", "", {1.0});
    }
  }

  ~Driver() {
    if (pool_ != nullptr) pool_->Shutdown();
  }

  Driver(const Driver&) = delete;
  Driver& operator=(const Driver&) = delete;

  /// One window of `seconds`; returns its wall seconds.
  double RunWindow(double seconds, bool traced, SourceClock* clock) {
    const auto start = Clock::now();
    const auto until =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    const double service_before = ServiceMs();
    const CimCounters cim_before = CimCounters::Read(med_);
    if (clock != nullptr) clock->set_on(traced);
    if (pool_ != nullptr) {
      RunSubmitter(w_, med_, *pool_, *clients_[0], until, traced, cores_);
    } else {
      std::vector<std::thread> threads;
      for (auto& cs : clients_) {
        threads.emplace_back([this, &cs, until, traced] {
          RunClient(w_, med_, *cs, until, traced);
        });
      }
      // The main thread only rotates the clients round the cores.
      cores_.Rotate();
      for (auto now = Clock::now(); now < until; now = Clock::now()) {
        std::this_thread::sleep_for(std::min<Clock::duration>(
            until - now, std::chrono::milliseconds(10)));
        cores_.Tick();
      }
      for (std::thread& t : threads) t.join();
    }
    if (clock != nullptr) clock->set_on(false);
    const double wall = std::chrono::duration<double>(Clock::now() - start)
                            .count();
    if (traced) {
      traced_service_ms_ += ServiceMs() - service_before;
      traced_cim_.AddDelta(cim_before, CimCounters::Read(med_));
    }
    return wall;
  }

  double traced_service_ms() const { return traced_service_ms_; }
  const CimCounters& traced_cim() const { return traced_cim_; }
  std::vector<std::unique_ptr<ClientState>>& clients() { return clients_; }

 private:
  double ServiceMs() const {
    return service_ms_ != nullptr ? service_ms_->Snapshot().sum : 0.0;
  }

  const Workload& w_;
  Mediator& med_;
  CoreRotator& cores_;
  std::vector<std::unique_ptr<ClientState>> clients_;
  std::unique_ptr<hermes::QueryPool> pool_;
  std::shared_ptr<hermes::obs::Histogram> service_ms_;
  double traced_service_ms_ = 0.0;
  CimCounters traced_cim_;
};

// ---- Checks ------------------------------------------------------------------

bool Unpaced(Mediator& med, const char* which) {
  if (med.service_pacing() == 0.0) return true;
  std::fprintf(stderr, "error: %s mediator has service_pacing %g; the "
               "benchmark measures host cost and refuses paced mediators\n",
               which, med.service_pacing());
  return false;
}

/// The decorated replica returns the testbed mediator's answers and
/// simulated Tf/Ta on the same query sequence.
bool DecoratorEquivalent(const Workload& w) {
  Result<std::unique_ptr<Mediator>> plain = w.BuildTestbed();
  SourceClock clock(0);
  clock.set_on(true);
  Result<std::unique_ptr<Mediator>> timed = w.BuildReplica(&clock);
  if (!plain.ok() || !timed.ok()) {
    std::fprintf(stderr, "error: equivalence mediators: %s\n",
                 (!plain.ok() ? plain.status() : timed.status())
                     .ToString()
                     .c_str());
    return false;
  }
  if (!Unpaced(**plain, "testbed") || !Unpaced(**timed, "replica")) {
    return false;
  }
  for (uint64_t i = 0; i < kEquivalenceQueries; ++i) {
    const std::string text = w.Text(w.Draw(kCheckClient, i));
    hermes::QueryOptions options = w.drive().OptionsFor(i);
    options.query_id = i + 1;
    Result<QueryResult> a = (*plain)->Query(text, options);
    Result<QueryResult> b = (*timed)->Query(text, options);
    const bool same =
        a.ok() == b.ok() &&
        (!a.ok() || (Digest(RowHashes(a->execution)) ==
                         Digest(RowHashes(b->execution)) &&
                     a->tf_sim_ms == b->tf_sim_ms &&
                     a->ta_sim_ms == b->ta_sim_ms));
    if (!same) {
      std::fprintf(stderr, "error: decorated mediator diverges on %s\n",
                   text.c_str());
      return false;
    }
  }
  if (clock.calls() == 0) {
    std::fprintf(stderr, "error: the decorator saw no source call\n");
    return false;
  }
  return true;
}

/// Checks every distinct observed answer against the reference mediator,
/// on kOracleThreads threads; returns the number of queries whose answer
/// was wrong.
uint64_t WrongAnswers(const Workload& w, Mediator& reference,
                      std::vector<std::unique_ptr<ClientState>>& clients,
                      uint64_t* distinct) {
  struct Seen {
    const Observed* o;
    const Observations* from;
  };
  std::vector<Seen> all;
  for (auto& cs : clients) {
    cs->answers.Compact();
    for (const Observed& o : cs->answers.seen()) all.push_back({&o, &cs->answers});
  }
  std::sort(all.begin(), all.end(),
            [](const Seen& a, const Seen& b) { return a.o->id < b.o->id; });
  std::vector<size_t> starts;  // Index of each id's first entry in `all`.
  for (size_t i = 0; i < all.size(); ++i) {
    if (i == 0 || all[i].o->id != all[i - 1].o->id) starts.push_back(i);
  }
  *distinct = starts.size();
  starts.push_back(all.size());
  std::atomic<size_t> next{0};
  std::atomic<uint64_t> wrong{0};
  std::atomic<size_t> reported{0};  // Mismatches printed, capped.
  auto check = [&] {
    for (size_t i = next++; i + 1 < starts.size(); i = next++) {
      const std::string text = w.Text(all[starts[i]].o->id);
      Result<QueryResult> ref = reference.Query(text, w.ReferenceOptions());
      std::vector<uint64_t> rows;
      if (ref.ok()) rows = RowHashes(ref->execution);
      const uint64_t digest = Digest(rows);
      for (size_t j = starts[i]; j < starts[i + 1]; ++j) {
        const Observed& o = *all[j].o;
        bool right = ref.ok() && o.digest == digest;
        if (ref.ok() && o.partial != 0) {
          const std::vector<uint64_t>& got = all[j].from->rows(o);
          right = std::includes(rows.begin(), rows.end(), got.begin(),
                                got.end());
        }
        if (!right) {
          wrong += o.count;
          if (reported++ < kWrongAnswersReported) {
            std::fprintf(stderr, "wrong answer (%u times): %s\n", o.count,
                         text.c_str());
          }
        }
      }
    }
  };
  std::vector<std::thread> helpers;
  for (size_t t = 1; t < kOracleThreads; ++t) helpers.emplace_back(check);
  check();
  for (std::thread& t : helpers) t.join();
  return wrong;
}

// ---- Output ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string Json(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

bool WriteChromeTrace(const std::string& path, const Workload& w,
                      std::vector<std::unique_ptr<ClientState>>& clients,
                      const SourceClock& clock, int64_t epoch) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::unordered_map<uint64_t, std::vector<const SourceSpan*>> sources;
  for (const SourceSpan& s : clock.spans()) sources[s.query_id].push_back(&s);
  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool first = true;
  auto event = [&](const std::string& body) {
    if (!first) out += ",\n";
    first = false;
    out += body;
  };
  // Whole microseconds, start rounded down and end up: integer sums are
  // exact, so a child never pokes out of its parent by a rounding error.
  auto span = [&](const char* name, const char* cat, int64_t b, int64_t e,
                  size_t pid, uint64_t tid) {
    if (b == 0 || e < b) return;
    const int64_t ts = (b - epoch) / 1000;
    const int64_t end = (e - epoch + 999) / 1000;
    event("{\"name\": " + Json(name) + ", \"cat\": " + Json(cat) +
          ", \"ph\": \"X\", \"ts\": " + std::to_string(ts) +
          ", \"dur\": " + std::to_string(end - ts) +
          ", \"pid\": " + std::to_string(pid) +
          ", \"tid\": " + std::to_string(tid) + "}");
  };
  for (auto& cs : clients) {
    const size_t pid = cs->client + 1;
    event("{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": " +
          std::to_string(pid) + ", \"args\": {\"name\": " +
          Json(w.name() + " client " + std::to_string(cs->client)) + "}}");
    for (const QueryTrace& q : cs->traces) {
      event("{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": " +
            std::to_string(pid) + ", \"tid\": " + std::to_string(q.query_id) +
            ", \"args\": {\"name\": " +
            Json("query " + std::to_string(q.query_id)) + "}}");
      span("query", "query", q.begin, q.end, pid, q.query_id);
      span("parse", "lang", q.parse0, q.parse1, pid, q.query_id);
      span("plan", "optimizer", q.plan0, q.plan1, pid, q.query_id);
      span("dcsm.cost", "dcsm", q.cost0, q.cost1, pid, q.query_id);
      if (!w.drive().served) {
        span("Query", "engine", q.exec0, q.exec1, pid, q.query_id);
      }
      auto it = sources.find(q.query_id);
      if (it == sources.end()) continue;
      for (const SourceSpan* s : it->second) {
        if (s->start_ns < q.begin || s->end_ns > q.end) continue;
        span(("source:" + *s->domain).c_str(), "domain", s->start_ns,
             s->end_ns, pid, q.query_id);
      }
    }
  }
  out += "\n]}\n";
  const bool ok = std::fwrite(out.data(), 1, out.size(), f) == out.size();
  return std::fclose(f) == 0 && ok;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  bool corrupt = false;
  bool setup_only = false;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt-answer") {
      a->corrupt = true;
      continue;
    }
    if (flag == "--setup-only") {
      a->setup_only = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a->workload = value;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      a->trace = value == "1";
    } else if (flag == "--trace-out") {
      a->trace_out = value;
    } else {
      return false;
    }
  }
  return !a->workload.empty() && a->seconds > 0.0;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: hermes_perf --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--trace-out FILE] [--corrupt-answer]\n"
                 "       hermes_perf --workload NAME --seed N --setup-only\n");
    return 2;
  }
  std::unique_ptr<Workload> w = MakeWorkload(args.workload, args.seed);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const int64_t epoch = NowNs();
  const DriveSpec& drive = w->drive();
  const size_t threads =
      drive.served ? drive.pool_threads + 1 : drive.clients;
  std::printf("workload %s  seed %" PRIu64 "  seconds %g  trace %d\n",
              w->name().c_str(), args.seed, args.seconds, args.trace ? 1 : 0);
  std::printf("build %s  compiler %s  nproc %ld  threads %zu  pacing 0\n",
              PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER,
              sysconf(_SC_NPROCESSORS_ONLN), threads);
  std::printf("inputs: %s\n", w->Describe().c_str());
  std::fflush(stdout);

  if (!args.setup_only && !DecoratorEquivalent(*w)) return 1;

  // Set-up: wiring, data load and warm-up of fresh mediators; the last one
  // built is the one measured. From here to the end of the timed windows
  // the threads rotate round the cores.
  CoreRotator cores;
  SourceClock clock(kSourceSpansKept);
  SourceClock* timed = args.trace ? &clock : nullptr;
  std::vector<double> setup_s;
  std::unique_ptr<Mediator> med;
  const auto setup_start = Clock::now();
  while (setup_s.size() < kMinSetups ||
         (setup_s.size() < kMaxSetups &&
          Clock::now() - setup_start < kSetupBudget)) {
    med.reset();
    cores.Tick();
    const auto t0 = Clock::now();
    Result<std::unique_ptr<Mediator>> built = w->Build(timed);
    setup_s.push_back(
        std::chrono::duration<double>(Clock::now() - t0).count());
    if (!built.ok()) {
      std::fprintf(stderr, "error: set-up: %s\n",
                   built.status().ToString().c_str());
      return 1;
    }
    med = std::move(built).value();
  }
  if (!Unpaced(*med, "measured")) return 1;
  if (args.setup_only) {
    std::printf("SETUP %s\n", Num(Quantile(setup_s, 0.5)).c_str());
    return 0;
  }

  std::vector<Metric> metrics;
  bool self_checks_ok = true;
  double max_rss_mb = 0.0;
  double untraced_wall = 0.0, traced_wall = 0.0;
  // End-to-end values of each untraced window.
  std::map<std::string, std::vector<double>> per_window;
  std::vector<std::unique_ptr<ClientState>> clients;
  CimCounters cim;
  double traced_service_ms = 0.0;
  {
    Driver driver(*w, *med, cores);
    driver.RunWindow(kWarmUpSeconds, false, timed);
    for (auto& cs : driver.clients()) {
      cs->untraced = Tally();
      cs->window.clear();
    }
    const size_t windows = std::max<size_t>(
        2, static_cast<size_t>(std::lround(args.seconds / kWindowSeconds)));
    const double each = args.seconds / static_cast<double>(windows);
    for (size_t k = 0; k < windows; ++k) {
      // A traced run alternates untraced and traced windows.
      const bool traced = args.trace && k % 2 == 1;
      uint64_t before = 0;
      for (auto& cs : driver.clients()) before += cs->untraced.attempted;
      const double cpu0 = CpuSeconds();
      const double wall = driver.RunWindow(each, traced, timed);
      const double cpu = CpuSeconds() - cpu0;
      (traced ? traced_wall : untraced_wall) += wall;
      if (args.trace) {
        for (auto& cs : driver.clients()) cs->window.clear();
        continue;
      }
      double n = 0.0;
      std::vector<double> lat, tf, ta;
      for (auto& cs : driver.clients()) {
        n += static_cast<double>(cs->untraced.attempted);
        for (const Sample& x : cs->window) {
          lat.push_back(x.wall_us);
          tf.push_back(x.tf_ms);
          ta.push_back(x.ta_ms);
        }
        cs->window.clear();
      }
      n -= static_cast<double>(before);
      per_window["qps"].push_back(n / wall);
      per_window["latency_p50_us"].push_back(Quantile(lat, 0.50));
      per_window["latency_p99_us"].push_back(Quantile(lat, 0.99));
      per_window["cpu_us_per_query"].push_back(Ratio(cpu * 1e6, n));
      per_window["sim_tf_ms_p50"].push_back(Quantile(tf, 0.50));
      per_window["sim_ta_ms_p50"].push_back(Quantile(ta, 0.50));
      per_window["sim_ta_ms_p99"].push_back(Quantile(ta, 0.99));
    }
    if (!args.trace) max_rss_mb = MaxRssMb();
    traced_service_ms = driver.traced_service_ms();
    cim = driver.traced_cim();
    clients = std::move(driver.clients());
  }
  cores.Release();

  Tally untraced, traced;
  for (auto& cs : clients) {
    untraced.Merge(cs->untraced);
    traced.Merge(cs->traced);
  }
  if (args.corrupt) {
    for (auto& cs : clients) {
      if (cs->answers.seen().empty()) continue;
      Observed& o = cs->answers.seen().front();
      o.digest ^= 1;
      o.partial = 0;
      break;
    }
  }

  // Answer oracle, outside the timed window.
  Result<std::unique_ptr<Mediator>> reference = w->BuildReference();
  if (!reference.ok()) {
    std::fprintf(stderr, "error: reference: %s\n",
                 reference.status().ToString().c_str());
    return 1;
  }
  if (!Unpaced(**reference, "reference")) return 1;
  uint64_t distinct = 0;
  const uint64_t wrong = WrongAnswers(*w, **reference, clients, &distinct);

  const Tally& all = args.trace ? traced : untraced;
  const uint64_t attempted = untraced.attempted + traced.attempted;
  const uint64_t failed = untraced.failed + untraced.refused + traced.failed +
                          traced.refused + wrong;
  std::printf("checked %" PRIu64 " distinct queries against the reference: "
              "%" PRIu64 " wrong answers\n",
              distinct, wrong);

  if (!args.trace) {
    const double q = static_cast<double>(untraced.attempted);
    auto over_windows = [&per_window](const char* name) {
      return TrimmedMean(per_window[name], kTrimmedShare);
    };
    metrics = {
        {"qps", over_windows("qps"), "1/s"},
        {"latency_p50_us", over_windows("latency_p50_us"), "us"},
        {"latency_p99_us", over_windows("latency_p99_us"), "us"},
        {"cpu_us_per_query", over_windows("cpu_us_per_query"), "us"},
        {"sim_tf_ms_p50", over_windows("sim_tf_ms_p50"), "ms"},
        {"sim_ta_ms_p50", over_windows("sim_ta_ms_p50"), "ms"},
        {"sim_ta_ms_p99", over_windows("sim_ta_ms_p99"), "ms"},
        {"remote_calls_per_query",
         Ratio(static_cast<double>(untraced.m.remote_calls), q), "count"},
        {"bytes_per_query",
         Ratio(static_cast<double>(untraced.m.bytes_transferred), q), "B"},
        {"error_rate",
         Ratio(static_cast<double>(untraced.failed + untraced.refused + wrong),
               q),
         "ratio"},
        {"incomplete_rate", Ratio(static_cast<double>(untraced.incomplete), q),
         "ratio"},
        {"setup_s", Quantile(setup_s, 0.5), "s"},
        {"max_rss_mb", max_rss_mb, "MB"},
    };
    std::printf("%" PRIu64 " queries in %zu windows (timings are trimmed "
                "means over windows); setup_s over %zu builds\n",
                untraced.attempted, per_window["qps"].size(), setup_s.size());
  } else {
    const double q = static_cast<double>(traced.attempted);
    const double untraced_qps =
        static_cast<double>(untraced.attempted) / untraced_wall;
    const double traced_qps = q / traced_wall;
    const double source_us = static_cast<double>(clock.ns()) / 1e3;
    const double query_us = drive.served
                                ? traced_service_ms * 1e3
                                : static_cast<double>(traced.query_ns) / 1e3;
    std::vector<double> plan_us = traced.plan_us;
    const double plan_mean =
        plan_us.empty() ? 0.0
                        : [&] {
                            double s = 0.0;
                            for (double v : plan_us) s += v;
                            return s / static_cast<double>(plan_us.size());
                          }();
    const hermes::CallMetrics& m = all.m;
    const double lookups = static_cast<double>(m.cache_hits + m.cache_misses);
    auto per_q = [q](uint64_t v) { return Ratio(static_cast<double>(v), q); };
    metrics = {
        {"lang.parse_us", Ratio(static_cast<double>(traced.parse_ns) / 1e3, q),
         "us"},
        {"optimizer.plan_us", plan_mean, "us"},
        {"optimizer.plan_us_p99", Quantile(plan_us, 0.99), "us"},
        {"optimizer.candidates_per_query",
         Ratio(static_cast<double>(traced.candidates),
               static_cast<double>(traced.planned)),
         "count"},
        {"optimizer.plan_cache_hit_ratio", per_q(traced.plan_cache_hits),
         "ratio"},
        {"dcsm.cost_us",
         Ratio(static_cast<double>(traced.cost_ns) / 1e3,
               static_cast<double>(traced.cost_calls)),
         "us"},
        {"dcsm.records_per_query", per_q(m.stats_records), "count"},
        {"engine.self_us", Ratio(query_us - source_us, q), "us"},
        {"engine.domain_calls_per_query", per_q(m.domain_calls), "count"},
        {"engine.answers_per_query", per_q(traced.answers), "count"},
        {"engine.arena_bytes_per_query", per_q(traced.arena_bytes), "B"},
        {"cim.lookups_per_query", Ratio(lookups, q), "count"},
        {"cim.hit_ratio", Ratio(static_cast<double>(m.cache_hits), lookups),
         "ratio"},
        {"cim.invariant_hit_ratio",
         Ratio(static_cast<double>(cim.invariant_hits),
               static_cast<double>(cim.lookups)),
         "ratio"},
        {"cim.evictions_per_kquery",
         Ratio(1e3 * static_cast<double>(cim.evictions), q), "count"},
        {"domain.source_us", Ratio(source_us, q), "us"},
        {"domain.source_calls_per_query",
         Ratio(static_cast<double>(clock.calls()), q), "count"},
        {"net.sim_ms_per_query", Ratio(m.network_ms, q), "ms"},
        {"net.failures_per_query", per_q(m.remote_failures), "count"},
        {"resilience.retries_per_query", per_q(m.retries), "count"},
        {"resilience.failovers_per_query", per_q(m.failovers), "count"},
        {"resilience.breaker_shed_per_query", per_q(m.breaker_shed), "count"},
        {"overload.load_shed_per_query", per_q(m.load_shed), "count"},
        {"overload.hedges_per_query", per_q(m.hedges), "count"},
        {"overload.hedge_win_ratio",
         Ratio(static_cast<double>(m.hedge_wins),
               static_cast<double>(m.hedges)),
         "ratio"},
        {"trace.overhead_pct",
         100.0 * Ratio(untraced_qps - traced_qps, untraced_qps), "%"},
        {"trace.queries", q, "count"},
    };
    std::printf("bases: %.0f traced queries, %.0f CIM lookups (calls), "
                "%" PRIu64 " CIM lookups (stats), %" PRIu64 " hedges, "
                "%" PRIu64 " planned; untraced %.0f qps vs traced %.0f qps\n",
                q, lookups, cim.lookups, m.hedges, traced.planned,
                untraced_qps, traced_qps);

    // Self-checks: each workload exercises the layers it claims.
    auto value = [&metrics](const char* name) {
      for (const Metric& x : metrics) {
        if (x.name == name) return x.value;
      }
      return -1.0;
    };
    auto check = [&self_checks_ok](bool ok, const char* what) {
      std::printf("self-check %-58s %s\n", what, ok ? "ok" : "FAILED");
      if (!ok) self_checks_ok = false;
    };
    if (w->name() == "appendix_mix") {
      check(value("cim.evictions_per_kquery") > 0,
            "cim.evictions_per_kquery > 0");
      check(value("cim.invariant_hit_ratio") > 0,
            "cim.invariant_hit_ratio > 0");
      check(value("optimizer.plan_us") > 0, "optimizer.plan_us > 0");
    } else {
      check(value("optimizer.plan_us") == 0 && traced.optimized == 0 &&
                untraced.optimized == 0,
            "optimizer idle (plan_us 0, no query optimized)");
    }
    if (w->name() == "cim_hot") {
      check(value("cim.hit_ratio") == 1.0, "cim.hit_ratio == 1.0");
      check(value("domain.source_calls_per_query") == 0,
            "domain.source_calls_per_query == 0");
    }
    if (w->name() == "fanout_faults") {
      check(value("resilience.retries_per_query") > 0,
            "resilience.retries_per_query > 0");
      check(value("resilience.failovers_per_query") > 0,
            "resilience.failovers_per_query > 0");
      check(value("resilience.breaker_shed_per_query") > 0,
            "resilience.breaker_shed_per_query > 0");
      check(value("overload.hedges_per_query") > 0,
            "overload.hedges_per_query > 0");
    }
    if (!args.trace_out.empty()) {
      if (!WriteChromeTrace(args.trace_out, *w, clients, clock, epoch)) {
        std::fprintf(stderr, "error: cannot write %s\n",
                     args.trace_out.c_str());
        return 1;
      }
      std::printf("trace written to %s\n", args.trace_out.c_str());
    }
  }

  for (const Metric& x : metrics) {
    std::printf("  %-36s %14.4f %s\n", x.name.c_str(), x.value,
                x.unit.c_str());
  }
  const bool correct = wrong == 0 && self_checks_ok;
  std::string json = "{\"workload\": " + Json(w->name()) +
                     ", \"seed\": " + std::to_string(args.seed) +
                     ", \"correct\": " + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += Json(metrics[i].name) + ": {\"value\": " + Num(metrics[i].value) +
            ", \"unit\": " + Json(metrics[i].unit) + "}";
  }
  json += "}}";
  std::printf("RESULT %s\n", json.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
