#include "obs/trace.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/strings.h"

namespace hermes::obs {

namespace {

/// One complete ("ph":"X") trace event. Timestamps use the simulated clock
/// (deterministic, and the one the paper's figures are drawn in); the wall
/// clock rides along in args. Both span ends are rounded to whole trace µs
/// and `dur` is their difference, so a child that ends with its parent
/// still ends inside it once rendered (rounding `ts` and `dur` separately
/// let it poke out by a digit).
void AppendSpanEvent(const Span& span, uint64_t tid, std::string* out) {
  const long long begin_us = std::llround(span.sim_begin_ms * 1000.0);
  const long long end_us =
      std::max(std::llround(span.sim_end_ms * 1000.0), begin_us);
  *out += "{\"name\":\"" + JsonEscape(span.name) + "\",\"cat\":\"" +
          JsonEscape(span.category) + "\",\"ph\":\"X\",\"ts\":" +
          std::to_string(begin_us) + ",\"dur\":" +
          std::to_string(end_us - begin_us) + ",\"pid\":1,\"tid\":" +
          std::to_string(tid) + ",\"args\":{";
  *out += "\"wall_begin_us\":" + FormatNumber(span.wall_begin_us) +
          ",\"wall_dur_us\":" +
          FormatNumber(std::max(span.wall_end_us - span.wall_begin_us, 0.0));
  if (span.failed) *out += ",\"failed\":true";
  for (const auto& [k, v] : span.args) {
    *out += ",\"" + JsonEscape(k) + "\":\"" + JsonEscape(v) + "\"";
  }
  *out += "}}";
}

using Kind = FlightEventKind;

/// Names the span `ev` opens and adds the arguments it carries; false
/// when `ev` opens none.
bool OpenSpan(const FlightEvent& ev, const std::string& query_text,
              Span* span) {
  auto& args = span->args;
  switch (ev.kind) {
    case Kind::kQueryStart:
      span->name = span->category = "query";
      if (!query_text.empty()) args.emplace_back("text", query_text);
      args.emplace_back("query_id", std::to_string(ev.query_id));
      if (ev.detail[0] != '\0') args.emplace_back("plan", ev.detail_str());
      return true;
    case Kind::kCallIssued:
      span->name = "call:" + ev.domain_str() + ":" + ev.detail_str();
      span->category = "domain-call";
      return true;
#define HERMES_SPAN_KIND(id, stem, label, cat) \
  case Kind::k##id##Begin:                      \
    span->name = label + ev.detail_str();       \
    span->category = cat;                       \
    break;
      HERMES_SPAN_KINDS(HERMES_SPAN_KIND)
#undef HERMES_SPAN_KIND
    default:
      return false;
  }
  if (ev.kind == Kind::kNetworkHopBegin) {
    args.emplace_back("site", ev.site_str());
  } else if (ev.kind == Kind::kRetryWaitBegin) {
    args.emplace_back("attempt", std::to_string(ev.aux));
  } else if (ev.kind == Kind::kFailoverBegin) {
    args.emplace_back("from", ev.site_str());
  }
  return true;
}

/// Arguments a span takes from its end event, and for the query span from
/// the arena high-water event inside it (negative when none was seen).
void AddEndArgs(const FlightEvent& ev, double arena_bytes, Span* span) {
  auto& args = span->args;
  if (ev.failed) {
    span->failed = true;
    if (ev.detail[0] != '\0') args.emplace_back("error", ev.detail_str());
    if (ev.site[0] != '\0') args.emplace_back("site", ev.site_str());
    return;
  }
  switch (ev.kind) {
    case Kind::kQueryEnd:
      args.emplace_back("answers", std::to_string(ev.aux));
      if (arena_bytes >= 0.0) {
        args.emplace_back("arena_bytes",
                          std::to_string(static_cast<uint64_t>(arena_bytes)));
      }
      if (ev.detail[0] != '\0' && ev.detail_str() != "complete") {
        args.emplace_back("completeness", ev.detail_str());
      }
      break;
    case Kind::kOptimizeEnd:
      args.emplace_back("plan", ev.detail_str());
      args.emplace_back("candidates", std::to_string(ev.aux));
      break;
    case Kind::kCallCompleted:
      args.emplace_back("answers", std::to_string(ev.aux));
      break;
    case Kind::kNetworkHopEnd:
      args.emplace_back("bytes", std::to_string(ev.aux));
      break;
    default:
      break;
  }
}

/// The cache-lookup span of a call whose end event `call_end` carries its
/// CIM outcome: the lookup's outcome, degraded flag and failure.
void AddLookupArgs(const FlightEvent& call_end, Span* span) {
  span->args.emplace_back("outcome", CacheLookupName(call_end.cache));
  if (call_end.failed) {
    AddEndArgs(call_end, -1.0, span);
  } else if (call_end.degraded) {
    span->args.emplace_back("degraded", "true");
  }
}

}  // namespace

std::vector<Span> Tracer::spans() const {
  std::vector<Span> spans;
  // Per span, its begin event's seq. A derived cache-lookup span repeats
  // its call's, right after it.
  std::vector<uint32_t> begin_seqs;
  std::vector<size_t> open;  ///< Open span indices, innermost last.
  uint64_t epoch_ns = UINT64_MAX;
  // The calls whose end event carries a CIM outcome, by begin seq: each
  // gets a cache-lookup span with the call's bounds, which parents
  // whatever the lookup did below it (a miss's network hop).
  std::vector<uint32_t> looked_up;
  for (const FlightEvent& ev : events_) {
    epoch_ns = std::min(epoch_ns, ev.host_ns);
    if (ev.cache != CacheLookup::kNone) looked_up.push_back(ev.begin_seq);
  }
  std::sort(looked_up.begin(), looked_up.end());
  auto wall_us = [epoch_ns](const FlightEvent& ev) {
    return static_cast<double>(ev.host_ns - epoch_ns) / 1000.0;
  };
  double arena_bytes = -1.0;

  // Closes (or, when already closed, only extends) span `index` at `ev`.
  auto close = [&](size_t index, const FlightEvent& ev, bool lookup) {
    Span& span = spans[index];
    span.sim_end_ms = std::max({span.sim_end_ms, ev.sim_ms, span.sim_begin_ms});
    span.wall_end_us = wall_us(ev);
    if (span.closed) return;
    if (lookup) {
      AddLookupArgs(ev, &span);
    } else {
      AddEndArgs(ev, arena_bytes, &span);
    }
    span.closed = true;
    open.erase(std::find(open.begin(), open.end(), index));
    if (span.parent != 0) {
      Span& parent = spans[span.parent - 1];
      parent.sim_end_ms = std::max(parent.sim_end_ms, span.sim_end_ms);
    }
  };
  // Opens the span `ev` begins (filled in by OpenSpan or the caller).
  auto push = [&](const FlightEvent& ev, Span span) {
    span.id = spans.size() + 1;
    span.parent = open.empty() ? 0 : spans[open.back()].id;
    span.sim_begin_ms = span.sim_end_ms = ev.sim_ms;
    span.wall_begin_us = span.wall_end_us = wall_us(ev);
    open.push_back(spans.size());
    begin_seqs.push_back(ev.seq);
    spans.push_back(std::move(span));
  };

  for (const FlightEvent& ev : events_) {
    if (ev.kind == Kind::kArenaHighWater) arena_bytes = ev.value;
    if (ev.begin_seq != 0) {
      // Events arrive in seq order, so begin_seqs is sorted. An end whose
      // begin is missing (evicted from a ring) closes nothing.
      auto it = std::lower_bound(begin_seqs.begin(), begin_seqs.end(),
                                 ev.begin_seq);
      if (it == begin_seqs.end() || *it != ev.begin_seq) continue;
      const size_t index = static_cast<size_t>(it - begin_seqs.begin());
      if (index + 1 < begin_seqs.size() &&
          begin_seqs[index + 1] == ev.begin_seq) {
        close(index + 1, ev, /*lookup=*/true);
      }
      close(index, ev, /*lookup=*/false);
      continue;
    }
    Span span;
    if (!OpenSpan(ev, query_text_, &span)) continue;
    push(ev, std::move(span));
    if (ev.kind == Kind::kCallIssued &&
        std::binary_search(looked_up.begin(), looked_up.end(), ev.seq)) {
      Span lookup;
      lookup.name = "cache-lookup";
      lookup.category = "cache";
      push(ev, std::move(lookup));
    }
  }
  return spans;
}

std::string Tracer::ToChromeJson() const { return ChromeTraceJson({this}); }

std::string ChromeTraceJson(const std::vector<const Tracer*>& tracers) {
  // A merge over zero tracers — or only null / never-run tracers — must
  // still be a valid (empty) trace document, with no orphan metadata
  // records describing threads that recorded nothing.
  std::vector<std::pair<uint64_t, std::vector<Span>>> tracks;
  for (const Tracer* tracer : tracers) {
    if (tracer == nullptr) continue;
    std::vector<Span> spans = tracer->spans();
    if (spans.empty()) continue;
    tracks.emplace_back(tracer->query_id(), std::move(spans));
  }
  if (tracks.empty()) return "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}";

  std::string out = "{\"traceEvents\":[";
  bool first = true;
  auto append = [&out, &first](const std::string& event) {
    if (!first) out += ",";
    first = false;
    out += event;
  };

  append("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
         "\"args\":{\"name\":\"hermes mediator\"}}");
  for (const auto& [tid, spans] : tracks) {
    append("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" +
           std::to_string(tid) + ",\"args\":{\"name\":\"query " +
           std::to_string(tid) + "\"}}");
    for (const Span& span : spans) {
      std::string event;
      AppendSpanEvent(span, tid, &event);
      append(event);
    }
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

}  // namespace hermes::obs
