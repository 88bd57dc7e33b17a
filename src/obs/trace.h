#ifndef HERMES_OBS_TRACE_H_
#define HERMES_OBS_TRACE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/flight_recorder.h"

namespace hermes::obs {

/// One timed operation in a query's execution tree, derived from the
/// query's event stream. Spans carry both clocks: the simulated pipeline
/// clock (the system's deterministic cost model, what the paper's figures
/// measure) and the host wall clock (what the implementation actually
/// spent inside the span).
struct Span {
  uint64_t id = 0;      ///< 1-based; 0 is "no span".
  uint64_t parent = 0;  ///< Parent span id; 0 for roots.
  std::string name;     ///< e.g. "call:video:frames_to_objects".
  std::string category; ///< Layer: query|rule|domain-call|cache|net|optimizer.
  double sim_begin_ms = 0.0;
  double sim_end_ms = 0.0;
  double wall_begin_us = 0.0;  ///< Host µs since the track's first event.
  double wall_end_us = 0.0;
  bool failed = false;
  bool closed = false;
  std::vector<std::pair<std::string, std::string>> args;
};

/// A query's trace: the caller-side sink of CallContext::Emit.
///
/// The tracer stores the query's events as emitted and derives spans from
/// them on demand. A begin event opens a span under the innermost open
/// one; its end event closes it, extending the recorded end so a parent
/// never ends before its children (failed calls report a shorter envelope
/// than the penalties their children charged). A call whose end event
/// carries a CIM outcome also gets a `cache-lookup` child span with the
/// call's bounds, inside which the call's network hop nests. A debug
/// bundle renders its trace from a flight-recorder slice through the same
/// derivation.
///
/// NOT thread-safe: one tracer belongs to one query, which executes on one
/// thread (concurrent queries each carry their own tracer).
class Tracer {
 public:
  /// The track id: the query id the appended events carry.
  uint64_t query_id() const {
    return events_.empty() ? 0 : events_.front().query_id;
  }

  /// The submitted query text, rendered as the root span's `text`
  /// argument. Events hold fixed-size strings only, so the text travels
  /// beside them.
  void set_query_text(std::string text) { query_text_ = std::move(text); }

  /// Appends one event of this query, in emission order.
  void Append(const FlightEvent& ev) { events_.push_back(ev); }
  /// Append() of `ev` stamped with `stamp` as it is copied in.
  void Append(const FlightEvent& ev, const EventStamp& stamp) {
    stamp.Apply(events_.emplace_back(ev));
  }

  const std::vector<FlightEvent>& events() const { return events_; }
  bool empty() const { return events_.empty(); }

  /// The span tree the events describe, in the order the spans opened.
  std::vector<Span> spans() const;

  /// This tracer's spans as a complete Chrome trace_event JSON document
  /// (load in chrome://tracing or https://ui.perfetto.dev).
  std::string ToChromeJson() const;

 private:
  std::string query_text_;
  std::vector<FlightEvent> events_;
};

/// Merges the spans of several tracers (e.g. a cold and a warm run of the
/// same query) into one Chrome trace_event JSON document. Each query
/// renders as its own named track (tid = query id) under one process.
std::string ChromeTraceJson(const std::vector<const Tracer*>& tracers);

/// Where CallContext::Emit delivers one query's events.
struct EventSinks {
  Tracer* tracer = nullptr;        ///< The caller's QueryOptions::tracer.
  FlightRecorder* ring = nullptr;  ///< The diagnostics flight recorder.
};

}  // namespace hermes::obs

#endif  // HERMES_OBS_TRACE_H_
