// CallContext::Emit into a diagnostics ring allocates nothing once the
// calling thread's ring exists: events are fixed-size values stamped in
// place, so no layer formats a string per event.

#include <gtest/gtest.h>

#include <string>

#include "alloc_guard.h"
#include "domain/pipeline.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"

namespace hermes {
namespace {

using Kind = obs::FlightEventKind;

TEST(EmitAlloc, TenThousandEmitsIntoARingAllocateNothing) {
  obs::FlightRecorder ring(/*ring_capacity=*/1024);
  obs::EventSinks sinks{nullptr, &ring};
  CallContext ctx;
  ctx.query_id = 1;
  ctx.sinks = &sinks;
  ctx.last_failure_site = "umd";
  ctx.last_failure_cause = "unavailable";
  const std::string domain = "video";
  const std::string function = "frames_to_objects";
  // The first emission on this thread creates its ring.
  ctx.Emit(obs::FlightEvent::At(Kind::kQueryStart, 0.0));

  HERMES_EXPECT_ALLOCS_LE(0, {
    for (int i = 0; i < 5000; ++i) {
      const double t = static_cast<double>(i);
      const uint32_t call = ctx.Emit(obs::FlightEvent::At(Kind::kCallIssued, t)
                                         .set_domain(domain)
                                         .set_detail(function));
      obs::FlightEvent end =
          obs::FlightEvent::End(Kind::kCallFailed, call, t + 1.0);
      end.set_domain(domain).set_failed(ctx.failure_cause(),
                                        ctx.last_failure_site);
      ctx.Emit(end);
    }
  });
  EXPECT_EQ(ring.total_events(), 10001u);
  EXPECT_EQ(ctx.event_seq, 10001u);  // the last event is numbered 10001
}

}  // namespace
}  // namespace hermes
