#include "obs/trace.h"

#include <gtest/gtest.h>

#include <string>

namespace iri::obs {
namespace {

TimePoint T(double seconds) {
  return TimePoint::Origin() + Duration::Seconds(seconds);
}

TEST(TraceEvent, EmitsOneJsonLinePerEvent) {
  Tracer tracer;
  { TraceEvent(&tracer, T(1.5), "link_fail").Str("link", "isp-0"); }
  { TraceEvent(&tracer, T(2), "fsm").Str("from", "Idle").Str("to", "Connect"); }
  EXPECT_EQ(tracer.events(), 2u);
  EXPECT_EQ(tracer.buffer(),
            "{\"t_ns\":1500000000,\"ev\":\"link_fail\",\"link\":\"isp-0\"}\n"
            "{\"t_ns\":2000000000,\"ev\":\"fsm\",\"from\":\"Idle\","
            "\"to\":\"Connect\"}\n");
}

TEST(TraceEvent, NumericFields) {
  Tracer tracer;
  {
    TraceEvent(&tracer, T(0), "backlog_high")
        .U64("epoch", 7)
        .I64("backlog_ns", -5);
  }
  EXPECT_EQ(tracer.buffer(),
            "{\"t_ns\":0,\"ev\":\"backlog_high\",\"epoch\":7,"
            "\"backlog_ns\":-5}\n");
}

TEST(TraceEvent, EscapesStringValues) {
  Tracer tracer;
  { TraceEvent(&tracer, T(0), "ev").Str("k", "a\"b\\c\nd\x01\x1f"); }
  EXPECT_EQ(tracer.buffer(),
            "{\"t_ns\":0,\"ev\":\"ev\","
            "\"k\":\"a\\\"b\\\\c\\nd\\u0001\\u001f\"}\n");
}

TEST(TraceEvent, NullTracerIsANoOp) {
  // Emission sites pass whatever pointer they cached; a detached component
  // holds null and must cost nothing (and crash nothing).
  TraceEvent(nullptr, T(9), "ignored").Str("k", "v").U64("n", 1);
  SUCCEED();
}

TEST(Tracer, TakeBufferMovesTextOut) {
  Tracer a;
  { TraceEvent(&a, T(1), "one"); }
  { TraceEvent(&a, T(2), "two"); }
  EXPECT_EQ(a.TakeBuffer(),
            "{\"t_ns\":1000000000,\"ev\":\"one\"}\n"
            "{\"t_ns\":2000000000,\"ev\":\"two\"}\n");
  EXPECT_TRUE(a.buffer().empty());
  EXPECT_EQ(a.events(), 2u);
}

TEST(TraceMacro, ExpandsToTraceEvent) {
  Tracer tracer;
  IRI_TRACE(&tracer, T(3), "probe", .U64("n", 1));
  EXPECT_EQ(tracer.events(), 1u);
  EXPECT_EQ(tracer.buffer(), "{\"t_ns\":3000000000,\"ev\":\"probe\",\"n\":1}\n");
}

}  // namespace
}  // namespace iri::obs
