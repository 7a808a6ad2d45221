#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/json.hpp"
#include "obs/trace_macros.hpp"
#include "obs/trace_spill.hpp"

namespace redcache::obs {
namespace {

TraceEvent CmdEvent(Cycle cycle, TraceEventType type = TraceEventType::kCmdRead) {
  return TraceEvent{.cycle = cycle,
                    .dur = 4,
                    .type = type,
                    .device = kTraceDeviceHbm,
                    .rank = 0,
                    .bank = 3,
                    .channel = 1,
                    .addr = 0x1000,
                    .arg = 42};
}

TEST(TraceBuffer, CapacityRoundsUpToPowerOfTwo) {
  TraceBuffer t(5);
  EXPECT_EQ(t.capacity(), 8u);
  TraceBuffer t2(8);
  EXPECT_EQ(t2.capacity(), 8u);
}

TEST(TraceBuffer, RetainsMostRecentWindowAndCountsDrops) {
  TraceBuffer t(4);
  for (Cycle c = 0; c < 10; ++c) t.Emit(CmdEvent(c));
  EXPECT_EQ(t.emitted(), 10u);
  EXPECT_EQ(t.size(), 4u);
  EXPECT_EQ(t.dropped(), 6u);
  const auto events = t.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  // Oldest first: cycles 6..9 survived.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].cycle, 6 + i);
  }
}

TEST(TraceBuffer, ClearResets) {
  TraceBuffer t(4);
  t.Emit(CmdEvent(1));
  t.Clear();
  EXPECT_EQ(t.emitted(), 0u);
  EXPECT_EQ(t.size(), 0u);
  EXPECT_TRUE(t.Snapshot().empty());
}

TEST(TraceScope, InstallsAndRestoresNested) {
  EXPECT_EQ(ActiveTrace(), nullptr);
  TraceBuffer outer_buf, inner_buf;
  {
    TraceScope outer(&outer_buf);
    EXPECT_EQ(ActiveTrace(), &outer_buf);
    {
      TraceScope inner(&inner_buf);
      EXPECT_EQ(ActiveTrace(), &inner_buf);
    }
    EXPECT_EQ(ActiveTrace(), &outer_buf);
  }
  EXPECT_EQ(ActiveTrace(), nullptr);
}

TEST(TraceMacro, EmitsOnlyWhileScopeActive) {
  TraceBuffer buf(16);
  REDCACHE_TRACE_EVENT(CmdEvent(1));  // no scope: must be a no-op
  EXPECT_EQ(buf.emitted(), 0u);
  {
    TraceScope scope(&buf);
    REDCACHE_TRACE_EVENT(CmdEvent(2));
  }
  REDCACHE_TRACE_EVENT(CmdEvent(3));  // scope gone again
  ASSERT_EQ(buf.emitted(), 1u);
  EXPECT_EQ(buf.Snapshot()[0].cycle, 2u);
}

TEST(TraceEventType, NamesAreStable) {
  EXPECT_STREQ(ToString(TraceEventType::kCmdRead), "RD");
  EXPECT_STREQ(ToString(TraceEventType::kCmdWrite), "WR");
  EXPECT_STREQ(ToString(TraceEventType::kCmdActivate), "ACT");
  EXPECT_STREQ(ToString(TraceEventType::kCmdPrecharge), "PRE");
  EXPECT_STREQ(ToString(TraceEventType::kCmdRefresh), "REF");
  EXPECT_STREQ(ToString(TraceEventType::kRcuFlush), "rcu_flush");
}

TEST(ChromeTrace, ExportValidatesAndRoundTrips) {
  TraceBuffer t(64);
  t.Emit(CmdEvent(100, TraceEventType::kCmdActivate));
  t.Emit(CmdEvent(110, TraceEventType::kCmdRead));
  t.Emit(TraceEvent{.cycle = 120,
                    .type = TraceEventType::kAlphaBypass,
                    .device = kTraceDevicePolicy,
                    .addr = 0x2000,
                    .arg = 3});
  t.Emit(TraceEvent{.cycle = 130,
                    .type = TraceEventType::kRcuFlush,
                    .device = kTraceDevicePolicy,
                    .addr = 0x3000,
                    .arg = kRcuFlushIdle});

  const std::string json = ChromeTraceJson(t);
  std::string err;
  EXPECT_TRUE(ValidateChromeTrace(json, &err)) << err;

  JsonValue doc;
  ASSERT_TRUE(ParseJson(json, doc, &err)) << err;
  const JsonValue* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  std::size_t x_events = 0, metadata = 0;
  bool saw_read = false, saw_flush_reason = false;
  for (const JsonValue& e : events->array) {
    const JsonValue* ph = e.Find("ph");
    ASSERT_NE(ph, nullptr);
    if (ph->string == "M") {
      metadata++;
      continue;
    }
    ASSERT_EQ(ph->string, "X");
    x_events++;
    const JsonValue* dur = e.Find("dur");
    ASSERT_NE(dur, nullptr);
    EXPECT_GE(dur->number, 1.0);
    const JsonValue* name = e.Find("name");
    ASSERT_NE(name, nullptr);
    if (name->string == "RD") saw_read = true;
    if (name->string == "rcu_flush") {
      const JsonValue* args = e.Find("args");
      ASSERT_NE(args, nullptr);
      const JsonValue* reason = args->Find("reason");
      ASSERT_NE(reason, nullptr);
      EXPECT_EQ(reason->string, "idle");
      saw_flush_reason = true;
    }
  }
  EXPECT_EQ(x_events, 4u);
  EXPECT_GT(metadata, 0u) << "process/thread name metadata expected";
  EXPECT_TRUE(saw_read);
  EXPECT_TRUE(saw_flush_reason);
}

TEST(ChromeTrace, EmptyBufferStillValidates) {
  TraceBuffer t(4);
  std::string err;
  EXPECT_TRUE(ValidateChromeTrace(ChromeTraceJson(t), &err)) << err;
}

TEST(ValidateChromeTrace, RejectsBadDocuments) {
  std::string err;
  EXPECT_FALSE(ValidateChromeTrace("not json", &err));
  EXPECT_FALSE(ValidateChromeTrace("{}", &err));
  EXPECT_FALSE(ValidateChromeTrace(R"({"traceEvents": 3})", &err));
  // X event missing "dur".
  EXPECT_FALSE(ValidateChromeTrace(
      R"({"traceEvents":[{"name":"RD","ph":"X","ts":1,"pid":0,"tid":0}]})",
      &err));
  // Event missing "name".
  EXPECT_FALSE(ValidateChromeTrace(
      R"({"traceEvents":[{"ph":"X","ts":1,"dur":1,"pid":0,"tid":0}]})", &err));
  EXPECT_FALSE(err.empty());
}

class SpillCounter : public TraceSpillSink {
 public:
  void Consume(const TraceEvent& e) override { cycles.push_back(e.cycle); }
  std::vector<Cycle> cycles;
};

TEST(TraceSpill, OverwriteHookSeesEvictedEventsOldestFirst) {
  TraceBuffer t(4);
  SpillCounter spill;
  t.SetSpill(&spill);
  for (Cycle c = 0; c < 10; ++c) t.Emit(CmdEvent(c));
  // Ring keeps 6..9; the hook received exactly the overwritten 0..5.
  ASSERT_EQ(spill.cycles.size(), 6u);
  for (std::size_t i = 0; i < spill.cycles.size(); ++i) {
    EXPECT_EQ(spill.cycles[i], static_cast<Cycle>(i));
  }
  t.SetSpill(nullptr);
  for (Cycle c = 10; c < 14; ++c) t.Emit(CmdEvent(c));
  EXPECT_EQ(spill.cycles.size(), 6u);  // detached: no further deliveries
}

TEST(TraceSpill, WindowedFullRunTraceValidatesAndAccountsForEveryEvent) {
  const std::string path = testing::TempDir() + "/spill_test.json";
  TraceBuffer ring(8);
  TraceSpillWriter writer(path);
  ASSERT_TRUE(writer.ok());
  ring.SetSpill(&writer);

  // 100 events through an 8-slot window, across two devices so tracks that
  // exist *only* in the spilled prefix still get their metadata records.
  const std::uint64_t kTotal = 100;
  for (Cycle c = 0; c < kTotal; ++c) {
    TraceEvent e = CmdEvent(c);
    if (c < 20) {
      e.device = kTraceDevicePolicy;
      e.type = TraceEventType::kRetune;
    }
    ring.Emit(e);
  }
  ASSERT_TRUE(writer.Finish(ring));
  EXPECT_EQ(writer.spilled(), kTotal - ring.capacity());

  std::ifstream in(path);
  std::stringstream body;
  body << in.rdbuf();
  std::string err;
  ASSERT_TRUE(ValidateChromeTrace(body.str(), &err)) << err;

  JsonValue doc;
  ASSERT_TRUE(ParseJson(body.str(), doc, &err)) << err;
  const JsonValue* other = doc.Find("otherData");
  ASSERT_NE(other, nullptr);
  EXPECT_EQ(other->Find("emitted")->number, static_cast<double>(kTotal));
  EXPECT_EQ(other->Find("spilled")->number,
            static_cast<double>(kTotal - ring.capacity()));
  EXPECT_EQ(other->Find("retained")->number,
            static_cast<double>(ring.capacity()));
  // The memory-cap proof: attached before the first overwrite, so nothing
  // was lost despite the window being 8 deep.
  EXPECT_EQ(other->Find("dropped")->number, 0.0);
  EXPECT_EQ(other->Find("ring_capacity")->number,
            static_cast<double>(ring.capacity()));

  // Every emitted event is present exactly once (spilled prefix in cycle
  // order, then the retained window), and the policy track — long evicted
  // from the ring — still has its metadata pair.
  std::uint64_t x_events = 0;
  bool policy_named = false;
  Cycle prev = 0;
  for (const JsonValue& e : doc.Find("traceEvents")->array) {
    const std::string& ph = e.Find("ph")->string;
    if (ph == "X") {
      const Cycle ts = static_cast<Cycle>(e.Find("ts")->number);
      if (x_events > 0) {
        EXPECT_GE(ts, prev);
      }
      prev = ts;
      ++x_events;
    } else if (ph == "M" && e.Find("name")->string == "process_name") {
      const JsonValue* args = e.Find("args");
      if (args != nullptr && args->Find("name") != nullptr &&
          args->Find("name")->string ==
              TraceDeviceName(kTraceDevicePolicy)) {
        policy_named = true;
      }
    }
  }
  EXPECT_EQ(x_events, kTotal);
  EXPECT_TRUE(policy_named);
  std::remove(path.c_str());
}

TEST(TraceSpill, LateAttachReportsPreAttachLossAsDropped) {
  const std::string path = testing::TempDir() + "/spill_late.json";
  TraceBuffer ring(4);
  // 10 events before any writer exists: 6 are gone for good.
  for (Cycle c = 0; c < 10; ++c) ring.Emit(CmdEvent(c));
  TraceSpillWriter writer(path);
  ASSERT_TRUE(writer.ok());
  ring.SetSpill(&writer);
  for (Cycle c = 10; c < 20; ++c) ring.Emit(CmdEvent(c));
  ASSERT_TRUE(writer.Finish(ring));

  std::ifstream in(path);
  std::stringstream body;
  body << in.rdbuf();
  JsonValue doc;
  std::string err;
  ASSERT_TRUE(ParseJson(body.str(), doc, &err)) << err;
  const JsonValue* other = doc.Find("otherData");
  EXPECT_EQ(other->Find("spilled")->number, 10.0);   // cycles 6..15
  EXPECT_EQ(other->Find("retained")->number, 4.0);   // cycles 16..19
  EXPECT_EQ(other->Find("dropped")->number, 6.0);    // cycles 0..5, pre-attach
  std::remove(path.c_str());
}

}  // namespace
}  // namespace redcache::obs
