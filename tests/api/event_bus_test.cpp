// api::event_bus contract tests: monotonic gap-free sequencing under
// concurrent publishers, a slow reader that misses nothing, the
// subscribe-after-terminal replay, lazy terminal-body rendering, the drain
// hook, and forget() under an attached reader. The scheduler integration
// (which events a job emits) is tested over SSE in http_transport_test.cpp;
// this file tests the bus alone.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/event_bus.h"

namespace nwdec::api {
namespace {

// Reads everything currently deliverable (stops at a timeout or once the
// cursor ends).
std::vector<job_event> drain(event_bus& bus, event_bus::cursor& reader,
                             int timeout_ms = 200) {
  std::vector<job_event> seen;
  while (!reader.ended()) {
    std::optional<job_event> event = bus.next(reader, timeout_ms);
    if (!event.has_value()) break;
    seen.push_back(std::move(*event));
  }
  return seen;
}

TEST(EventBusTest, SequencesAreMonotonicAndGapFreeUnderConcurrentPublishers) {
  event_bus bus;
  bus.publish(7, "queued", false, "");  // create the stream first
  std::optional<event_bus::cursor> events = bus.subscribe(7, 0);
  ASSERT_TRUE(events.has_value());

  constexpr int kPublishers = 4;
  constexpr int kEach = 25;
  std::vector<std::thread> publishers;
  publishers.reserve(kPublishers);
  for (int t = 0; t < kPublishers; ++t) {
    publishers.emplace_back([&bus] {
      for (int i = 0; i < kEach; ++i) {
        bus.publish(7, "progress", false, ",\"tick\":1");
      }
    });
  }
  // Read while the publishers run, so the reader waits on live events.
  std::uint64_t previous = 0;
  std::size_t count = 0;
  bool published_done = false;
  for (;;) {
    if (!published_done && count == 1u + kPublishers * kEach) {
      for (std::thread& publisher : publishers) publisher.join();
      bus.publish(7, "done", true, "");
      published_done = true;
    }
    const std::optional<job_event> event = bus.next(*events, 1000);
    ASSERT_TRUE(event.has_value()) << "stream stalled after " << count;
    // The whole contract in one assertion: every delivery is exactly the
    // previous sequence number plus one.
    EXPECT_EQ(event->seq, previous + 1);
    previous = event->seq;
    ++count;
    if (event->terminal) break;
  }
  EXPECT_EQ(count, 1u + kPublishers * kEach + 1u);
  EXPECT_TRUE(events->ended());
}

TEST(EventBusTest, SlowReaderMissesNothing) {
  event_bus bus;
  bus.publish(3, "queued", false, "");
  std::optional<event_bus::cursor> slow = bus.subscribe(3, 0);
  ASSERT_TRUE(slow.has_value());

  // Publish far past any queue a reader could once hold, without reading.
  for (int i = 0; i < 1000; ++i) {
    bus.publish(3, "progress", false, ",\"done\":" + std::to_string(i));
  }
  bus.publish(3, "done", true, "");

  const std::vector<job_event> delivered = drain(bus, *slow);
  ASSERT_EQ(delivered.size(), 1002u);
  for (std::size_t i = 0; i < delivered.size(); ++i) {
    EXPECT_EQ(delivered[i].seq, i + 1);
  }
  EXPECT_EQ(delivered.front().type, "queued");
  EXPECT_EQ(delivered[500].line,
            "{\"job\":3,\"seq\":501,\"event\":\"progress\",\"done\":499}\n");
  EXPECT_EQ(delivered.back().type, "done");
  EXPECT_TRUE(delivered.back().terminal);
  EXPECT_TRUE(slow->ended());
}

TEST(EventBusTest, SubscribeAfterTerminalReplaysTheWholeStream) {
  event_bus bus;
  bus.publish(5, "queued", false, ",\"kind\":\"sweep\"");
  bus.publish(5, "running", false, "");
  bus.publish(5, "done", true, ",\"result\":{\"n\":1}");

  std::optional<event_bus::cursor> late = bus.subscribe(5, 0);
  ASSERT_TRUE(late.has_value());
  const std::vector<job_event> replay = drain(bus, *late);
  ASSERT_EQ(replay.size(), 3u);
  EXPECT_EQ(replay[0].type, "queued");
  EXPECT_EQ(replay[1].type, "running");
  EXPECT_EQ(replay[2].type, "done");
  EXPECT_NE(replay[2].line.find("\"result\":{\"n\":1}"), std::string::npos);
  EXPECT_TRUE(late->ended());

  // A mid-stream cursor replays only the tail.
  std::optional<event_bus::cursor> tail = bus.subscribe(5, 2);
  ASSERT_TRUE(tail.has_value());
  const std::vector<job_event> tail_replay = drain(bus, *tail);
  ASSERT_EQ(tail_replay.size(), 1u);
  EXPECT_EQ(tail_replay[0].seq, 3u);
  EXPECT_EQ(tail_replay[0].type, "done");

  // A cursor past the terminal replays nothing and ends immediately: the
  // reconnecting client already has everything.
  std::optional<event_bus::cursor> caught_up = bus.subscribe(5, 3);
  ASSERT_TRUE(caught_up.has_value());
  EXPECT_TRUE(drain(bus, *caught_up).empty());
  EXPECT_TRUE(caught_up->ended());
}

TEST(EventBusTest, LazyBodyRendersOnceAndOnlyWhenSomeoneReads) {
  event_bus bus;
  bus.publish(9, "queued", false, "");
  std::atomic<int> renders{0};
  bus.publish_lazy(9, "done", true, [&renders] {
    ++renders;
    return std::string(",\"result\":{\"expensive\":true}");
  });
  // Nobody has read it: the render has not happened.
  EXPECT_EQ(renders.load(), 0);

  std::optional<event_bus::cursor> first = bus.subscribe(9, 0);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(renders.load(), 0);  // subscribing alone renders nothing
  const std::vector<job_event> replay = drain(bus, *first);
  ASSERT_EQ(replay.size(), 2u);
  EXPECT_NE(replay[1].line.find("\"expensive\":true"), std::string::npos);
  EXPECT_EQ(renders.load(), 1);

  // Memoized: a second replay reuses the rendered line.
  std::optional<event_bus::cursor> second = bus.subscribe(9, 0);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(drain(bus, *second).back().line, replay[1].line);
  EXPECT_EQ(renders.load(), 1);
}

TEST(EventBusTest, LazyBodyIsNotRenderedAtPublishEvenWithReadersAttached) {
  event_bus bus;
  bus.publish(11, "queued", false, "");
  std::optional<event_bus::cursor> a = bus.subscribe(11, 0);
  std::optional<event_bus::cursor> b = bus.subscribe(11, 0);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  std::atomic<int> renders{0};
  bus.publish_lazy(11, "done", true, [&renders] {
    ++renders;
    return std::string(",\"result\":{}");
  });
  // Attached readers do not force the render at publish time.
  EXPECT_EQ(renders.load(), 0);

  const std::vector<job_event> from_a = drain(bus, *a);
  const std::vector<job_event> from_b = drain(bus, *b);
  ASSERT_EQ(from_a.size(), 2u);
  ASSERT_EQ(from_b.size(), 2u);
  EXPECT_EQ(from_a[1].line, "{\"job\":11,\"seq\":2,\"event\":\"done\","
                            "\"result\":{}}\n");
  EXPECT_EQ(from_b[1].line, from_a[1].line);
  // Two readers together render it once.
  EXPECT_EQ(renders.load(), 1);
}

TEST(EventBusTest, CloseAllPushesOneDrainingEventAndIsIdempotent) {
  event_bus bus;
  bus.publish(2, "queued", false, "");
  std::optional<event_bus::cursor> events = bus.subscribe(2, 0);
  ASSERT_TRUE(events.has_value());
  ASSERT_TRUE(bus.next(*events, 1000).has_value());  // consume "queued"

  bus.close_all();
  bus.close_all();  // the drain is one bus-wide state; no second effect

  const std::vector<job_event> rest = drain(bus, *events);
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest[0].type, "draining");
  EXPECT_FALSE(rest[0].terminal);
  EXPECT_EQ(rest[0].line,
            "{\"job\":2,\"seq\":2,\"event\":\"draining\","
            "\"code\":\"draining\"}\n");
  EXPECT_TRUE(events->ended());

  // A reader attached after the drain began gets the replay, then the
  // same draining event; draining is not history.
  std::optional<event_bus::cursor> late = bus.subscribe(2, 0);
  ASSERT_TRUE(late.has_value());
  const std::vector<job_event> replay = drain(bus, *late);
  ASSERT_EQ(replay.size(), 2u);
  EXPECT_EQ(replay[0].type, "queued");
  EXPECT_EQ(replay[1].line, rest[0].line);
  EXPECT_TRUE(late->ended());

  // The draining seq was not consumed: the next publish takes it.
  EXPECT_EQ(bus.publish(2, "running", false, ""), 2u);

  // A terminal stream still ends with its terminal event, not draining.
  bus.publish(6, "queued", false, "");
  bus.publish(6, "done", true, "");
  std::optional<event_bus::cursor> finished = bus.subscribe(6, 0);
  ASSERT_TRUE(finished.has_value());
  const std::vector<job_event> whole = drain(bus, *finished);
  ASSERT_EQ(whole.size(), 2u);
  EXPECT_EQ(whole.back().type, "done");
  EXPECT_TRUE(finished->ended());
}

TEST(EventBusTest, ForgetDropsTheStreamAndClosesSubscribers) {
  event_bus bus;
  bus.publish(4, "queued", false, "");
  std::optional<event_bus::cursor> events = bus.subscribe(4, 0);
  ASSERT_TRUE(events.has_value());

  bus.forget(4);
  EXPECT_FALSE(bus.subscribe(4, 0).has_value());
  // The attached reader still reads what was stored, then ends.
  const std::vector<job_event> rest = drain(bus, *events);
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest[0].type, "queued");
  EXPECT_TRUE(events->ended());
}

TEST(EventBusTest, ForgetMidStreamStillDeliversTheTerminalEvent) {
  event_bus bus;
  bus.publish(8, "queued", false, "");
  bus.publish(8, "running", false, "");
  std::optional<event_bus::cursor> reader = bus.subscribe(8, 0);
  ASSERT_TRUE(reader.has_value());
  ASSERT_TRUE(bus.next(*reader, 1000).has_value());  // "queued"

  // The retention trim's order: terminal first, then forget -- with the
  // reader one event behind.
  bus.publish(8, "done", true, ",\"result\":{}");
  bus.forget(8);
  EXPECT_FALSE(bus.subscribe(8, 0).has_value());

  const std::vector<job_event> rest = drain(bus, *reader);
  ASSERT_EQ(rest.size(), 2u);
  EXPECT_EQ(rest[0].seq, 2u);
  EXPECT_EQ(rest[0].type, "running");
  EXPECT_EQ(rest[1].seq, 3u);
  EXPECT_EQ(rest[1].type, "done");
  EXPECT_TRUE(reader->ended());
}

TEST(EventBusTest, SubscribeToAnUnknownJobReturnsNull) {
  event_bus bus;
  EXPECT_FALSE(bus.subscribe(12345, 0).has_value());
}

}  // namespace
}  // namespace nwdec::api
