// Self-time arithmetic on a synthetic span tree.
#include <gtest/gtest.h>

#include <vector>

#include "spans.h"

namespace perfbench {
namespace {

Interval span(const char* name, const char* layer, std::uint32_t tid, std::int64_t start,
              std::int64_t dur) {
  return Interval{name, layer, tid, start, dur};
}

// session [0,100) on thread 0 holds selection [0,20), iteration [20,100)
// and, inside the iteration, gp_fit [20,70) and acq_opt [70,95) with an
// lbfgs child [75,85).  Thread 1 runs an eval [30,60) that overlaps the
// session in time but is not its child.
std::vector<Interval> tree() {
  return {
      span("session", "core", 0, 0, 100),  span("selection", "core", 0, 0, 20),
      span("iteration", "core", 0, 20, 80), span("gp_fit", "gp", 0, 20, 50),
      span("acq_opt", "gp", 0, 70, 25),    span("lbfgs", "opt", 0, 75, 10),
      span("eval", "sparksim", 1, 30, 30),
  };
}

TEST(SelfTime, SubtractsDirectChildrenOnly) {
  const auto self = self_times(tree());
  ASSERT_EQ(self.size(), 7u);
  EXPECT_EQ(self[0], 0);   // session: selection + iteration cover it all
  EXPECT_EQ(self[1], 20);  // selection is a leaf
  EXPECT_EQ(self[2], 5);   // iteration: 80 - 50 - 25
  EXPECT_EQ(self[3], 50);  // gp_fit
  EXPECT_EQ(self[4], 15);  // acq_opt: 25 - 10
  EXPECT_EQ(self[5], 10);  // lbfgs
  EXPECT_EQ(self[6], 30);  // another thread's span is never a child
}

TEST(SelfTime, SelfTimesSumToTheRootsWall) {
  const auto spans = tree();
  const auto self = self_times(spans);
  std::int64_t thread0 = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].tid == 0) thread0 += self[i];
  }
  EXPECT_EQ(thread0, 100);
}

TEST(SelfTime, AggregatesByNameAndLayer) {
  const auto by_name = self_seconds_by(tree(), false);
  EXPECT_DOUBLE_EQ(by_name.at("gp_fit"), 50e-6);
  EXPECT_DOUBLE_EQ(by_name.at("acq_opt"), 15e-6);
  const auto by_layer = self_seconds_by(tree(), true);
  EXPECT_DOUBLE_EQ(by_layer.at("gp"), 65e-6);
  EXPECT_DOUBLE_EQ(by_layer.at("core"), 25e-6);
  EXPECT_DOUBLE_EQ(by_layer.at("sparksim"), 30e-6);
}

TEST(SelfTime, OrderOfInputDoesNotMatter) {
  auto spans = tree();
  std::vector<Interval> reversed(spans.rbegin(), spans.rend());
  const auto a = self_times(spans);
  const auto b = self_times(reversed);
  for (std::size_t i = 0; i < spans.size(); ++i) EXPECT_EQ(a[i], b[spans.size() - 1 - i]);
}

TEST(SelfTime, SiblingsThatTouchAreNotNested) {
  // Two back-to-back journal flushes under one round, and a rounding
  // overrun of one microsecond past the parent's end.
  const std::vector<Interval> spans = {
      span("round", "core", 0, 0, 10),
      span("journal", "core", 0, 2, 4),
      span("journal", "core", 0, 6, 5),
  };
  const auto self = self_times(spans);
  EXPECT_EQ(self[0], 1);
  EXPECT_EQ(self[1], 4);
  EXPECT_EQ(self[2], 5);
}

TEST(SpanLog, RecordsOnlyWhileEnabled) {
  SpanLog log;
  const auto t0 = Clock::now();
  log.record("gp", "fit", t0, t0 + std::chrono::microseconds(5));
  EXPECT_TRUE(log.spans().empty());
  log.set_enabled(true);
  log.restart_epoch();
  const auto t1 = Clock::now();
  log.record("gp", "fit", t1, t1 + std::chrono::microseconds(7));
  ASSERT_EQ(log.spans().size(), 1u);
  EXPECT_EQ(log.spans()[0].layer, "gp");
  EXPECT_EQ(log.spans()[0].dur_us, 7);
}

}  // namespace
}  // namespace perfbench
