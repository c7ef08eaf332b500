// Tests for the memoized-state persistence layer and the crash-safe
// (v3, CRC-framed) session-journal format.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "common/frame.h"
#include "common/error.h"
#include "core/persistence.h"

namespace robotune::core {
namespace {

TEST(PersistenceTest, RoundTripsBothCaches) {
  ParameterSelectionCache selection;
  selection.store("PageRank", {0, 1, 29});
  selection.store("KMeans", {0, 1});
  ConfigMemoizationBuffer memo;
  memo.store("PageRank", {{0.25, 0.5, 0.75}, 123.5});
  memo.store("PageRank", {{0.1, 0.2, 0.3}, 99.25});

  std::stringstream stream;
  const auto written = save_state(selection, memo, stream);
  EXPECT_EQ(written, 4u);

  ParameterSelectionCache selection2;
  ConfigMemoizationBuffer memo2;
  const auto read = load_state(stream, selection2, memo2);
  EXPECT_EQ(read, 4u);
  EXPECT_EQ(*selection2.lookup("PageRank"),
            (std::vector<std::size_t>{0, 1, 29}));
  EXPECT_EQ(*selection2.lookup("KMeans"), (std::vector<std::size_t>{0, 1}));
  const auto best = memo2.best("PageRank", 2);
  ASSERT_EQ(best.size(), 2u);
  EXPECT_DOUBLE_EQ(best[0].value_s, 99.25);
  EXPECT_EQ(best[0].unit, (std::vector<double>{0.1, 0.2, 0.3}));
}

TEST(PersistenceTest, ValuesSurviveWithFullPrecision) {
  ConfigMemoizationBuffer memo;
  ParameterSelectionCache selection;
  memo.store("W", {{0.12345678901234567}, 3.141592653589793});
  std::stringstream stream;
  save_state(selection, memo, stream);
  ConfigMemoizationBuffer memo2;
  ParameterSelectionCache sel2;
  load_state(stream, sel2, memo2);
  const auto best = memo2.best("W", 1);
  EXPECT_DOUBLE_EQ(best[0].value_s, 3.141592653589793);
  EXPECT_DOUBLE_EQ(best[0].unit[0], 0.12345678901234567);
}

TEST(PersistenceTest, EmptyStateRoundTrips) {
  ParameterSelectionCache selection;
  ConfigMemoizationBuffer memo;
  std::stringstream stream;
  EXPECT_EQ(save_state(selection, memo, stream), 0u);
  ParameterSelectionCache sel2;
  ConfigMemoizationBuffer memo2;
  EXPECT_EQ(load_state(stream, sel2, memo2), 0u);
  EXPECT_EQ(sel2.size(), 0u);
}

TEST(PersistenceTest, LoadMergesIntoExistingState) {
  ParameterSelectionCache selection;
  selection.store("Old", {7});
  ConfigMemoizationBuffer memo;
  std::stringstream stream;
  ParameterSelectionCache incoming;
  incoming.store("New", {3});
  ConfigMemoizationBuffer incoming_memo;
  save_state(incoming, incoming_memo, stream);
  load_state(stream, selection, memo);
  EXPECT_TRUE(selection.contains("Old"));
  EXPECT_TRUE(selection.contains("New"));
}

TEST(PersistenceTest, CommentsAndBlankLinesIgnored) {
  std::stringstream stream;
  stream << "robotune-state v1\n\n# a comment\nselection W 1 5\n";
  ParameterSelectionCache selection;
  ConfigMemoizationBuffer memo;
  EXPECT_EQ(load_state(stream, selection, memo), 1u);
  EXPECT_TRUE(selection.contains("W"));
}

TEST(PersistenceTest, BadHeaderThrows) {
  std::stringstream stream;
  stream << "not-a-state-file\n";
  ParameterSelectionCache selection;
  ConfigMemoizationBuffer memo;
  EXPECT_THROW(load_state(stream, selection, memo), InvalidArgument);
}

TEST(PersistenceTest, UnknownRecordThrows) {
  std::stringstream stream;
  stream << "robotune-state v1\nbogus W 1 2\n";
  ParameterSelectionCache selection;
  ConfigMemoizationBuffer memo;
  EXPECT_THROW(load_state(stream, selection, memo), InvalidArgument);
}

TEST(PersistenceTest, MalformedRowThrows) {
  std::stringstream stream;
  stream << "robotune-state v1\nselection W 3 1\n";  // promises 3, gives 1
  ParameterSelectionCache selection;
  ConfigMemoizationBuffer memo;
  EXPECT_THROW(load_state(stream, selection, memo), InvalidArgument);
}

TEST(PersistenceTest, FileHelpersRoundTrip) {
  const std::string path = "/tmp/robotune_persistence_test.state";
  ParameterSelectionCache selection;
  selection.store("W", {1, 2});
  ConfigMemoizationBuffer memo;
  memo.store("W", {{0.5}, 10.0});
  ASSERT_TRUE(save_state_file(selection, memo, path));
  ParameterSelectionCache sel2;
  ConfigMemoizationBuffer memo2;
  ASSERT_TRUE(load_state_file(path, sel2, memo2));
  EXPECT_TRUE(sel2.contains("W"));
  EXPECT_EQ(memo2.size("W"), 1u);
  std::remove(path.c_str());
}

TEST(PersistenceTest, MissingFileReturnsFalse) {
  ParameterSelectionCache selection;
  ConfigMemoizationBuffer memo;
  EXPECT_FALSE(load_state_file("/nonexistent/dir/state", selection, memo));
}

TEST(PersistenceTest, MemoCapacityStillEnforcedAfterLoad) {
  ConfigMemoizationBuffer memo(2);
  ParameterSelectionCache selection;
  std::stringstream stream;
  ConfigMemoizationBuffer source(8);
  for (int i = 0; i < 5; ++i) {
    source.store("W", {{0.1 * i}, 100.0 + i});
  }
  save_state(selection, source, stream);
  ParameterSelectionCache sel2;
  load_state(stream, sel2, memo);
  EXPECT_EQ(memo.size("W"), 2u);  // capacity of the receiving buffer wins
  EXPECT_DOUBLE_EQ(memo.best("W", 1)[0].value_s, 100.0);
}

// ------------------- crash-safe session journal (v3 framing) -------------

SessionCheckpoint journal_checkpoint() {
  SessionCheckpoint s;
  s.seed = 5;
  s.budget = 20;
  s.workload = "TeraSort";
  s.selected = {0, 1, 29};
  s.selection_seed_draws = 60;
  s.selection_cost_s = 1234.5;
  s.memoized.push_back({{0.12345678901234567, 0.5}, 99.25});
  for (int i = 0; i < 6; ++i) {
    EvalRecord e;
    e.index = static_cast<std::uint64_t>(i);
    e.unit = {0.125 * i, 1.0 - 0.125 * i};
    e.value_s = 100.0 + i;
    e.cost_s = 100.0 + i;
    s.evaluations.push_back(std::move(e));
  }
  // Eval 4 was racer-killed: censored value, partial cost, a matching
  // kill record, and the racing signature the session ran under.
  s.evaluations[4].status = sparksim::RunStatus::kKilled;
  s.evaluations[4].transient = true;
  s.evaluations[4].cost_s = 42.5;
  s.racing_mode = "median";
  s.kill_events.push_back({4, sparksim::KillReason::kMedianRule});
  s.degrade_events.push_back({2, "gp_refit"});
  s.degrade_events.push_back({2, "gp_noise_inflate"});
  s.degrade_events.push_back({4, "fallback_proposal"});
  return s;
}

void expect_prefix_of(const SessionCheckpoint& loaded,
                      const SessionCheckpoint& reference) {
  ASSERT_LE(loaded.evaluations.size(), reference.evaluations.size());
  for (std::size_t i = 0; i < loaded.evaluations.size(); ++i) {
    EXPECT_EQ(loaded.evaluations[i].index, reference.evaluations[i].index);
    EXPECT_EQ(loaded.evaluations[i].unit, reference.evaluations[i].unit);
    EXPECT_EQ(loaded.evaluations[i].value_s,
              reference.evaluations[i].value_s);
  }
  ASSERT_LE(loaded.degrade_events.size(), reference.degrade_events.size());
  for (std::size_t i = 0; i < loaded.degrade_events.size(); ++i) {
    EXPECT_EQ(loaded.degrade_events[i].iter,
              reference.degrade_events[i].iter);
    EXPECT_EQ(loaded.degrade_events[i].rung,
              reference.degrade_events[i].rung);
  }
  ASSERT_LE(loaded.kill_events.size(), reference.kill_events.size());
  for (std::size_t i = 0; i < loaded.kill_events.size(); ++i) {
    EXPECT_EQ(loaded.kill_events[i].index, reference.kill_events[i].index);
    EXPECT_EQ(loaded.kill_events[i].reason,
              reference.kill_events[i].reason);
  }
}

TEST(SessionJournalV3Test, RoundTripsIncludingDegradeEvents) {
  const auto original = journal_checkpoint();
  std::stringstream stream;
  save_session(original, stream);
  // Every record line is CRC-framed.
  std::string text = stream.str();
  std::istringstream lines(text);
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line, "robotune-session v3");
  while (std::getline(lines, line)) {
    ASSERT_GE(line.size(), 12u);
    EXPECT_EQ(line[8], ' ');
  }

  SessionCheckpoint loaded;
  SessionLoadReport report;
  std::istringstream in(text);
  load_session(in, loaded, LoadMode::kStrict, &report);
  EXPECT_EQ(report.version, 3);
  EXPECT_FALSE(report.recovered);
  EXPECT_EQ(report.evaluations, 6u);
  EXPECT_EQ(loaded.workload, "TeraSort");
  ASSERT_EQ(loaded.degrade_events.size(), 3u);
  EXPECT_EQ(loaded.degrade_events[0].iter, 2u);
  EXPECT_EQ(loaded.degrade_events[0].rung, "gp_refit");
  EXPECT_EQ(loaded.degrade_events[2].rung, "fallback_proposal");
  EXPECT_EQ(loaded.racing_mode, "median");
  ASSERT_EQ(loaded.kill_events.size(), 1u);
  EXPECT_EQ(loaded.kill_events[0].index, 4u);
  EXPECT_EQ(loaded.kill_events[0].reason,
            sparksim::KillReason::kMedianRule);
  EXPECT_EQ(loaded.evaluations[4].status, sparksim::RunStatus::kKilled);
  expect_prefix_of(loaded, original);
  EXPECT_EQ(loaded.evaluations.size(), original.evaluations.size());
}

TEST(SessionJournalV3Test, MalformedFieldsThrowWithSourceAndLine) {
  // One case per malformed-field shape the hardened parser must reject.
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"meta abc 20 W", "malformed seed field"},
      {"meta 5 twenty W", "malformed budget field"},
      {"meta 5 20", "missing workload field"},
      {"seeding sideways", "malformed seeding mode"},
      {"selected 3 1", "missing selected index field"},
      {"selected 2 1 2 3", "trailing data"},
      {"selection-draws 1.5", "malformed selection-draws field"},
      {"selection-cost abc", "malformed selection-cost field"},
      {"memo 1.0 2 0.5", "missing memo unit coordinate field"},
      {"eval 0 not-a-status 1 1 0 0 1 1 0.5", "unknown run status"},
      {"eval 0 ok nan-ish 1 0 0 1 1 0.5", "malformed eval value field"},
      {"eval 0 ok 1 1 0 0 1 3 0.5", "missing eval unit coordinate field"},
      {"eval x ok 1 1 0 0 1 1 0.5", "malformed eval index field"},
      {"degrade x gp_refit", "malformed degrade iteration field"},
      {"degrade 2", "missing degrade rung field"},
      {"racing", "missing racing signature field"},
      {"racing median off", "trailing data"},
      {"kill", "missing kill index field"},
      {"kill x deadline", "malformed kill index field"},
      {"kill 0", "missing kill reason field"},
      {"kill 0 bogus-reason", "unknown kill reason"},
      {"kill 0 deadline extra", "trailing data"},
      {"wat 1 2", "unknown record kind"},
  };
  for (const auto& [payload, expected] : cases) {
    std::istringstream in("robotune-session v3\n" + frame_message(payload));
    SessionCheckpoint s;
    try {
      load_session(in, s, LoadMode::kStrict, nullptr, "journal.ckpt");
      FAIL() << "expected InvalidArgument for payload: " << payload;
    } catch (const InvalidArgument& e) {
      const std::string what = e.what();
      // Errors carry the file and line of the offending record.
      EXPECT_NE(what.find("journal.ckpt:2:"), std::string::npos) << what;
      EXPECT_NE(what.find(expected), std::string::npos)
          << "payload: " << payload << "\nwhat: " << what;
    }
  }
}

TEST(SessionJournalV3Test, RecoverTruncatesAtAMalformedButFramedRecord) {
  // A record whose CRC is intact but whose payload does not parse is
  // still a corruption point: recover keeps everything before it and
  // drops it plus everything after.
  std::istringstream in("robotune-session v3\n" +
                        frame_message("meta 5 20 W") +
                        frame_message("eval 0 ok 1 1 0 0 1 1 0.5") +
                        frame_message("eval 1 ok not-a-number 1 0 0 1 1 0.5") +
                        frame_message("eval 2 ok 3 3 0 0 1 1 0.5"));
  SessionCheckpoint s;
  SessionLoadReport report;
  load_session(in, s, LoadMode::kRecover, &report);
  EXPECT_TRUE(report.recovered);
  EXPECT_EQ(report.dropped_records, 2u);  // the bad record + the one after
  ASSERT_EQ(s.evaluations.size(), 1u);
  EXPECT_EQ(s.workload, "W");
}

TEST(SessionJournalV3Test, TruncationAtEveryByteRecoversLongestPrefix) {
  const auto reference = journal_checkpoint();
  std::stringstream stream;
  save_session(reference, stream);
  const std::string full = stream.str();

  for (std::size_t cut = 0; cut <= full.size(); ++cut) {
    std::istringstream in(full.substr(0, cut));
    SessionCheckpoint loaded;
    SessionLoadReport report;
    // Recover mode must never throw, whatever the cut point.
    ASSERT_NO_THROW(load_session(in, loaded, LoadMode::kRecover, &report))
        << "cut at byte " << cut;
    expect_prefix_of(loaded, reference);
    if (cut == full.size()) {
      EXPECT_EQ(loaded.evaluations.size(), reference.evaluations.size());
      EXPECT_FALSE(report.recovered);
    }
  }
}

TEST(SessionJournalV3Test, BitFlipAtEveryByteIsCaughtByTheChecksum) {
  const auto reference = journal_checkpoint();
  std::stringstream stream;
  save_session(reference, stream);
  const std::string full = stream.str();

  for (std::size_t at = 0; at < full.size(); ++at) {
    std::string flipped = full;
    // Set the high bit: never produces '#', '\n', or a valid frame char,
    // so every flip position is a detectable corruption.
    flipped[at] = static_cast<char>(
        static_cast<unsigned char>(flipped[at]) ^ 0x80u);
    {
      std::istringstream in(flipped);
      SessionCheckpoint loaded;
      EXPECT_THROW(load_session(in, loaded, LoadMode::kStrict),
                   InvalidArgument)
          << "flip at byte " << at;
    }
    {
      std::istringstream in(flipped);
      SessionCheckpoint loaded;
      SessionLoadReport report;
      ASSERT_NO_THROW(
          load_session(in, loaded, LoadMode::kRecover, &report))
          << "flip at byte " << at;
      EXPECT_TRUE(report.recovered) << "flip at byte " << at;
      EXPECT_GE(report.dropped_records, 1u);
      expect_prefix_of(loaded, reference);
      EXPECT_LT(loaded.evaluations.size() + loaded.degrade_events.size(),
                reference.evaluations.size() +
                    reference.degrade_events.size() + 1)
          << "flip at byte " << at;
    }
  }
}

TEST(SessionJournalV3Test, EmptyStreamStrictThrowsRecoverReturnsEmpty) {
  {
    std::istringstream in("");
    SessionCheckpoint s;
    EXPECT_THROW(load_session(in, s, LoadMode::kStrict), InvalidArgument);
  }
  {
    std::istringstream in("");
    SessionCheckpoint s;
    SessionLoadReport report;
    EXPECT_EQ(load_session(in, s, LoadMode::kRecover, &report), 0u);
    EXPECT_TRUE(report.recovered);
    EXPECT_EQ(s.evaluations.size(), 0u);
  }
}

TEST(SessionJournalV2Test, LegacyJournalsStillLoadReadOnly) {
  const std::string v2 =
      "robotune-session v2\n"
      "meta 5 20 TeraSort\n"
      "seeding indexed\n"
      "selected 2 0 29\n"
      "selection-draws 60\n"
      "selection-cost 1234.5\n"
      "memo 99.25 1 0.5\n"
      "eval 0 ok 120.5 120.5 0 0 1 2 0.25 0.75\n"
      "eval 1 time-limit 480 480 1 0 1 2 0.1 0.9\n";
  for (const LoadMode mode : {LoadMode::kStrict, LoadMode::kRecover}) {
    std::istringstream in(v2);
    SessionCheckpoint s;
    SessionLoadReport report;
    EXPECT_EQ(load_session(in, s, mode, &report), 2u);
    EXPECT_EQ(report.version, 2);
    EXPECT_FALSE(report.recovered);
    EXPECT_EQ(s.workload, "TeraSort");
    EXPECT_TRUE(s.indexed_seeding);
    EXPECT_EQ(s.selected, (std::vector<std::size_t>{0, 29}));
    ASSERT_EQ(s.evaluations.size(), 2u);
    EXPECT_EQ(s.evaluations[1].index, 1u);
    EXPECT_TRUE(s.evaluations[1].stopped_early);
  }
}

TEST(SessionJournalV2Test, LegacyCorruptionThrowsEvenInRecoverMode) {
  // Unframed journals carry no checksum, so corruption cannot be
  // reliably detected — recover mode refuses to guess.
  const std::string v2 =
      "robotune-session v2\n"
      "meta 5 20 TeraSort\n"
      "eval 0 ok 120.5 oops 0 0 1 1 0.25\n";
  std::istringstream in(v2);
  SessionCheckpoint s;
  EXPECT_THROW(load_session(in, s, LoadMode::kRecover), InvalidArgument);
}

TEST(CanonicalizeJournalTest, PrunesKillEventsPastTheReplayablePrefix) {
  auto s = journal_checkpoint();
  // A crash mid-batch: evals 0..2 and 5 completed, 3-4 were in flight.
  // Kill events for the lost evaluations must be pruned with them.
  s.evaluations.erase(s.evaluations.begin() + 3,
                      s.evaluations.begin() + 5);
  s.kill_events.push_back({5, sparksim::KillReason::kDeadline});
  const std::size_t dropped = canonicalize_journal(s);
  EXPECT_EQ(dropped, 1u);  // eval 5 fell past the gap
  ASSERT_EQ(s.evaluations.size(), 3u);
  // Both kill events (evals 4 and 5) referenced dropped evaluations.
  EXPECT_TRUE(s.kill_events.empty());

  // Kill events inside the kept prefix survive canonicalization.
  auto kept = journal_checkpoint();
  std::swap(kept.evaluations[0], kept.evaluations[5]);  // completion order
  EXPECT_EQ(canonicalize_journal(kept), 0u);
  ASSERT_EQ(kept.kill_events.size(), 1u);
  EXPECT_EQ(kept.kill_events[0].index, 4u);
}

TEST(SessionJournalV3Test, FsyncPolicyRoundTripsOnDisk) {
  const std::string path = "/tmp/robotune_persistence_fsync_test.ckpt";
  std::remove(path.c_str());
  const auto original = journal_checkpoint();
  ASSERT_TRUE(save_session_file(original, path, SyncPolicy::kFsync));
  SessionCheckpoint loaded;
  SessionLoadReport report;
  ASSERT_TRUE(load_session_file(path, loaded, LoadMode::kRecover, &report));
  EXPECT_FALSE(report.recovered);
  expect_prefix_of(loaded, original);
  EXPECT_EQ(loaded.evaluations.size(), original.evaluations.size());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace robotune::core
