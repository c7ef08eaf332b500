// Tests for the memoized-state persistence layer, the crash-safe
// (v3, CRC-framed) session-journal format, and the atomic writer every
// whole-file dump goes through.
#include <gtest/gtest.h>

#include <sys/resource.h>

#include <csignal>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "common/frame.h"
#include "common/error.h"
#include "core/persistence.h"
#include "core/session.h"
#include "obs/prometheus.h"
#include "obs/summary.h"
#include "obs/trace.h"

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

TEST(PersistenceTest, OversizedCountsThrowWithoutAllocating) {
  // Counts far past the values present: each row must fail at its first
  // missing value, not size a vector from the count.
  for (const char* row : {"memo PageRank 1.0 100000000000 0.5",
                          "selection PageRank 100000000000 3"}) {
    SCOPED_TRACE(row);
    std::stringstream stream;
    stream << "robotune-state v1\n" << row << "\n";
    ParameterSelectionCache selection;
    ConfigMemoizationBuffer memo;
    try {
      load_state(stream, selection, memo);
      ADD_FAILURE() << "expected InvalidArgument";
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find("malformed"), std::string::npos)
          << e.what();
    }
  }
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

TEST(SessionJournalV3Test, OlderSelectionDrawsRecordIsReadAndDiscarded) {
  // Older releases wrote `selection-draws <n>` after `selected`; such a
  // journal still loads, and saving it again drops the record.
  const auto original = journal_checkpoint();
  std::stringstream stream;
  save_session(original, stream);
  const std::string text = stream.str();
  EXPECT_EQ(text.find("selection-draws"), std::string::npos);
  const std::string selected = frame_message("selected 3 0 1 29");
  const auto at = text.find(selected);
  ASSERT_NE(at, std::string::npos);
  std::string older = text;
  older.insert(at + selected.size(), frame_message("selection-draws 60"));

  SessionCheckpoint loaded;
  std::istringstream in(older);
  load_session(in, loaded, LoadMode::kStrict);
  expect_prefix_of(loaded, original);
  EXPECT_EQ(loaded.evaluations.size(), original.evaluations.size());
  std::stringstream again;
  save_session(loaded, again);
  EXPECT_EQ(again.str(), text);
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
      // Counts far beyond the payload: rejected at the first missing
      // token, never sized into an allocation.
      {"eval 1 ok 1 1 0 0 1 18446744073709551615 0.5",
       "missing eval unit coordinate field"},
      {"selected 4000000000 1", "missing selected index field"},
      {"memo 1.0 100000000000 0.5", "missing memo unit coordinate field"},
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

TEST(SessionJournalV3Test, RecoverNeverThrowsOnOversizedCounts) {
  // A CRC catches torn writes, not crafted or buggy records: a framed
  // record whose count promises more tokens than it holds is one more
  // corruption point, and recover keeps the records before it.
  for (const char* payload : {"eval 1 ok 1 1 0 0 1 18446744073709551615 0.5",
                              "selected 4000000000 1",
                              "memo 1.0 100000000000 0.5"}) {
    std::istringstream in("robotune-session v3\n" +
                          frame_message("meta 5 20 W") +
                          frame_message("eval 0 ok 1 1 0 0 1 1 0.5") +
                          frame_message(payload));
    SessionCheckpoint s;
    SessionLoadReport report;
    ASSERT_NO_THROW(load_session(in, s, LoadMode::kRecover, &report))
        << payload;
    EXPECT_TRUE(report.recovered) << payload;
    EXPECT_EQ(report.dropped_records, 1u) << payload;
    EXPECT_EQ(s.workload, "W") << payload;
    EXPECT_EQ(s.evaluations.size(), 1u) << payload;
    EXPECT_TRUE(s.selected.empty()) << payload;
    EXPECT_TRUE(s.memoized.empty()) << payload;
  }
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

// The unframed v1/v2 formats are no longer read.
const char* const kLegacyJournals[] = {
    "robotune-session v1\n"
    "meta 5 20 TeraSort\n"
    "eval ok 120.5 120.5 0 0 1 2 0.25 0.75\n",
    "robotune-session v2\n"
    "meta 5 20 TeraSort\n"
    "eval 0 ok 120.5 120.5 0 0 1 2 0.25 0.75\n",
};

TEST(SessionJournalV3Test, LegacyHeaderThrowsInStrictMode) {
  for (const char* journal : kLegacyJournals) {
    std::istringstream in(journal);
    SessionCheckpoint s;
    EXPECT_THROW(load_session(in, s, LoadMode::kStrict), InvalidArgument);
  }
}

TEST(SessionJournalV3Test, LegacyHeaderRecoversToVersionZero) {
  // Version 0 is what recover_fleet quarantines a session on.
  for (const char* journal : kLegacyJournals) {
    std::istringstream in(journal);
    SessionCheckpoint s;
    SessionLoadReport report;
    EXPECT_EQ(load_session(in, s, LoadMode::kRecover, &report), 0u);
    EXPECT_EQ(report.version, 0);
    EXPECT_TRUE(report.recovered);
    EXPECT_EQ(report.dropped_records, 3u);
    EXPECT_TRUE(s.evaluations.empty());
  }
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

// ----------------------------------------- atomic whole-file writers ----

// Lowers this process's own soft file-size limit for one scope, with
// SIGXFSZ ignored, so a write past the limit fails with EFBIG the way a
// full disk would, instead of killing the test.
class FileSizeLimit {
 public:
  explicit FileSizeLimit(rlim_t bytes) {
    getrlimit(RLIMIT_FSIZE, &saved_);
    previous_ = std::signal(SIGXFSZ, SIG_IGN);
    rlimit lowered = saved_;
    lowered.rlim_cur = bytes;
    setrlimit(RLIMIT_FSIZE, &lowered);
  }
  ~FileSizeLimit() {
    setrlimit(RLIMIT_FSIZE, &saved_);
    std::signal(SIGXFSZ, previous_);
  }

 private:
  rlimit saved_{};
  void (*previous_)(int) = SIG_DFL;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

// Built by appending: GCC 12 flags `"x" + std::to_string(i)` with a false
// -Werror=restrict.
std::string numbered(std::string prefix, int i) {
  prefix += std::to_string(i);
  return prefix;
}

TEST(DurableWriteTest, FailedWriteKeepsTheOldFileAndLeavesNoTemp) {
  // Every whole-file writer, with a size knob `n`: n = 1 writes the good
  // file, n = 40 writes content well past the lowered limit.
  using Writer = std::function<bool(const std::string& path, int n)>;
  const std::vector<std::pair<std::string, Writer>> writers = {
      {"save_state_file",
       [](const std::string& path, int n) {
         ParameterSelectionCache selection;
         for (int i = 0; i < n; ++i) {
           selection.store(numbered("W", i), {0, 1, 2});
         }
         return save_state_file(selection, ConfigMemoizationBuffer(), path);
       }},
      {"save_session_file",
       [](const std::string& path, int n) {
         SessionCheckpoint s = journal_checkpoint();
         s.evaluations.resize(static_cast<std::size_t>(n));
         return save_session_file(s, path);
       }},
      {"save_spec_file",
       [](const std::string& path, int n) {
         SessionSpec spec;
         spec.seed = static_cast<std::uint64_t>(n);
         return save_spec_file(spec, path);
       }},
      {"write_metrics_file",
       [](const std::string& path, int n) {
         obs::MetricsSnapshot snapshot;
         for (int i = 0; i < n; ++i) {
           snapshot.counters[numbered("evals.total.", i)] = 1;
         }
         return obs::write_metrics_file(snapshot, path);
       }},
      {"write_prometheus_file",
       [](const std::string& path, int n) {
         obs::MetricsSnapshot snapshot;
         for (int i = 0; i < n; ++i) {
           snapshot.counters[numbered("evals.total.", i)] = 1;
         }
         return obs::write_prometheus_file(snapshot, path);
       }},
      {"Tracer::write_file",
       [](const std::string& path, int n) {
         obs::Tracer tracer;
         tracer.set_enabled(true);
         for (int i = 0; i < n; ++i) obs::Span span("round", "test", tracer);
         return tracer.write_file(path, obs::TraceFormat::kChrome);
       }},
  };
  const std::string dir = ::testing::TempDir();
  for (const auto& [name, write] : writers) {
    const std::string path = dir + "robotune_durable_" + name;
    ASSERT_TRUE(write(path, 1)) << name;
    const std::string old_bytes = slurp(path);
    ASSERT_FALSE(old_bytes.empty()) << name;
    bool ok = true;
    {
      const FileSizeLimit limit(64);
      ok = write(path, 40);
    }
    EXPECT_FALSE(ok) << name;
    EXPECT_EQ(slurp(path), old_bytes) << name;
    EXPECT_FALSE(std::ifstream(path + ".tmp").good()) << name;
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());
  }
}

}  // namespace
}  // namespace robotune::core
