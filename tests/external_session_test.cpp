// Tier-1 ask/tell (external-mode) session suite (DESIGN.md §16): lease
// ledger, idempotent observe, the deterministic lease reaper, and the
// crash-restart contract.
//
// The robustness contract under test: an external executor that
// crashes, retries, duplicates, or abandons deliveries can never
// corrupt a session — a re-sent observe returns the recorded ack, a
// conflicting one is rejected, an abandoned lease returns to the
// pending pool on a journaled reaper sweep, and a kill -9 of the
// daemon restarts into exactly the same pending set (nothing lost,
// nothing double-issued).  A completed external session replays
// standalone to byte-identical journal bytes.
#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/chaos.h"
#include "core/external.h"
#include "core/persistence.h"
#include "core/session.h"
#include "service/client.h"
#include "service/session_manager.h"

namespace robotune {
namespace {

namespace fs = std::filesystem;

// Small-but-real external session: full selection + BO stack with the
// evaluations outsourced, dialed down so a fleet fits tier-1 time.
// Suggestions are published `batch` at a time (the init design is
// chunked by batch_size too), so batch=2 → exchanges of 2, and tests
// that need a whole round of 4 pending at once pass batch=4.
core::SessionSpec external_spec(std::uint64_t seed, int budget = 6,
                                int batch = 2) {
  core::SessionSpec spec;
  spec.workload = "PR";
  spec.dataset = 1;
  spec.tuner = "robotune";
  spec.mode = "external";
  spec.budget = budget;
  spec.seed = seed;
  spec.init = 4;
  spec.batch = batch;
  spec.selection_samples = 20;
  return spec;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    root_ = fs::temp_directory_path() /
            ("robotune-external-" + tag + "-" +
             std::to_string(::getpid()));
    fs::remove_all(root_);
    fs::create_directories(root_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(root_, ec);
  }
  std::string path() const { return root_.string(); }
  std::string file(const std::string& name) const {
    return (root_ / name).string();
  }

 private:
  fs::path root_;
};

/// The reference external executor: a pure function of (unit, index),
/// so two independent drives of the same session report identical
/// tuples — the precondition for the byte-identity assertions.
core::ExternalObservation fake_measurement(const std::vector<double>& unit,
                                           std::uint64_t index) {
  core::ExternalObservation obs;
  double v = 0.0;
  for (std::size_t i = 0; i < unit.size(); ++i) {
    v += unit[i] * static_cast<double>(i + 1);
  }
  obs.value_s =
      60.0 + 10.0 * v / static_cast<double>(unit.size() ? unit.size() : 1) +
      static_cast<double>(index % 3);
  obs.cost_s = obs.value_s + 2.5;
  obs.status = sparksim::RunStatus::kOk;
  return obs;
}

bool terminal(service::SessionState state) {
  return state == service::SessionState::kDone ||
         state == service::SessionState::kCancelled ||
         state == service::SessionState::kFailed;
}

/// Drives an external session to a terminal state through the ask/tell
/// service surface, evaluating every leased suggestion with
/// fake_measurement.  Retries deliveries the chaos harness drops — the
/// ledger's idempotency is what makes the blind retry safe.
void drive_to_completion(service::SessionManager& manager,
                         std::uint64_t id) {
  for (int spin = 0; spin < 60000; ++spin) {
    const auto status = manager.status(id);
    ASSERT_TRUE(status.has_value());
    if (terminal(status->state)) return;
    auto ask = manager.ask(id, 16);
    ASSERT_TRUE(ask.ok) << ask.error;
    if (ask.grants.empty()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      continue;
    }
    for (const auto& grant : ask.grants) {
      const auto obs = fake_measurement(grant.unit, grant.index);
      bool delivered = false;
      for (int attempt = 0; attempt < 32 && !delivered; ++attempt) {
        const auto told = manager.tell(id, grant.index, obs);
        if (told.ok) {
          delivered = true;
        } else {
          // Only the chaos drop is retryable; anything else is a bug.
          ASSERT_NE(told.error.find("chaos"), std::string::npos)
              << told.error;
        }
      }
      ASSERT_TRUE(delivered) << "delivery kept getting dropped";
    }
  }
  FAIL() << "session " << id << " never reached a terminal state";
}

/// Resolves grants a test leased by hand (leases never expire without
/// reaper ticks, so whoever leases must tell).
void tell_all(service::SessionManager& manager, std::uint64_t id,
              const std::vector<core::LeaseGrant>& grants) {
  for (const auto& grant : grants) {
    const auto told = manager.tell(
        id, grant.index, fake_measurement(grant.unit, grant.index));
    ASSERT_TRUE(told.ok) << told.error;
  }
}

void wait_for_state(service::SessionManager& manager, std::uint64_t id,
                    service::SessionState state) {
  for (int i = 0; i < 20000; ++i) {
    const auto status = manager.status(id);
    ASSERT_TRUE(status.has_value());
    if (status->state == state) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  FAIL() << "session " << id << " never reached state "
         << service::to_string(state);
}

/// Polls ask() until it has granted `count` suggestions (selection runs
/// daemon-side before the first round is published).
std::vector<core::LeaseGrant> wait_for_grants(
    service::SessionManager& manager, std::uint64_t id, std::size_t count,
    std::size_t per_ask = 16) {
  std::vector<core::LeaseGrant> grants;
  for (int spin = 0; spin < 60000 && grants.size() < count; ++spin) {
    auto ask = manager.ask(id, per_ask);
    EXPECT_TRUE(ask.ok) << ask.error;
    for (auto& g : ask.grants) grants.push_back(std::move(g));
    if (grants.size() < count) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  EXPECT_EQ(grants.size(), count);
  return grants;
}

// ---- end-to-end completion + standalone replay ---------------------------

TEST(ExternalSessionTest, CompletesViaAskTellAndReplaysStandalone) {
  TempDir dir("complete");
  service::ServiceOptions options;
  options.root = dir.path();
  options.max_live = 1;
  service::SessionManager manager(options);

  const auto spec = external_spec(21);
  const auto started = manager.start(spec);
  ASSERT_TRUE(started.admitted) << started.error;
  drive_to_completion(manager, started.id);
  wait_for_state(manager, started.id, service::SessionState::kDone);

  const auto status = manager.status(started.id);
  ASSERT_TRUE(status.has_value());
  EXPECT_TRUE(status->external);
  EXPECT_EQ(status->evaluations, 6u);
  EXPECT_EQ(status->pending, 0u);
  EXPECT_EQ(status->leased, 0u);

  // The journal is a complete external-session record: the mode flag,
  // one ack per observation (never pruned), and no unresolved suggests.
  const std::string journal = manager.journal_path(started.id);
  const std::string bytes = slurp(journal);
  core::SessionCheckpoint state;
  ASSERT_TRUE(core::load_session_file(journal, state));
  EXPECT_TRUE(state.external);
  EXPECT_EQ(state.evaluations.size(), 6u);
  EXPECT_EQ(state.observe_acks.size(), 6u);
  EXPECT_TRUE(state.suggests.empty());

  // Standalone replay (no daemon, no bridge): the CLI code path resumes
  // the copied journal, replays every funneled evaluation, and leaves
  // the bytes untouched.
  const std::string copy = dir.file("replay.journal");
  fs::copy_file(journal, copy);
  core::SessionSpec replay = spec;
  replay.checkpoint_path = copy;
  replay.resume = true;
  std::string error;
  auto session = core::SessionFactory::create(replay, &error);
  ASSERT_NE(session, nullptr) << error;
  const auto outcome = session->run();
  ASSERT_TRUE(outcome.ok()) << outcome.error;
  EXPECT_TRUE(outcome.resumed);
  EXPECT_EQ(outcome.replayed, 6u);
  EXPECT_EQ(outcome.result.history.size(), 6u);
  EXPECT_EQ(slurp(copy), bytes);
}

// ---- idempotent observe --------------------------------------------------

TEST(ExternalSessionTest, DuplicateObserveAcksIdempotentlyConflictRejects) {
  TempDir dir("idem");
  service::ServiceOptions options;
  options.root = dir.path();
  options.max_live = 1;
  service::SessionManager manager(options);

  const auto started = manager.start(external_spec(22, 6, 4));
  ASSERT_TRUE(started.admitted) << started.error;
  const auto grants = wait_for_grants(manager, started.id, 4);

  const auto obs = fake_measurement(grants[0].unit, grants[0].index);
  const auto first = manager.tell(started.id, grants[0].index, obs);
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_EQ(first.verdict, core::TellVerdict::kAccepted);

  // Exact re-delivery: acked from the ledger, no effect.
  const auto again = manager.tell(started.id, grants[0].index, obs);
  ASSERT_TRUE(again.ok) << again.error;
  EXPECT_EQ(again.verdict, core::TellVerdict::kDuplicate);
  EXPECT_EQ(again.recorded.value_s, obs.value_s);
  EXPECT_EQ(again.recorded.cost_s, obs.cost_s);
  EXPECT_EQ(again.recorded.status, obs.status);

  // Same index, different tuple: rejected, the ledger's tuple returned.
  core::ExternalObservation conflicting = obs;
  conflicting.value_s += 1.0;
  const auto conflict =
      manager.tell(started.id, grants[0].index, conflicting);
  EXPECT_FALSE(conflict.ok);
  EXPECT_EQ(conflict.verdict, core::TellVerdict::kConflict);
  EXPECT_EQ(conflict.recorded.value_s, obs.value_s);
  EXPECT_NE(conflict.error.find("conflicts"), std::string::npos);

  // An index that was never suggested.
  const auto unknown = manager.tell(started.id, 999, obs);
  EXPECT_FALSE(unknown.ok);
  EXPECT_EQ(unknown.verdict, core::TellVerdict::kUnknown);

  // This test holds the leases for grants[1..3]; resolve them before
  // handing the session to the driver.
  tell_all(manager, started.id, {grants.begin() + 1, grants.end()});
  drive_to_completion(manager, started.id);
  wait_for_state(manager, started.id, service::SessionState::kDone);
}

// ---- the reaper ----------------------------------------------------------

TEST(ExternalSessionTest, ReaperReclaimsAtExactDeadlineTick) {
  TempDir dir("reaper");
  service::ServiceOptions options;
  options.root = dir.path();
  options.max_live = 1;
  options.lease_timeout_ticks = 5;
  service::SessionManager manager(options);

  const auto started = manager.start(external_spec(23));
  ASSERT_TRUE(started.admitted) << started.error;
  // Lease exactly one suggestion at virtual time 0 → deadline tick 5.
  const auto grants = wait_for_grants(manager, started.id, 1, 1);
  EXPECT_EQ(grants[0].deadline, 5u);

  // Ticks 1..4: the lease is live, nothing to reclaim.
  for (int t = 1; t <= 4; ++t) {
    EXPECT_EQ(manager.tick(), 0u) << "tick " << t;
  }
  {
    const auto status = manager.status(started.id);
    ASSERT_TRUE(status.has_value());
    EXPECT_EQ(status->leased, 1u);
    EXPECT_EQ(status->reclaimed, 0u);
  }
  // Tick 5 == the deadline: the reaper reclaims on exactly this sweep.
  EXPECT_EQ(manager.tick(), 1u);
  {
    const auto status = manager.status(started.id);
    ASSERT_TRUE(status.has_value());
    EXPECT_EQ(status->leased, 0u);
    EXPECT_EQ(status->reclaimed, 1u);
  }

  // The suggestion is back in the pool under a fresh, larger lease id —
  // ids are never reused, so an ack from the dead lease still resolves
  // by index while the audit trail stays unambiguous.
  auto again = manager.ask(started.id, 1);
  ASSERT_TRUE(again.ok) << again.error;
  ASSERT_EQ(again.grants.size(), 1u);
  EXPECT_EQ(again.grants[0].index, grants[0].index);
  EXPECT_EQ(again.grants[0].unit, grants[0].unit);
  EXPECT_GT(again.grants[0].lease, grants[0].lease);

  // The expiry was journaled before the reclaim became visible.
  core::SessionCheckpoint state;
  core::load_session_file(manager.journal_path(started.id), state,
                          core::LoadMode::kRecover);
  ASSERT_EQ(state.lease_expiries.size(), 1u);
  EXPECT_EQ(state.lease_expiries[0].index, grants[0].index);
  EXPECT_EQ(state.lease_expiries[0].lease, grants[0].lease);

  // Resolve the re-leased suggestion this test holds, then let the
  // driver finish the rest of the session.
  tell_all(manager, started.id, again.grants);
  drive_to_completion(manager, started.id);
  wait_for_state(manager, started.id, service::SessionState::kDone);
  const auto fleet = manager.service_status();
  EXPECT_EQ(fleet.reclaimed, 1u);
}

// ---- kill -9 restart -----------------------------------------------------

TEST(ExternalSessionTest, RestartRestoresPendingSetExactlyOnce) {
  TempDir dir("restart");
  TempDir image("restart-image");
  const auto spec = external_spec(24, 6, 4);
  std::vector<core::LeaseGrant> round;
  std::uint64_t id = 0;
  std::string completed_bytes;
  {
    service::ServiceOptions options;
    options.root = dir.path();
    options.max_live = 1;
    service::SessionManager manager(options);
    const auto started = manager.start(spec);
    ASSERT_TRUE(started.admitted) << started.error;
    id = started.id;
    round = wait_for_grants(manager, id, 4);

    // Resolve one suggestion, then freeze the on-disk image mid-round —
    // the exact bytes a kill -9 at this instant would leave behind
    // (suggests and the ack are journaled before they are observable).
    const auto told = manager.tell(
        id, round[0].index, fake_measurement(round[0].unit, round[0].index));
    ASSERT_TRUE(told.ok) << told.error;
    fs::copy(dir.path(), image.path(),
             fs::copy_options::recursive |
                 fs::copy_options::overwrite_existing);

    // Drive the uninterrupted original to completion for the reference
    // journal bytes (resolving the three leases this test still holds
    // first — the driver only tells what it leases itself).
    tell_all(manager, id, {round.begin() + 1, round.end()});
    drive_to_completion(manager, id);
    wait_for_state(manager, id, service::SessionState::kDone);
    completed_bytes = slurp(manager.journal_path(id));
  }

  // Restart from the frozen image: recovery must re-enter the same
  // round with exactly the three unresolved suggestions — the resolved
  // one is never re-issued, the pending ones never lost.
  service::ServiceOptions options;
  options.root = image.path();
  options.max_live = 1;
  service::SessionManager manager(options);
  const auto recovery = manager.recover_fleet();
  EXPECT_EQ(recovery.readmitted, 1u);
  EXPECT_EQ(recovery.quarantined, 0u);

  std::map<std::uint64_t, std::vector<double>> expected;
  for (std::size_t i = 1; i < round.size(); ++i) {
    expected[round[i].index] = round[i].unit;
  }
  const auto regrants = wait_for_grants(manager, id, expected.size());
  std::map<std::uint64_t, std::vector<double>> restored;
  for (const auto& grant : regrants) {
    EXPECT_NE(grant.index, round[0].index)
        << "resolved suggestion was re-issued after restart";
    // A restart voids runtime leases but keeps the id high-water mark,
    // so re-issued leases stay monotonic.
    EXPECT_GT(grant.lease, round.back().lease);
    restored[grant.index] = grant.unit;
  }
  EXPECT_EQ(restored, expected);

  // A duplicate of the pre-crash delivery still acks idempotently: the
  // ack ledger survived the restart.
  const auto dup = manager.tell(
      id, round[0].index, fake_measurement(round[0].unit, round[0].index));
  ASSERT_TRUE(dup.ok) << dup.error;
  EXPECT_EQ(dup.verdict, core::TellVerdict::kDuplicate);

  // Same executor, same tuples → the restarted session completes with
  // byte-identical journal bytes (suggests are pruned as rounds
  // resolve; acks and eval records are deterministic).  Tell the
  // regrants in index order so the ack sequence matches the
  // uninterrupted run's, then drive the final round.
  for (const auto& [idx, unit] : restored) {
    const auto told = manager.tell(id, idx, fake_measurement(unit, idx));
    ASSERT_TRUE(told.ok) << told.error;
  }
  drive_to_completion(manager, id);
  wait_for_state(manager, id, service::SessionState::kDone);
  EXPECT_EQ(slurp(manager.journal_path(id)), completed_bytes);
}

// ---- chaos: dropped and duplicated deliveries ----------------------------

TEST(ExternalSessionTest, ChaosDroppedAndDuplicatedObservesStillComplete) {
  TempDir dir("chaos");
  service::ServiceOptions options;
  options.root = dir.path();
  options.max_live = 1;
  service::SessionManager manager(options);

  chaos::ChaosProfile profile;
  ASSERT_TRUE(chaos::ChaosProfile::parse("observe=0.5", profile));
  chaos::injector().configure(profile, 11);

  const auto started = manager.start(external_spec(25));
  ASSERT_TRUE(started.admitted) << started.error;
  // drive_to_completion retries chaos-dropped deliveries blindly; the
  // harness also re-delivers accepted observations internally, which
  // the ledger must absorb as duplicates.
  drive_to_completion(manager, started.id);
  wait_for_state(manager, started.id, service::SessionState::kDone);
  chaos::injector().disarm();

  const auto status = manager.status(started.id);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->evaluations, 6u);
  // Exactly one ack per evaluation made it into the ledger no matter
  // how many deliveries the chaos harness dropped or duplicated.
  core::SessionCheckpoint state;
  ASSERT_TRUE(
      core::load_session_file(manager.journal_path(started.id), state));
  EXPECT_EQ(state.observe_acks.size(), 6u);
}

// ---- eviction interplay --------------------------------------------------

TEST(ExternalSessionTest, EvictedTerminalSessionStillAnswersLateRetries) {
  TempDir dir("evict");
  service::ServiceOptions options;
  options.root = dir.path();
  options.max_live = 1;
  options.terminal_ttl_ticks = 2;
  service::SessionManager manager(options);

  const auto started = manager.start(external_spec(26));
  ASSERT_TRUE(started.admitted) << started.error;
  std::vector<core::LeaseGrant> all;
  // Capture every grant while driving so the late-retry below can
  // replay a real delivery.
  for (int spin = 0; spin < 60000; ++spin) {
    const auto status = manager.status(started.id);
    ASSERT_TRUE(status.has_value());
    if (terminal(status->state)) break;
    auto ask = manager.ask(started.id, 16);
    ASSERT_TRUE(ask.ok) << ask.error;
    if (ask.grants.empty()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      continue;
    }
    for (const auto& grant : ask.grants) {
      const auto told = manager.tell(
          started.id, grant.index,
          fake_measurement(grant.unit, grant.index));
      ASSERT_TRUE(told.ok) << told.error;
      all.push_back(grant);
    }
  }
  wait_for_state(manager, started.id, service::SessionState::kDone);
  ASSERT_EQ(all.size(), 6u);

  // TTL eviction drops the terminal session from memory; disk files
  // stay.
  manager.tick();
  manager.tick();
  EXPECT_EQ(manager.resident_sessions(), 0u);
  EXPECT_EQ(manager.service_status().evicted, 1u);
  EXPECT_TRUE(fs::exists(manager.journal_path(started.id)));

  // A slow executor retrying a delivery long after the session ended
  // (and was evicted) still gets a truthful idempotent answer from the
  // journaled ack ledger.
  const auto dup = manager.tell(
      started.id, all[2].index,
      fake_measurement(all[2].unit, all[2].index));
  ASSERT_TRUE(dup.ok) << dup.error;
  EXPECT_EQ(dup.verdict, core::TellVerdict::kDuplicate);
  auto conflicting = fake_measurement(all[2].unit, all[2].index);
  conflicting.cost_s += 3.0;
  const auto conflict =
      manager.tell(started.id, all[2].index, conflicting);
  EXPECT_FALSE(conflict.ok);
  EXPECT_EQ(conflict.verdict, core::TellVerdict::kConflict);

  // The tell re-hydrated the session; its status came back from disk.
  EXPECT_EQ(manager.resident_sessions(), 1u);
  const auto status = manager.status(started.id);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->state, service::SessionState::kDone);
  EXPECT_EQ(status->evaluations, 6u);
}

// ---- the verb surface ----------------------------------------------------

TEST(ExternalSessionTest, SuggestAndObserveVerbsSpeakAskTell) {
  TempDir dir("verbs");
  service::ServiceOptions options;
  options.root = dir.path();
  options.max_live = 1;
  service::SessionManager manager(options);
  service::LocalClient client(manager);

  service::Request start;
  start.verb = "start";
  start.spec_body = core::encode_spec_body(external_spec(27));
  auto response = client.call(start);
  ASSERT_TRUE(response.ok) << response.error;
  const std::uint64_t id = std::stoull(response.fields.at("id"));

  // suggest on an external session leases: records are
  // "<index> <lease> <deadline> <unit...>".
  service::Request suggest;
  suggest.verb = "suggest";
  suggest.session = id;
  suggest.limit = 2;
  for (int spin = 0; spin < 60000; ++spin) {
    response = client.call(suggest);
    ASSERT_TRUE(response.ok) << response.error;
    ASSERT_EQ(response.fields.at("mode"), "external");
    if (!response.records.empty()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(response.records.size(), 2u);
  std::istringstream record(response.records[0]);
  std::uint64_t index = 0;
  std::uint64_t lease = 0;
  std::uint64_t deadline = 0;
  ASSERT_TRUE(static_cast<bool>(record >> index >> lease >> deadline));
  std::vector<double> unit;
  double coord = 0.0;
  while (record >> coord) unit.push_back(coord);
  ASSERT_FALSE(unit.empty());

  // observe with an observation payload is a tell.
  const auto obs = fake_measurement(unit, index);
  service::Request tell;
  tell.verb = "observe";
  tell.session = id;
  tell.has_observation = true;
  tell.eval = index;
  tell.value_s = obs.value_s;
  tell.cost_s = obs.cost_s;
  tell.status = "ok";
  response = client.call(tell);
  ASSERT_TRUE(response.ok) << response.error;
  EXPECT_EQ(response.fields.at("verdict"), "accepted");

  // The duplicate comes back ok with the recorded tuple attached; the
  // conflict is an error that still carries the ledger's tuple.
  response = client.call(tell);
  ASSERT_TRUE(response.ok) << response.error;
  EXPECT_EQ(response.fields.at("verdict"), "duplicate");
  EXPECT_EQ(std::stod(response.fields.at("value")), obs.value_s);
  tell.value_s += 1.0;
  response = client.call(tell);
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.fields.at("verdict"), "conflict");
  EXPECT_EQ(std::stod(response.fields.at("value")), obs.value_s);

  // A malformed status label is rejected before it reaches the ledger.
  tell.value_s = obs.value_s;
  tell.status = "mangled";
  response = client.call(tell);
  EXPECT_FALSE(response.ok);
  EXPECT_NE(response.error.find("bad status"), std::string::npos);

  // Cancel stops the session waiting for tells; it lands terminal with
  // a resumable journal.
  service::Request cancel;
  cancel.verb = "cancel";
  cancel.session = id;
  response = client.call(cancel);
  ASSERT_TRUE(response.ok) << response.error;
  manager.drain();
  const auto status = manager.status(id);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->state, service::SessionState::kCancelled);
}

// ---- idle cancellation ---------------------------------------------------

TEST(ExternalSessionTest, IdleSessionStopsWithoutTellsAndResumesTheRound) {
  // A session waiting for tells holds no step: a cancel with no client
  // traffic, and a cancelling shutdown, must still turn it terminal.
  // The round's suggests and acks stay journaled, so a resume re-enters
  // the same round.
  const auto expect_round_journaled = [](const std::string& journal,
                                         const core::LeaseGrant& acked,
                                         const core::LeaseGrant& pending) {
    core::SessionCheckpoint state;
    ASSERT_TRUE(core::load_session_file(journal, state));
    EXPECT_TRUE(state.evaluations.empty());
    ASSERT_EQ(state.observe_acks.size(), 1u);
    EXPECT_EQ(state.observe_acks[0].index, acked.index);
    bool suggested = false;
    for (const auto& s : state.suggests) {
      suggested |= s.index == pending.index && s.unit == pending.unit;
    }
    EXPECT_TRUE(suggested) << "pending suggest " << pending.index;
  };

  // An explicit cancel.
  {
    TempDir dir("idle-cancel");
    service::ServiceOptions options;
    options.root = dir.path();
    options.max_live = 1;
    service::SessionManager manager(options);
    const auto started = manager.start(external_spec(29, 6, 2));
    ASSERT_TRUE(started.admitted) << started.error;
    const auto round = wait_for_grants(manager, started.id, 2);
    tell_all(manager, started.id, {round[0]});
    std::string why;
    ASSERT_TRUE(manager.cancel(started.id, &why)) << why;
    wait_for_state(manager, started.id, service::SessionState::kCancelled);
    expect_round_journaled(manager.journal_path(started.id), round[0],
                           round[1]);
  }

  // A cancelling shutdown, then a restart into the same round.
  TempDir dir("idle-shutdown");
  service::ServiceOptions options;
  options.root = dir.path();
  options.max_live = 1;
  std::uint64_t id = 0;
  std::vector<core::LeaseGrant> round;
  {
    service::SessionManager manager(options);
    const auto started = manager.start(external_spec(30, 6, 2));
    ASSERT_TRUE(started.admitted) << started.error;
    id = started.id;
    round = wait_for_grants(manager, id, 2);
    tell_all(manager, id, {round[0]});
    manager.shutdown(/*cancel_live=*/true);
    const auto status = manager.status(id);
    ASSERT_TRUE(status.has_value());
    EXPECT_EQ(status->state, service::SessionState::kCancelled);
    expect_round_journaled(manager.journal_path(id), round[0], round[1]);
  }
  service::SessionManager manager(options);
  EXPECT_EQ(manager.recover_fleet().readmitted, 1u);
  const auto regrants = wait_for_grants(manager, id, 1);
  ASSERT_EQ(regrants.size(), 1u);
  EXPECT_EQ(regrants[0].index, round[1].index);
  EXPECT_EQ(regrants[0].unit, round[1].unit);
  tell_all(manager, id, regrants);
  drive_to_completion(manager, id);
  wait_for_state(manager, id, service::SessionState::kDone);
}

// ---- spec validation -----------------------------------------------------

TEST(ExternalSessionTest, SpecRejectsIncompatibleKnobs) {
  auto spec = external_spec(28);
  spec.tuner = "rs";
  EXPECT_NE(spec.validate().find("external"), std::string::npos);
  spec = external_spec(28);
  spec.parallel = 2;
  EXPECT_NE(spec.validate().find("external"), std::string::npos);
  spec = external_spec(28);
  spec.racing = "median";
  spec.parallel = 1;
  EXPECT_NE(spec.validate().find("external"), std::string::npos);
  spec = external_spec(28);
  spec.mode = "sideways";
  EXPECT_NE(spec.validate().find("bad session mode"), std::string::npos);
  EXPECT_TRUE(external_spec(28).validate().empty());
}

}  // namespace
}  // namespace robotune
