// Tier-1 service-layer suite (DESIGN.md §13): wire protocol framing,
// spec codec, admission control, fair scheduling, cancellation, and
// fleet-wide crash recovery.
//
// The determinism contract under test is the strongest one the daemon
// makes: a hosted session's journal is byte-identical to a standalone
// `robotune_cli`-style run of the same spec, regardless of how many
// sessions run beside it, how many pool workers the manager has, or how
// many turnstile slots rotate the CPU — and after a crash, every
// recovered session finishes with exactly the bytes an uninterrupted
// run would have produced.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/persistence.h"
#include "core/session.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/server.h"
#include "service/session_manager.h"

namespace robotune {
namespace {

namespace fs = std::filesystem;

// Small-but-real sessions: full selection + BO stack, dialed down so a
// fleet of them fits tier-1 time on one core.
core::SessionSpec small_spec(std::uint64_t seed, int budget = 8) {
  core::SessionSpec spec;
  spec.workload = "PR";
  spec.dataset = 1;
  spec.tuner = "robotune";
  spec.budget = budget;
  spec.seed = seed;
  spec.parallel = 1;
  spec.init = 4;
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
            ("robotune-service-" + tag + "-" +
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

/// Runs `spec` standalone — the CLI's code path — journaling to `path`.
void run_standalone(core::SessionSpec spec, const std::string& path) {
  spec.checkpoint_path = path;
  std::string error;
  auto session = core::SessionFactory::create(spec, &error);
  ASSERT_NE(session, nullptr) << error;
  const auto outcome = session->run();
  ASSERT_TRUE(outcome.ok()) << outcome.error;
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

void wait_for_evals(service::SessionManager& manager, std::uint64_t id,
                    std::size_t evals) {
  for (int i = 0; i < 20000; ++i) {
    const auto status = manager.status(id);
    ASSERT_TRUE(status.has_value());
    if (status->evaluations >= evals) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  FAIL() << "session " << id << " never journaled " << evals
         << " evaluations";
}

// ------------------------------------------------------------ protocol ----

TEST(ServiceProtocolTest, EscapeRoundTripsArbitraryStrings) {
  const std::vector<std::string> cases = {
      "", "plain", "two words", "k=v", "100%", "a\nb\tc\rd",
      "%20 already escaped", std::string("\0embedded", 9)};
  for (const auto& s : cases) {
    std::string back;
    ASSERT_TRUE(service::unescape(service::escape(s), back)) << s;
    EXPECT_EQ(back, s);
  }
  // Escaped output never contains a token or line separator.
  const std::string escaped = service::escape("a b=c\nd");
  EXPECT_EQ(escaped.find(' '), std::string::npos);
  EXPECT_EQ(escaped.find('='), std::string::npos);
  EXPECT_EQ(escaped.find('\n'), std::string::npos);

  std::string out;
  EXPECT_FALSE(service::unescape("trailing%2", out));
  EXPECT_FALSE(service::unescape("bad%zz", out));
}

TEST(ServiceProtocolTest, FrameReaderHandlesSplitAndBatchedFrames) {
  const std::string frames = frame_message("first message") +
                             frame_message("second") +
                             frame_message("third one");
  // Feed in awkward 3-byte chunks: frames arrive regardless of read
  // boundaries.
  service::FrameReader reader;
  std::vector<std::string> payloads;
  for (std::size_t off = 0; off < frames.size(); off += 3) {
    reader.feed(std::string_view(frames).substr(off, 3));
    std::string payload, error;
    while (reader.next(payload, error) ==
           service::FrameReader::Result::kReady) {
      payloads.push_back(payload);
    }
  }
  ASSERT_EQ(payloads.size(), 3u);
  EXPECT_EQ(payloads[0], "first message");
  EXPECT_EQ(payloads[1], "second");
  EXPECT_EQ(payloads[2], "third one");
}

TEST(ServiceProtocolTest, FrameReaderPoisonsOnCorruption) {
  service::FrameReader reader;
  std::string good = frame_message("fine");
  good[0] = good[0] == '0' ? '1' : '0';  // break the CRC
  reader.feed(good);
  std::string payload, error;
  EXPECT_EQ(reader.next(payload, error),
            service::FrameReader::Result::kCorrupt);
  EXPECT_FALSE(error.empty());
  // Poisoned: even a valid follow-up frame is refused — the stream can
  // no longer be trusted.
  reader.feed(frame_message("valid"));
  EXPECT_EQ(reader.next(payload, error),
            service::FrameReader::Result::kCorrupt);
}

TEST(ServiceProtocolTest, RequestAndResponseRoundTrip) {
  service::Request request;
  request.verb = "start";
  request.rid = 42;
  request.session = 7;
  request.from = 3;
  request.limit = 10;
  request.derive_seed = true;
  request.spec_body = core::encode_spec_body(small_spec(99));

  service::Request back;
  std::string error;
  ASSERT_TRUE(service::decode_request(service::encode_request(request), back,
                                      error))
      << error;
  EXPECT_EQ(back.verb, request.verb);
  EXPECT_EQ(back.rid, request.rid);
  EXPECT_EQ(back.session, request.session);
  EXPECT_EQ(back.from, request.from);
  EXPECT_EQ(back.limit, request.limit);
  EXPECT_EQ(back.derive_seed, request.derive_seed);
  EXPECT_EQ(back.spec_body, request.spec_body);

  service::Response response;
  response.ok = false;
  response.rid = 42;
  response.error = "queue full (8 pending); retry later";
  service::Response rback;
  ASSERT_TRUE(service::decode_response(service::encode_response(response),
                                       rback, error))
      << error;
  EXPECT_FALSE(rback.ok);
  EXPECT_EQ(rback.rid, 42u);
  EXPECT_EQ(rback.error, response.error);

  response = service::Response{};
  response.ok = true;
  response.rid = 43;
  response.fields["best"] = "41.52";
  response.fields["unit"] = "0.5 0.25 1";
  response.records = {"0 0 178.5", "1 3 480"};
  ASSERT_TRUE(service::decode_response(service::encode_response(response),
                                       rback, error))
      << error;
  EXPECT_TRUE(rback.ok);
  EXPECT_EQ(rback.fields, response.fields);
  EXPECT_EQ(rback.records, response.records);
}

// ---------------------------------------------------------- spec codec ----

TEST(ServiceSpecTest, SpecBodyRoundTripsAllTuningFields) {
  core::SessionSpec spec = small_spec(123, 17);
  spec.workload = "TS";
  spec.dataset = 3;
  spec.metric = "coreseconds";
  spec.fault_profile = "loss=0.1,fetch=0.05,straggler=0.02";
  spec.retries = 3;
  spec.preempt_rate = 0.25;
  spec.parallel = 4;
  spec.batch = 2;
  spec.racing = "median";
  spec.eval_deadline = 120.5;
  spec.surrogate = "rff";
  spec.rff_features = 128;
  spec.refit = "doubling";

  core::SessionSpec back;
  std::string error;
  ASSERT_TRUE(core::decode_spec_body(core::encode_spec_body(spec), back,
                                     &error))
      << error;
  EXPECT_EQ(core::encode_spec_body(back), core::encode_spec_body(spec));
  EXPECT_EQ(back.seed, spec.seed);
  EXPECT_EQ(back.budget, spec.budget);
  EXPECT_EQ(back.racing, spec.racing);
  EXPECT_DOUBLE_EQ(back.eval_deadline, spec.eval_deadline);
  EXPECT_EQ(back.surrogate, spec.surrogate);
  EXPECT_EQ(back.rff_features, spec.rff_features);
  EXPECT_EQ(back.refit, spec.refit);

  // The spec is the determinism contract: unknown keys are corruption,
  // not extensibility.
  core::SessionSpec scratch;
  EXPECT_FALSE(
      core::decode_spec_body("workload=PR surprise=1", scratch, &error));
}

TEST(ServiceSpecTest, SpecBodyRejectsMalformedNumericValues) {
  // Same contract as unknown keys: a malformed numeric value must fail
  // the decode, not silently become 0 (seed=abc replaying a different
  // session than the one that was started).
  const std::string good = core::encode_spec_body(small_spec(77));
  core::SessionSpec scratch;
  std::string error;
  ASSERT_TRUE(core::decode_spec_body(good, scratch, &error)) << error;

  const auto swap_field = [&](const std::string& key,
                              const std::string& value) {
    std::istringstream tokens(good);
    std::ostringstream out;
    std::string token;
    bool first = true;
    while (tokens >> token) {
      if (!first) out << ' ';
      first = false;
      if (token.rfind(key + "=", 0) == 0) {
        out << key << '=' << value;
      } else {
        out << token;
      }
    }
    return out.str();
  };

  for (const auto& [key, value] :
       std::vector<std::pair<std::string, std::string>>{
           {"seed", "abc"},
           {"seed", "12x"},
           {"seed", "-1"},
           {"seed", ""},
           {"budget", "eight"},
           {"budget", "8garbage"},
           {"dataset", ""},
           {"preempt", "0..5"},
           {"preempt", "nan"},
           {"deadline", "soon"},
           {"surrogate", "bogus"},
           {"refit", "sometimes"},
           {"rff", "-1"}}) {
    core::SessionSpec spec;
    EXPECT_FALSE(
        core::decode_spec_body(swap_field(key, value), spec, &error))
        << key << '=' << value;
  }
}

TEST(ServiceSpecTest, SpecFileDetectsCorruption) {
  TempDir dir("spec");
  const auto spec = small_spec(5);
  const std::string path = dir.file("s.spec");
  ASSERT_TRUE(core::save_spec_file(spec, path));

  core::SessionSpec back;
  std::string error;
  ASSERT_TRUE(core::load_spec_file(path, back, &error)) << error;
  EXPECT_EQ(core::encode_spec_body(back), core::encode_spec_body(spec));

  // Flip one payload byte: the CRC frame must reject the file.
  std::string bytes = slurp(path);
  bytes[bytes.size() / 2] ^= 0x20;
  std::ofstream(path, std::ios::binary) << bytes;
  EXPECT_FALSE(core::load_spec_file(path, back, &error));
  EXPECT_FALSE(error.empty());
}

TEST(ServiceSpecTest, ValidateRejectsBadCombinations) {
  core::SessionSpec spec = small_spec(1);
  spec.tuner = "unknown-tuner";
  EXPECT_FALSE(spec.validate().empty());

  spec = small_spec(1);
  spec.racing = "median";
  spec.parallel = 0;  // racing needs the scheduler
  EXPECT_FALSE(spec.validate().empty());

  spec = small_spec(1);
  spec.budget = 2;  // below the initial design
  EXPECT_FALSE(spec.validate().empty());

  EXPECT_TRUE(small_spec(1).validate().empty());
}

// ----------------------------------------------------------- admission ----

TEST(ServiceAdmissionTest, BackpressureRejectsBeyondQueueBound) {
  TempDir dir("admit");
  service::ServiceOptions options;
  options.root = dir.path();
  options.max_live = 1;
  options.max_pending = 1;
  service::SessionManager manager(options);

  // A long-enough session to hold the single worker while we probe.
  const auto a = manager.start(small_spec(1, /*budget=*/24));
  ASSERT_TRUE(a.admitted) << a.error;
  wait_for_state(manager, a.id, service::SessionState::kRunning);

  const auto b = manager.start(small_spec(2, 24));
  ASSERT_TRUE(b.admitted) << b.error;  // fits the pending queue

  const auto c = manager.start(small_spec(3, 24));
  EXPECT_FALSE(c.admitted);  // backpressure, not an unbounded queue
  EXPECT_NE(c.error.find("queue full"), std::string::npos) << c.error;

  const auto d = manager.start([] {
    auto s = small_spec(4);
    s.tuner = "rs";  // hosted sessions must journal → robotune only
    return s;
  }());
  EXPECT_FALSE(d.admitted);
  EXPECT_NE(d.error.find("robotune"), std::string::npos) << d.error;

  manager.shutdown(/*cancel_live=*/true);
  const auto s = manager.service_status();
  EXPECT_EQ(s.queued + s.running, 0u);
  EXPECT_FALSE(s.accepting);
}

// -------------------------------------------------------- cancellation ----

TEST(ServiceCancelTest, CancelStopsAtRoundBoundaryWithResumableJournal) {
  TempDir dir("cancel");
  service::ServiceOptions options;
  options.root = dir.path();
  options.max_live = 1;
  service::SessionManager manager(options);

  const auto started = manager.start(small_spec(7, /*budget=*/200));
  ASSERT_TRUE(started.admitted) << started.error;
  wait_for_evals(manager, started.id, 2);

  std::string why;
  ASSERT_TRUE(manager.cancel(started.id, &why)) << why;
  wait_for_state(manager, started.id, service::SessionState::kCancelled);

  const auto status = manager.status(started.id);
  ASSERT_TRUE(status.has_value());
  EXPECT_GE(status->evaluations, 2u);
  EXPECT_LT(status->evaluations, 200u);  // stopped long before budget

  // The journal on disk is a loadable prefix, and the explicit cancel
  // left a tombstone so a restart keeps the session cancelled.
  core::SessionCheckpoint state;
  ASSERT_TRUE(core::load_session_file(manager.journal_path(started.id),
                                      state, core::LoadMode::kStrict));
  EXPECT_EQ(state.evaluations.size(), status->evaluations);
  EXPECT_TRUE(fs::exists(dir.file("session-" +
                                  std::to_string(started.id) +
                                  ".cancelled")));

  // Cancelling a terminal session reports why instead of succeeding.
  EXPECT_FALSE(manager.cancel(started.id, &why));
  EXPECT_NE(why.find("cancelled"), std::string::npos) << why;
}

// ---------------------------------------- interleaved determinism ---------

TEST(ServiceDeterminismTest, InterleavedSessionsMatchStandaloneByteForByte) {
  // Eight seeded sessions, twice: once on a 1-worker/1-slot manager
  // (fully serialized) and once on a 4-worker manager with round-robin
  // slicing (maximally interleaved).  Every journal must equal the
  // standalone run's bytes — concurrency is wall-clock only.
  constexpr int kSessions = 8;
  TempDir standalone_dir("solo");
  std::vector<std::string> expected(kSessions);
  for (int i = 0; i < kSessions; ++i) {
    const std::string path =
        standalone_dir.file("solo-" + std::to_string(i) + ".journal");
    run_standalone(small_spec(100 + i), path);
    expected[i] = slurp(path);
    ASSERT_FALSE(expected[i].empty());
  }

  struct Config {
    std::size_t max_live;
    std::size_t slots;
  };
  for (const Config config : {Config{1, 1}, Config{4, 2}, Config{4, 0}}) {
    SCOPED_TRACE("max_live " + std::to_string(config.max_live) + " slots " +
                 std::to_string(config.slots));
    TempDir dir("fleet");
    service::ServiceOptions options;
    options.root = dir.path();
    options.max_live = config.max_live;
    options.slots = config.slots;
    options.max_pending = kSessions;
    service::SessionManager manager(options);

    std::vector<std::uint64_t> ids;
    for (int i = 0; i < kSessions; ++i) {
      const auto started = manager.start(small_spec(100 + i));
      ASSERT_TRUE(started.admitted) << started.error;
      ids.push_back(started.id);
    }
    manager.drain();

    for (int i = 0; i < kSessions; ++i) {
      const auto status = manager.status(ids[static_cast<std::size_t>(i)]);
      ASSERT_TRUE(status.has_value());
      EXPECT_EQ(status->state, service::SessionState::kDone)
          << status->error;
      EXPECT_EQ(slurp(manager.journal_path(ids[static_cast<std::size_t>(i)])),
                expected[static_cast<std::size_t>(i)])
          << "session " << i;
    }
  }
}

TEST(ServiceDeterminismTest, DerivedSeedsAreStableAcrossRestarts) {
  // Seeding discipline: with derive_seed, the session seed is a pure
  // function of (service seed, session id) — two fleets with the same
  // service seed produce byte-identical journals.
  std::vector<std::string> journals[2];
  for (int round = 0; round < 2; ++round) {
    TempDir dir("derive");
    service::ServiceOptions options;
    options.root = dir.path();
    options.max_live = 2;
    options.seed = 4242;
    service::SessionManager manager(options);
    for (int i = 0; i < 3; ++i) {
      const auto started =
          manager.start(small_spec(0), /*derive_seed=*/true);
      ASSERT_TRUE(started.admitted) << started.error;
    }
    manager.drain();
    for (std::uint64_t id = 1; id <= 3; ++id) {
      journals[round].push_back(slurp(manager.journal_path(id)));
    }
  }
  EXPECT_EQ(journals[0], journals[1]);
  // Different sessions got different seeds (the journals differ).
  EXPECT_NE(journals[0][0], journals[0][1]);
}

// ------------------------------------------------------ fleet recovery ----

TEST(ServiceRecoveryTest, RestartResumesFleetAndQuarantinesCorruptSession) {
  TempDir dir("recover");
  service::ServiceOptions options;
  options.root = dir.path();
  // All three sessions live at once so every journal is mid-flight when
  // the "crash" hits.
  options.max_live = 3;
  options.max_pending = 8;

  // Expected end states, computed standalone.
  TempDir solo("recover-solo");
  std::vector<std::string> expected;
  for (std::uint64_t seed : {21, 22, 23}) {
    const std::string path =
        solo.file("solo-" + std::to_string(seed) + ".journal");
    run_standalone(small_spec(seed, /*budget=*/40), path);
    expected.push_back(slurp(path));
  }

  std::uint64_t ids[3];
  {
    service::SessionManager manager(options);
    int i = 0;
    for (std::uint64_t seed : {21, 22, 23}) {
      const auto started = manager.start(small_spec(seed, 40));
      ASSERT_TRUE(started.admitted) << started.error;
      ids[i++] = started.id;
    }
    // Let every session make partial progress, then "crash" the daemon:
    // cancel-and-drain leaves the exact on-disk state a kill -9 would,
    // minus the torn tail — which the test inflicts by hand below.
    for (const auto id : ids) wait_for_evals(manager, id, 3);
    manager.shutdown(/*cancel_live=*/true);
  }

  // Wreck session 2's journal beyond recovery: the header itself.
  {
    std::ofstream out(dir.file("session-" + std::to_string(ids[1]) +
                               ".journal"),
                      std::ios::binary);
    out << "robotune-garbage v9\nnot a frame\n";
  }
  // Tear session 3's journal tail — the kill -9 case; recover mode must
  // truncate and resume, not quarantine.
  {
    const std::string path =
        dir.file("session-" + std::to_string(ids[2]) + ".journal");
    std::string bytes = slurp(path);
    ASSERT_GT(bytes.size(), 10u);
    std::ofstream(path, std::ios::binary)
        << bytes.substr(0, bytes.size() - 7) << "torn";
  }

  service::SessionManager restarted(options);
  const auto recovery = restarted.recover_fleet();
  EXPECT_EQ(recovery.quarantined, 1u);
  EXPECT_EQ(recovery.readmitted, 2u);
  EXPECT_EQ(recovery.completed, 0u);
  ASSERT_FALSE(recovery.quarantined_files.empty());
  EXPECT_TRUE(fs::exists(dir.file("quarantine")));
  EXPECT_FALSE(fs::exists(restarted.spec_path(ids[1])));

  restarted.drain();
  // Both surviving sessions finished with exactly the bytes an
  // uninterrupted run produces.
  const auto s1 = restarted.status(ids[0]);
  ASSERT_TRUE(s1.has_value());
  EXPECT_EQ(s1->state, service::SessionState::kDone) << s1->error;
  EXPECT_TRUE(s1->resumed);
  EXPECT_GE(s1->replayed, 3u);
  EXPECT_EQ(slurp(restarted.journal_path(ids[0])), expected[0]);

  const auto s3 = restarted.status(ids[2]);
  ASSERT_TRUE(s3.has_value());
  EXPECT_EQ(s3->state, service::SessionState::kDone) << s3->error;
  EXPECT_EQ(slurp(restarted.journal_path(ids[2])), expected[2]);

  EXPECT_FALSE(restarted.status(ids[1]).has_value());  // quarantined
}

TEST(ServiceRecoveryTest, ReadmissionBypassesBackpressureAndNeverQuarantines) {
  // A pre-crash fleet can legitimately hold max_live running plus
  // max_pending queued incomplete sessions.  Recovery re-admission must
  // bypass the max_pending bound (backpressure gates external starts) —
  // before this was fixed, the overflow sessions' perfectly valid spec
  // and journal files were quarantined as if corrupt.
  constexpr int kSessions = 3;
  TempDir dir("readmit");
  service::ServiceOptions roomy;
  roomy.root = dir.path();
  roomy.max_live = 2;
  roomy.max_pending = kSessions;

  std::uint64_t ids[kSessions];
  {
    service::SessionManager manager(roomy);
    for (int i = 0; i < kSessions; ++i) {
      const auto started =
          manager.start(small_spec(61 + static_cast<std::uint64_t>(i),
                                   /*budget=*/16));
      ASSERT_TRUE(started.admitted) << started.error;
      ids[i] = started.id;
    }
    // Partial progress on the running pair, then "crash".
    wait_for_evals(manager, ids[0], 2);
    manager.shutdown(/*cancel_live=*/true);
  }

  // Restart with a queue bound smaller than the surviving fleet: every
  // incomplete session must still come back, and none may be moved to
  // quarantine/.
  service::ServiceOptions tight = roomy;
  tight.max_live = 1;
  tight.max_pending = 1;
  service::SessionManager restarted(tight);
  const auto recovery = restarted.recover_fleet();
  EXPECT_EQ(recovery.readmitted, static_cast<std::size_t>(kSessions));
  EXPECT_EQ(recovery.quarantined, 0u);
  EXPECT_EQ(recovery.failed, 0u);
  EXPECT_TRUE(recovery.errors.empty());
  EXPECT_FALSE(fs::exists(dir.file("quarantine")));

  // Every session is registered and its files are still in place.
  // (RestartResumesFleet... covers readmitted sessions running to
  // byte-identical completion; this test pins the admission decision, so
  // stop the fleet instead of paying for three full runs.)
  restarted.shutdown(/*cancel_live=*/true);
  for (int i = 0; i < kSessions; ++i) {
    const auto status = restarted.status(ids[i]);
    ASSERT_TRUE(status.has_value()) << "session " << i;
    EXPECT_NE(status->state, service::SessionState::kFailed)
        << status->error;
    EXPECT_TRUE(fs::exists(restarted.spec_path(ids[i]))) << "session " << i;
  }
}

TEST(ServiceRecoveryTest, TombstonedAndCompletedSessionsStayTerminal) {
  TempDir dir("terminal");
  service::ServiceOptions options;
  options.root = dir.path();
  options.max_live = 2;

  std::uint64_t done_id = 0, cancelled_id = 0;
  {
    service::SessionManager manager(options);
    const auto done = manager.start(small_spec(31, /*budget=*/8));
    ASSERT_TRUE(done.admitted);
    done_id = done.id;
    const auto cancelled = manager.start(small_spec(32, /*budget=*/200));
    ASSERT_TRUE(cancelled.admitted);
    cancelled_id = cancelled.id;
    wait_for_evals(manager, cancelled_id, 1);
    ASSERT_TRUE(manager.cancel(cancelled_id));
    manager.drain();
  }

  service::SessionManager restarted(options);
  const auto recovery = restarted.recover_fleet();
  EXPECT_EQ(recovery.completed, 1u);
  EXPECT_EQ(recovery.cancelled, 1u);
  EXPECT_EQ(recovery.readmitted, 0u);
  EXPECT_EQ(recovery.quarantined, 0u);

  const auto done_status = restarted.status(done_id);
  ASSERT_TRUE(done_status.has_value());
  EXPECT_EQ(done_status->state, service::SessionState::kDone);
  EXPECT_EQ(done_status->evaluations, 8u);
  EXPECT_LT(done_status->best_value_s,
            std::numeric_limits<double>::infinity());

  const auto cancelled_status = restarted.status(cancelled_id);
  ASSERT_TRUE(cancelled_status.has_value());
  EXPECT_EQ(cancelled_status->state, service::SessionState::kCancelled);
}

// ------------------------------------------------- dispatch / clients ----

TEST(ServiceDispatchTest, LocalClientDrivesFullVerbSet) {
  TempDir dir("dispatch");
  service::ServiceOptions options;
  options.root = dir.path();
  options.max_live = 2;
  service::SessionManager manager(options);
  service::LocalClient client(manager);

  service::Request start;
  start.verb = "start";
  start.spec_body = core::encode_spec_body(small_spec(55));
  auto response = client.call(start);
  ASSERT_TRUE(response.ok) << response.error;
  const std::uint64_t id = std::stoull(response.fields.at("id"));

  manager.drain();

  service::Request status;
  status.verb = "status";
  status.session = id;
  response = client.call(status);
  ASSERT_TRUE(response.ok) << response.error;
  EXPECT_EQ(response.fields.at("state"), "done");
  EXPECT_EQ(response.fields.at("evals"), "8");

  service::Request suggest;
  suggest.verb = "suggest";
  suggest.session = id;
  response = client.call(suggest);
  ASSERT_TRUE(response.ok) << response.error;
  EXPECT_FALSE(response.fields.at("unit").empty());
  EXPECT_GT(std::stod(response.fields.at("best")), 0.0);

  service::Request observe;
  observe.verb = "observe";
  observe.session = id;
  observe.from = 2;
  observe.limit = 3;
  response = client.call(observe);
  ASSERT_TRUE(response.ok) << response.error;
  EXPECT_EQ(response.fields.at("total"), "8");
  ASSERT_EQ(response.records.size(), 3u);
  // Records lead with the evaluation index, starting at `from`.
  EXPECT_EQ(response.records[0].substr(0, 2), "2 ");

  service::Request checkpoint;
  checkpoint.verb = "checkpoint";
  checkpoint.session = id;
  response = client.call(checkpoint);
  ASSERT_TRUE(response.ok) << response.error;
  EXPECT_EQ(response.fields.at("journal"), manager.journal_path(id));

  service::Request bogus;
  bogus.verb = "frobnicate";
  response = client.call(bogus);
  EXPECT_FALSE(response.ok);
  EXPECT_NE(response.error.find("unknown verb"), std::string::npos);

  service::Request cancel;
  cancel.verb = "cancel";
  cancel.session = 999;
  response = client.call(cancel);
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.error, "no such session");

  // Service-wide status (session 0).
  service::Request fleet;
  fleet.verb = "status";
  response = client.call(fleet);
  ASSERT_TRUE(response.ok) << response.error;
  EXPECT_EQ(response.fields.at("done"), "1");
  EXPECT_EQ(response.fields.at("accepting"), "1");

  // The in-process path deliberately refuses shutdown (socket-only).
  service::Request shutdown;
  shutdown.verb = "shutdown";
  response = client.call(shutdown);
  EXPECT_FALSE(response.ok);
}

// Minimal scripted peer: listens on a Unix socket, accepts one client,
// reads one request, and answers with a caller-supplied sequence of
// response frames.  Exists to exercise SocketClient's response/rid
// matching without a full daemon in the loop.
class ScriptedPeer {
 public:
  explicit ScriptedPeer(const std::string& path) {
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr = {};
    addr.sun_family = AF_UNIX;
    std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s", path.c_str());
    ::unlink(path.c_str());
    ::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
           sizeof(addr));
    ::listen(listen_fd_, 1);
  }
  ~ScriptedPeer() {
    if (thread_.joinable()) thread_.join();
    if (listen_fd_ >= 0) ::close(listen_fd_);
  }

  /// Accepts one connection, waits for one request frame, then sends
  /// every response in order.  Runs on a background thread.
  void respond_with(std::vector<service::Response> responses) {
    thread_ = std::thread([this, responses = std::move(responses)] {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      ASSERT_GE(fd, 0);
      char buffer[4096];
      const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
      ASSERT_GT(n, 0);
      for (const auto& response : responses) {
        const std::string frame =
            frame_message(service::encode_response(response));
        ASSERT_EQ(::send(fd, frame.data(), frame.size(), 0),
                  static_cast<ssize_t>(frame.size()));
      }
      ::close(fd);
    });
  }

 private:
  int listen_fd_ = -1;
  std::thread thread_;
};

TEST(ServiceSocketClientTest, SkipsStaleFramesAndMatchesRid) {
  // A client that hit a transport error mid-call can find the previous
  // request's late reply in the stream on its next call.  call() must
  // skip the stale frame (mismatched rid) and return the one answering
  // the in-flight request — never mis-attribute.
  TempDir dir("rid-stale");
  const std::string path = dir.file("peer.sock");
  ScriptedPeer peer(path);

  service::Response stale;
  stale.ok = true;
  stale.rid = 7;  // not the rid call() will send
  stale.fields["id"] = "999";
  service::Response fresh;
  fresh.ok = true;
  fresh.fields["id"] = "1";
  // SocketClient numbers requests from 1.
  fresh.rid = 1;
  peer.respond_with({stale, fresh});

  service::SocketClient client;
  ASSERT_TRUE(client.connect(path));
  service::Request request;
  request.verb = "status";
  service::Response response;
  std::string error;
  ASSERT_TRUE(client.call(request, response, &error)) << error;
  EXPECT_EQ(response.rid, 1u);
  EXPECT_EQ(response.fields.at("id"), "1");
}

TEST(ServiceSocketClientTest, FailsDistinctlyOnServerStreamError) {
  // rid 0 is the server's corrupt-request-stream error frame — the
  // server cuts the connection after sending it, so the client must
  // fail the call rather than keep waiting for a matching rid.
  TempDir dir("rid-zero");
  const std::string path = dir.file("peer.sock");
  ScriptedPeer peer(path);

  service::Response err;
  err.ok = false;
  err.rid = 0;
  err.error = "frame checksum mismatch";
  peer.respond_with({err});

  service::SocketClient client;
  ASSERT_TRUE(client.connect(path));
  service::Request request;
  request.verb = "status";
  service::Response response;
  std::string error;
  EXPECT_FALSE(client.call(request, response, &error));
  EXPECT_NE(error.find("server stream error"), std::string::npos) << error;
  EXPECT_NE(error.find("checksum"), std::string::npos) << error;
  EXPECT_FALSE(client.connected());
}

TEST(ServiceServerTest, DropsClientsThatNeverCompleteAFrame) {
  // A client that connects and then stalls — never sending a frame, or
  // stopping mid-frame — must not hold a connection slot forever.  The
  // serve loop's idle sweep drops it, while a healthy client that
  // completed a frame and merely sits quiet between requests stays.
  TempDir dir("idle-drop");
  service::ServiceOptions options;
  options.root = dir.path();
  options.max_live = 1;
  service::SessionManager manager(options);
  service::Server server(manager, dir.file("rt.sock"));
  std::string error;
  ASSERT_TRUE(server.listen(&error)) << error;
  server.set_idle_timeout(std::chrono::milliseconds(200));
  std::atomic<bool> stop{false};
  std::thread serve_thread([&] { server.serve(stop); });

  const auto raw_connect = [&] {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr = {};
    addr.sun_family = AF_UNIX;
    std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s",
                  dir.file("rt.sock").c_str());
    EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    return fd;
  };
  // Dropped connections surface as EOF on the peer's next read.
  const auto wait_for_eof = [](int fd) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    char byte = 0;
    while (std::chrono::steady_clock::now() < deadline) {
      const ssize_t n = ::recv(fd, &byte, 1, MSG_DONTWAIT);
      if (n == 0) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return false;
  };

  // A healthy client completes one request up front.
  service::SocketClient healthy;
  ASSERT_TRUE(healthy.connect(dir.file("rt.sock"), &error)) << error;
  service::Request status;
  status.verb = "status";
  service::Response response;
  ASSERT_TRUE(healthy.call(status, response, &error)) << error;
  ASSERT_TRUE(response.ok);

  const int silent = raw_connect();       // never sends a byte
  const int stalled = raw_connect();      // stops mid-frame
  const std::string frame = frame_message(
      service::encode_request([] {
        service::Request r;
        r.verb = "status";
        r.rid = 1;
        return r;
      }()));
  ASSERT_GT(::send(stalled, frame.data(), frame.size() / 2, MSG_NOSIGNAL),
            0);

  EXPECT_TRUE(wait_for_eof(silent)) << "silent client was never dropped";
  EXPECT_TRUE(wait_for_eof(stalled)) << "mid-frame client was never dropped";
  ::close(silent);
  ::close(stalled);

  // The healthy-idle client survived both sweeps and still works.
  ASSERT_TRUE(healthy.call(status, response, &error)) << error;
  EXPECT_TRUE(response.ok);

  healthy.close();
  stop.store(true);
  serve_thread.join();
}

TEST(ServiceEvictionTest, ThousandTerminalSessionsEvictToDiskAndRehydrate) {
  // Residency regression for long-lived daemons (ROADMAP 5): terminal
  // sessions leave the in-memory map after the TTL, their disk files
  // stay, and any verb re-hydrates them on demand.  One real session
  // provides the journal; cloning its files 999× makes a 1000-session
  // terminal fleet cheap enough for tier 1.
  TempDir dir("evict-1k");
  {
    service::ServiceOptions options;
    options.root = dir.path();
    options.max_live = 1;
    service::SessionManager manager(options);
    const auto started = manager.start(small_spec(41, 6));
    ASSERT_TRUE(started.admitted) << started.error;
    manager.drain();
  }
  for (int id = 2; id <= 1000; ++id) {
    fs::copy_file(dir.file("session-1.spec"),
                  dir.file("session-" + std::to_string(id) + ".spec"));
    fs::copy_file(dir.file("session-1.journal"),
                  dir.file("session-" + std::to_string(id) + ".journal"));
  }

  service::ServiceOptions options;
  options.root = dir.path();
  options.max_live = 1;
  options.terminal_ttl_ticks = 3;
  service::SessionManager manager(options);
  const auto recovery = manager.recover_fleet();
  EXPECT_EQ(recovery.completed, 1000u);
  EXPECT_EQ(manager.resident_sessions(), 1000u);

  // All re-registrations happened at tick 0, so the whole fleet crosses
  // the TTL on tick 3.
  manager.tick();
  manager.tick();
  EXPECT_EQ(manager.resident_sessions(), 1000u);
  manager.tick();
  EXPECT_EQ(manager.resident_sessions(), 0u);
  {
    const auto fleet = manager.service_status();
    EXPECT_EQ(fleet.done, 1000u);
    EXPECT_EQ(fleet.evicted, 1000u);
  }

  // Verbs against an evicted id re-hydrate from the intact disk files.
  const auto status = manager.status(707);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->state, service::SessionState::kDone);
  EXPECT_EQ(status->evaluations, 6u);
  EXPECT_EQ(manager.resident_sessions(), 1u);
  const auto observed = manager.observe(999, 0, 0);
  ASSERT_TRUE(observed.ok) << observed.error;
  EXPECT_EQ(observed.total, 6u);
  EXPECT_EQ(manager.resident_sessions(), 2u);

  // The O(1) counters and the O(n) recount agree with the eviction
  // ledger folded in — nothing was lost or double-counted.
  const auto recount = manager.recount_status();
  EXPECT_EQ(recount.done, 1000u);
  EXPECT_EQ(recount.evicted, 998u);
  const auto incremental = manager.service_status();
  EXPECT_EQ(incremental.done, recount.done);
  EXPECT_EQ(incremental.evicted, recount.evicted);
}

TEST(ServiceTurnstileTest, YieldRotatesFifoWithoutSelfDeadlock) {
  // A lone session yields without blocking (keeps its slice), and two
  // sessions on one slot hand the CPU back and forth in FIFO order.
  service::Turnstile turnstile(1);
  turnstile.enter(1);
  turnstile.yield(1);  // nobody waiting: must not block
  std::atomic<int> entered{0};
  std::thread second([&] {
    turnstile.enter(2);
    entered.store(1);
    turnstile.leave();
  });
  // The second session is parked until the first yields.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(entered.load(), 0);
  turnstile.yield(1);  // hands the slice to session 2, re-queues FIFO
  second.join();
  EXPECT_EQ(entered.load(), 1);
  turnstile.leave();
}

}  // namespace
}  // namespace robotune
