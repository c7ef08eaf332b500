// Journal byte pins and resume byte identity.
//
// The final checkpoint a session leaves behind is the strongest summary
// of everything the engine did: every proposal, guard decision, degrade
// rung and replayed outcome lands in it.  These tests pin the crc32 and
// length of final journals for both evaluation paths (scheduler
// rounds — detached sessions run them on a local one-worker scheduler —
// and ask/tell), and check that resuming from a journal cut at
// any point — inside the initial design, mid-round, in the BO phase —
// rewrites the uninterrupted journal byte for byte.  The baseline tuners
// write no journal, so their histories are pinned the same way.
#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/chaos.h"
#include "common/crc32.h"
#include "core/persistence.h"
#include "core/session.h"
#include "service/client.h"
#include "service/session_manager.h"
#include "tuners/bestconfig.h"
#include "tuners/gunther.h"
#include "tuners/random_search.h"
#include "tuners/rfhoc.h"

namespace robotune {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    root_ = fs::temp_directory_path() /
            ("robotune-journal-bytes-" + tag + "-" +
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

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

struct Pin {
  std::uint32_t crc = 0;
  std::size_t bytes = 0;
};

Pin pin_of(const std::string& journal) {
  return Pin{crc32(journal), journal.size()};
}

void expect_pin(const std::string& journal, Pin expected) {
  const Pin got = pin_of(journal);
  EXPECT_EQ(got.crc, expected.crc)
      << std::hex << "crc32 0x" << got.crc << std::dec << ", " << got.bytes
      << " bytes";
  EXPECT_EQ(got.bytes, expected.bytes);
}

/// Runs `spec` to completion through the factory and returns the bytes
/// of the journal it leaves at spec.checkpoint_path.
std::string run_session(const core::SessionSpec& spec) {
  std::string error;
  auto session = core::SessionFactory::create(spec, &error);
  EXPECT_NE(session, nullptr) << error;
  if (session == nullptr) return {};
  const auto outcome = session->run();
  EXPECT_TRUE(outcome.ok()) << outcome.error;
  EXPECT_FALSE(outcome.interrupted);
  return slurp(spec.checkpoint_path);
}

core::SessionSpec pr_d1(std::uint64_t seed, int budget,
                        const std::string& checkpoint) {
  core::SessionSpec spec;
  spec.workload = "PR";
  spec.dataset = 1;
  spec.tuner = "robotune";
  spec.budget = budget;
  spec.seed = seed;
  spec.checkpoint_path = checkpoint;
  return spec;
}

// ---- pins -----------------------------------------------------------------

// Detached sessions (parallel 0) run their rounds on a local one-worker
// scheduler, so they write the bytes of parallel 1.
TEST(JournalPinTest, DetachedSessionsKeepTheirBytes) {
  TempDir dir("detached");
  const Pin pins[] = {
      {0x428f4ed7u, 25745}, {0x2c249887u, 25351}, {0x8153ea5bu, 25661}};
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const auto journal =
        run_session(pr_d1(seed, 40, dir.file("s" + std::to_string(seed))));
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_pin(journal, pins[seed - 1]);
  }
}

TEST(JournalPinTest, SchedulerSessionsKeepTheirBytesAtAnyWorkerCount) {
  TempDir dir("scheduler");
  const Pin pin{0xc10b6061u, 25551};
  for (int parallel : {0, 1, 4}) {  // 0 = detached
    auto spec = pr_d1(1, 40, dir.file("p" + std::to_string(parallel)));
    spec.parallel = parallel;
    spec.batch = 4;
    SCOPED_TRACE("parallel " + std::to_string(parallel));
    expect_pin(run_session(spec), pin);
  }
}

/// One line per evaluation: index, status, value and unit, every double
/// printed %.17g so the text is the exact bits.
std::string history_text(const tuners::TuningResult& result) {
  std::string text;
  char buf[32];
  for (std::size_t i = 0; i < result.history.size(); ++i) {
    const auto& e = result.history[i];
    text += std::to_string(i) + " " + sparksim::to_string(e.status);
    std::snprintf(buf, sizeof(buf), " %.17g", e.value_s);
    text += buf;
    for (double u : e.unit) {
      std::snprintf(buf, sizeof(buf), " %.17g", u);
      text += buf;
    }
    text += '\n';
  }
  return text;
}

// The baselines' trajectories, so a constant that replaces an option
// cannot drift unseen.  BestConfig runs twice: its default sample set
// (100) spends a budget of 40 on one DDS round, and a set of 10 reaches
// bound-and-search.
TEST(JournalPinTest, BaselineTunersKeepTheirHistories) {
  struct Case {
    const char* name;
    std::unique_ptr<tuners::Tuner> tuner;
    Pin pin;
  };
  tuners::BestConfigOptions small_sets;
  small_sets.sample_set_size = 10;
  Case cases[] = {
      {"RS", std::make_unique<tuners::RandomSearch>(), {0xa4707dfcu, 36144}},
      {"Gunther", std::make_unique<tuners::Gunther>(), {0xf3cef0b4u, 36062}},
      {"BestConfig", std::make_unique<tuners::BestConfig>(),
       {0x94ccea3fu, 36148}},
      {"BestConfig/10", std::make_unique<tuners::BestConfig>(small_sets),
       {0xd4d2cd33u, 36210}},
      {"RFHOC", std::make_unique<tuners::Rfhoc>(), {0x992ecd9au, 36213}},
  };
  for (auto& c : cases) {
    SCOPED_TRACE(c.name);
    sparksim::SparkObjective objective(
        sparksim::ClusterSpec{},
        sparksim::make_workload(sparksim::WorkloadKind::kTeraSort, 1),
        sparksim::spark24_config_space(), 13);
    const auto result = c.tuner->tune(objective, 40, 5);
    ASSERT_EQ(result.history.size(), 40u);
    expect_pin(history_text(result), c.pin);
  }
}

/// A deterministic stand-in for an outside executor: a pure function of
/// (unit, index), so every drive of a session reports the same tuples.
core::ExternalObservation measure(const std::vector<double>& unit,
                                  std::uint64_t index) {
  double v = 0.0;
  for (std::size_t i = 0; i < unit.size(); ++i) {
    v += unit[i] * static_cast<double>(i + 1);
  }
  core::ExternalObservation obs;
  obs.value_s = 60.0 + 10.0 * v / static_cast<double>(unit.size()) +
                static_cast<double>(index % 3);
  obs.cost_s = obs.value_s + 2.5;
  return obs;
}

TEST(JournalPinTest, AskTellSessionKeepsItsBytes) {
  TempDir dir("asktell");
  service::ServiceOptions options;
  options.root = dir.path();
  options.max_live = 1;
  service::SessionManager manager(options);
  service::LocalClient client(manager);

  core::SessionSpec spec;
  spec.workload = "PR";
  spec.dataset = 1;
  spec.tuner = "robotune";
  spec.mode = "external";
  spec.budget = 14;
  spec.seed = 11;
  spec.init = 6;
  spec.batch = 4;
  spec.selection_samples = 20;
  service::Request start;
  start.verb = "start";
  start.spec_body = core::encode_spec_body(spec);
  auto response = client.call(start);
  ASSERT_TRUE(response.ok) << response.error;
  const std::uint64_t id = std::stoull(response.fields.at("id"));

  // One executor thread: lease whatever is pending, measure, tell.
  service::Request suggest;
  suggest.verb = "suggest";
  suggest.session = id;
  suggest.limit = 16;
  bool done = false;
  for (int spin = 0; spin < 60000 && !done; ++spin) {
    response = client.call(suggest);
    ASSERT_TRUE(response.ok) << response.error;
    done = response.fields.at("state") == "done";
    if (response.records.empty()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      continue;
    }
    for (const auto& record : response.records) {
      std::istringstream in(record);
      std::uint64_t index = 0;
      std::uint64_t lease = 0;
      std::uint64_t deadline = 0;
      ASSERT_TRUE(static_cast<bool>(in >> index >> lease >> deadline));
      std::vector<double> unit;
      double coord = 0.0;
      while (in >> coord) unit.push_back(coord);
      const auto obs = measure(unit, index);
      service::Request observe;
      observe.verb = "observe";
      observe.session = id;
      observe.has_observation = true;
      observe.eval = index;
      observe.value_s = obs.value_s;
      observe.cost_s = obs.cost_s;
      observe.status = "ok";
      const auto told = client.call(observe);
      ASSERT_TRUE(told.ok) << told.error;
      ASSERT_EQ(told.fields.at("verdict"), "accepted");
    }
  }
  ASSERT_TRUE(done) << "ask/tell session never finished";
  manager.drain();
  const auto journal = slurp(manager.journal_path(id));
  expect_pin(journal, Pin{0xdf894abau, 9455});
}

// ---- resume byte identity ---------------------------------------------------

struct ResumeCase {
  const char* name;
  int parallel;
  int batch;
};

class ResumeBytesTest : public ::testing::TestWithParam<ResumeCase> {
 protected:
  void TearDown() override { chaos::injector().disarm(); }

  // Surrogate failures on a quarter of the factorizations and
  // acquisition runs, so the journals carry degrade records.
  static void arm_chaos() {
    chaos::ChaosProfile profile;
    ASSERT_TRUE(chaos::ChaosProfile::parse("cholesky=0.25,acq=0.25", profile));
    chaos::injector().configure(profile, 17);
  }

  static core::SessionSpec spec(const std::string& checkpoint) {
    auto s = pr_d1(4, 24, checkpoint);
    s.init = 8;
    s.selection_samples = 30;
    s.parallel = GetParam().parallel;
    s.batch = GetParam().batch;
    return s;
  }
};

TEST_P(ResumeBytesTest, ResumeFromAnyCutRewritesTheSameJournal) {
  TempDir dir(GetParam().name);
  arm_chaos();
  const std::string full = run_session(spec(dir.file("full")));
  ASSERT_FALSE(full.empty());
  ASSERT_NE(full.find("degrade"), std::string::npos);

  core::SessionCheckpoint state;
  ASSERT_TRUE(core::load_session_file(dir.file("full"), state));
  ASSERT_EQ(state.evaluations.size(), 24u);
  // Inside the initial design (8 points), mid-round for batch 4, and on
  // a BO round boundary.
  for (std::size_t kept : {5u, 14u, 16u}) {
    SCOPED_TRACE("kept " + std::to_string(kept));
    const std::string path = dir.file("cut" + std::to_string(kept));
    core::SessionCheckpoint cut = state;
    cut.evaluations.resize(kept);
    ASSERT_TRUE(core::save_session_file(cut, path));
    arm_chaos();  // chaos decisions replay from the top, like the engine
    auto resumed = spec(path);
    resumed.resume = true;
    EXPECT_EQ(run_session(resumed), full);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Paths, ResumeBytesTest,
    ::testing::Values(ResumeCase{"detached_q1", 0, 1},
                      ResumeCase{"detached_q4", 0, 4},
                      ResumeCase{"scheduler_q4", 2, 4}),
    [](const auto& info) { return std::string(info.param.name); });

}  // namespace
}  // namespace robotune
