#include "core/persistence.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string_view>

#include "common/chaos.h"
#include "common/error.h"
#include "common/frame.h"

namespace robotune::core {

namespace {
constexpr const char* kHeader = "robotune-state v1";
constexpr const char* kSessionHeaderV3 = "robotune-session v3";
constexpr const char* kSessionHeaderV2 = "robotune-session v2";
constexpr const char* kSessionHeaderV1 = "robotune-session v1";

// Whitespace tokenizer with file:line error context.  Every numeric
// conversion goes through std::from_chars with a full-token-consumption
// check, so a malformed field surfaces as InvalidArgument("<source>:<N>:
// ...") instead of an uncaught std::invalid_argument or a silently
// truncated value.
class RecordParser {
 public:
  RecordParser(std::string_view payload, const std::string& source,
               std::size_t line)
      : payload_(payload), source_(source), line_(line) {}

  [[noreturn]] void fail(const std::string& what) const {
    throw InvalidArgument("load_session: " + source_ + ":" +
                          std::to_string(line_) + ": " + what);
  }

  bool at_end() {
    skip_spaces();
    return pos_ >= payload_.size();
  }

  std::string_view token(const char* field) {
    skip_spaces();
    if (pos_ >= payload_.size()) {
      fail(std::string("missing ") + field + " field");
    }
    const std::size_t start = pos_;
    while (pos_ < payload_.size() && payload_[pos_] != ' ' &&
           payload_[pos_] != '\t') {
      ++pos_;
    }
    return payload_.substr(start, pos_ - start);
  }

  std::uint64_t u64(const char* field) {
    const std::string_view t = token(field);
    std::uint64_t value = 0;
    const auto [ptr, ec] =
        std::from_chars(t.data(), t.data() + t.size(), value);
    if (ec != std::errc() || ptr != t.data() + t.size()) {
      fail(std::string("malformed ") + field + " field: '" + std::string(t) +
           "'");
    }
    return value;
  }

  int i(const char* field) {
    const std::string_view t = token(field);
    int value = 0;
    const auto [ptr, ec] =
        std::from_chars(t.data(), t.data() + t.size(), value);
    if (ec != std::errc() || ptr != t.data() + t.size()) {
      fail(std::string("malformed ") + field + " field: '" + std::string(t) +
           "'");
    }
    return value;
  }

  double d(const char* field) {
    const std::string_view t = token(field);
    double value = 0.0;
    const auto [ptr, ec] =
        std::from_chars(t.data(), t.data() + t.size(), value);
    if (ec != std::errc() || ptr != t.data() + t.size()) {
      fail(std::string("malformed ") + field + " field: '" + std::string(t) +
           "'");
    }
    return value;
  }

  void done(const char* record) {
    if (!at_end()) {
      fail(std::string("trailing data in ") + record + " record");
    }
  }

 private:
  void skip_spaces() {
    while (pos_ < payload_.size() &&
           (payload_[pos_] == ' ' || payload_[pos_] == '\t')) {
      ++pos_;
    }
  }

  std::string_view payload_;
  const std::string& source_;
  std::size_t line_;
  std::size_t pos_ = 0;
};

// Parses one session record payload (shared by all journal versions;
// `v1` assigns eval indices by file position).
void parse_session_record(RecordParser& p, bool v1,
                          SessionCheckpoint& session) {
  const std::string_view kind = p.token("record kind");
  if (kind == "meta") {
    session.seed = p.u64("seed");
    session.budget = p.i("budget");
    session.workload = std::string(p.token("workload"));
    p.done("meta");
  } else if (kind == "seeding") {
    const std::string_view mode = p.token("seeding mode");
    if (mode != "sequential" && mode != "indexed") {
      p.fail("malformed seeding mode: '" + std::string(mode) + "'");
    }
    session.indexed_seeding = mode == "indexed";
    p.done("seeding");
  } else if (kind == "selected") {
    const std::uint64_t count = p.u64("selected count");
    session.selected.resize(count);
    for (auto& idx : session.selected) {
      idx = static_cast<std::size_t>(p.u64("selected index"));
    }
    p.done("selected");
  } else if (kind == "selection-draws") {
    session.selection_seed_draws = p.u64("selection-draws");
    p.done("selection-draws");
  } else if (kind == "selection-cost") {
    session.selection_cost_s = p.d("selection-cost");
    p.done("selection-cost");
  } else if (kind == "memo") {
    MemoizedConfig config;
    config.value_s = p.d("memo value");
    const std::uint64_t dims = p.u64("memo dims");
    config.unit.resize(dims);
    for (auto& u : config.unit) u = p.d("memo unit coordinate");
    p.done("memo");
    session.memoized.push_back(std::move(config));
  } else if (kind == "eval") {
    EvalRecord e;
    if (v1) {
      // v1 journals are sequential by construction: index = position.
      e.index = session.evaluations.size();
    } else {
      e.index = p.u64("eval index");
    }
    const std::string_view status_label = p.token("eval status");
    const auto status =
        sparksim::run_status_from_string(std::string(status_label));
    if (!status.has_value()) {
      p.fail("unknown run status: '" + std::string(status_label) + "'");
    }
    e.status = *status;
    e.value_s = p.d("eval value");
    e.cost_s = p.d("eval cost");
    e.stopped_early = p.i("eval stopped flag") != 0;
    e.transient = p.i("eval transient flag") != 0;
    e.attempts = p.i("eval attempts");
    const std::uint64_t dims = p.u64("eval dims");
    e.unit.resize(dims);
    for (auto& u : e.unit) u = p.d("eval unit coordinate");
    p.done("eval");
    session.evaluations.push_back(std::move(e));
  } else if (kind == "degrade") {
    DegradeEvent event;
    event.iter = p.u64("degrade iteration");
    event.rung = std::string(p.token("degrade rung"));
    p.done("degrade");
    session.degrade_events.push_back(std::move(event));
  } else if (kind == "racing") {
    session.racing_mode = std::string(p.token("racing signature"));
    p.done("racing");
  } else if (kind == "kill") {
    KillEvent event;
    event.index = p.u64("kill index");
    const std::string_view reason_label = p.token("kill reason");
    const auto reason =
        sparksim::kill_reason_from_string(std::string(reason_label));
    if (!reason.has_value()) {
      p.fail("unknown kill reason: '" + std::string(reason_label) + "'");
    }
    event.reason = *reason;
    p.done("kill");
    session.kill_events.push_back(event);
  } else if (kind == "mode") {
    const std::string_view mode = p.token("session mode");
    if (mode != "external") {
      p.fail("malformed session mode: '" + std::string(mode) + "'");
    }
    session.external = true;
    p.done("mode");
  } else if (kind == "suggest") {
    SuggestRecord s;
    s.index = p.u64("suggest index");
    s.lease = p.u64("suggest lease");
    const std::uint64_t dims = p.u64("suggest dims");
    s.unit.resize(dims);
    for (auto& u : s.unit) u = p.d("suggest unit coordinate");
    p.done("suggest");
    session.suggests.push_back(std::move(s));
  } else if (kind == "observe_ack") {
    ObserveAck ack;
    ack.index = p.u64("observe_ack index");
    const std::string_view status_label = p.token("observe_ack status");
    const auto status =
        sparksim::run_status_from_string(std::string(status_label));
    if (!status.has_value()) {
      p.fail("unknown run status: '" + std::string(status_label) + "'");
    }
    ack.status = *status;
    ack.value_s = p.d("observe_ack value");
    ack.cost_s = p.d("observe_ack cost");
    p.done("observe_ack");
    session.observe_acks.push_back(ack);
  } else if (kind == "lease_expired") {
    LeaseExpiry expiry;
    expiry.index = p.u64("lease_expired index");
    expiry.lease = p.u64("lease_expired lease");
    p.done("lease_expired");
    session.lease_expiries.push_back(expiry);
  } else {
    p.fail("unknown record kind: '" + std::string(kind) + "'");
  }
}

bool fsync_file(const char* path) {
  const int fd = ::open(path, O_RDONLY);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

// fsyncs the directory containing `path` so the rename itself is durable.
bool fsync_parent(const std::string& path) {
  const auto slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  return fsync_file(dir.c_str());
}

}  // namespace

std::size_t canonicalize_journal(SessionCheckpoint& session) {
  auto& evals = session.evaluations;
  const std::size_t loaded = evals.size();
  std::stable_sort(evals.begin(), evals.end(),
                   [](const EvalRecord& a, const EvalRecord& b) {
                     return a.index < b.index;
                   });
  std::size_t keep = 0;
  while (keep < evals.size() && evals[keep].index == keep) ++keep;
  evals.resize(keep);
  // Kill events reference evaluations by index; events whose evaluation
  // fell past the replayable prefix describe work the resumed session
  // will redo (and re-journal), so they are pruned with it.
  auto& kills = session.kill_events;
  std::stable_sort(kills.begin(), kills.end(),
                   [](const KillEvent& a, const KillEvent& b) {
                     return a.index < b.index;
                   });
  kills.erase(std::remove_if(kills.begin(), kills.end(),
                             [keep](const KillEvent& k) {
                               return k.index >= keep;
                             }),
              kills.end());
  // A suggestion is resolved the moment its eval record lands; a crash
  // between the two flushes can leave both in the journal.  Prune the
  // resolved ones so the restored pending set is exactly the
  // suggestions the replayable prefix has NOT consumed.  (observe_acks
  // are deliberately untouched: the idempotency ledger outlives the
  // evaluations it acked.)
  auto& suggests = session.suggests;
  std::stable_sort(suggests.begin(), suggests.end(),
                   [](const SuggestRecord& a, const SuggestRecord& b) {
                     return a.index < b.index;
                   });
  suggests.erase(std::remove_if(suggests.begin(), suggests.end(),
                                [keep](const SuggestRecord& s) {
                                  return s.index < keep;
                                }),
                 suggests.end());
  return loaded - keep;
}

std::size_t save_state(const ParameterSelectionCache& selection,
                       const ConfigMemoizationBuffer& memo,
                       std::ostream& out) {
  out << kHeader << "\n";
  std::size_t records = 0;
  for (const auto& [workload, indices] : selection.entries()) {
    out << "selection " << workload << " " << indices.size();
    for (std::size_t idx : indices) out << " " << idx;
    out << "\n";
    ++records;
  }
  out.precision(17);
  for (const auto& [workload, configs] : memo.entries()) {
    for (const auto& config : configs) {
      out << "memo " << workload << " " << config.value_s << " "
          << config.unit.size();
      for (double u : config.unit) out << " " << u;
      out << "\n";
      ++records;
    }
  }
  return records;
}

std::size_t load_state(std::istream& in, ParameterSelectionCache& selection,
                       ConfigMemoizationBuffer& memo) {
  std::string line;
  require(static_cast<bool>(std::getline(in, line)),
          "load_state: empty stream");
  require(line == kHeader, "load_state: unrecognized header: " + line);
  std::size_t records = 0;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream row(line);
    std::string kind, workload;
    row >> kind >> workload;
    if (kind == "selection") {
      std::size_t count = 0;
      row >> count;
      std::vector<std::size_t> indices(count);
      for (auto& idx : indices) row >> idx;
      require(!row.fail(), "load_state: malformed selection row");
      selection.store(workload, std::move(indices));
      ++records;
    } else if (kind == "memo") {
      MemoizedConfig config;
      std::size_t dims = 0;
      row >> config.value_s >> dims;
      config.unit.resize(dims);
      for (auto& u : config.unit) row >> u;
      require(!row.fail(), "load_state: malformed memo row");
      memo.store(workload, std::move(config));
      ++records;
    } else {
      throw InvalidArgument("load_state: unknown record kind: " + kind);
    }
  }
  return records;
}

bool save_state_file(const ParameterSelectionCache& selection,
                     const ConfigMemoizationBuffer& memo,
                     const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  save_state(selection, memo, out);
  return static_cast<bool>(out);
}

bool load_state_file(const std::string& path,
                     ParameterSelectionCache& selection,
                     ConfigMemoizationBuffer& memo) {
  std::ifstream in(path);
  if (!in) return false;
  load_state(in, selection, memo);
  return true;
}

std::size_t save_session(const SessionCheckpoint& session,
                         std::ostream& out) {
  out << kSessionHeaderV3 << "\n";
  // Each record is built as a payload string first so its CRC and byte
  // length can frame it (common/frame.h).
  const auto record = [&out](auto&& fill) {
    std::ostringstream p;
    p.precision(17);
    fill(p);
    write_frame(out, std::move(p).str());
  };
  record([&](std::ostream& p) {
    p << "meta " << session.seed << " " << session.budget << " "
      << session.workload;
  });
  record([&](std::ostream& p) {
    p << "seeding " << (session.indexed_seeding ? "indexed" : "sequential");
  });
  // Only racing-active sessions carry the record: racing-off journals
  // stay byte-identical to those of releases without the racing layer.
  if (!session.racing_mode.empty() && session.racing_mode != "off") {
    record([&](std::ostream& p) {
      p << "racing " << session.racing_mode;
    });
  }
  record([&](std::ostream& p) {
    p << "selected " << session.selected.size();
    for (std::size_t idx : session.selected) p << " " << idx;
  });
  record([&](std::ostream& p) {
    p << "selection-draws " << session.selection_seed_draws;
  });
  record([&](std::ostream& p) {
    p << "selection-cost " << session.selection_cost_s;
  });
  for (const auto& config : session.memoized) {
    record([&](std::ostream& p) {
      p << "memo " << config.value_s << " " << config.unit.size();
      for (double u : config.unit) p << " " << u;
    });
  }
  for (const auto& e : session.evaluations) {
    record([&](std::ostream& p) {
      p << "eval " << e.index << " " << sparksim::to_string(e.status) << " "
        << e.value_s << " " << e.cost_s << " " << (e.stopped_early ? 1 : 0)
        << " " << (e.transient ? 1 : 0) << " " << e.attempts << " "
        << e.unit.size();
      for (double u : e.unit) p << " " << u;
    });
  }
  for (const auto& event : session.kill_events) {
    record([&](std::ostream& p) {
      p << "kill " << event.index << " "
        << sparksim::to_string(event.reason);
    });
  }
  for (const auto& event : session.degrade_events) {
    record([&](std::ostream& p) {
      p << "degrade " << event.iter << " " << event.rung;
    });
  }
  // External-only records come last and only for external sessions, so
  // internal-mode journals stay byte-identical to pre-external releases
  // (same contract as the `racing` record above).
  if (session.external) {
    record([&](std::ostream& p) { p << "mode external"; });
    for (const auto& s : session.suggests) {
      record([&](std::ostream& p) {
        p << "suggest " << s.index << " " << s.lease << " " << s.unit.size();
        for (double u : s.unit) p << " " << u;
      });
    }
    for (const auto& ack : session.observe_acks) {
      record([&](std::ostream& p) {
        p << "observe_ack " << ack.index << " "
          << sparksim::to_string(ack.status) << " " << ack.value_s << " "
          << ack.cost_s;
      });
    }
    for (const auto& expiry : session.lease_expiries) {
      record([&](std::ostream& p) {
        p << "lease_expired " << expiry.index << " " << expiry.lease;
      });
    }
  }
  return session.evaluations.size();
}

std::size_t load_session(std::istream& in, SessionCheckpoint& session) {
  return load_session(in, session, LoadMode::kStrict);
}

std::size_t load_session(std::istream& in, SessionCheckpoint& session,
                         LoadMode mode, SessionLoadReport* report,
                         const std::string& source) {
  SessionLoadReport local;
  SessionLoadReport& rep = report ? *report : local;
  rep = SessionLoadReport{};
  session = SessionCheckpoint{};

  std::string line;
  std::size_t line_no = 1;
  if (!std::getline(in, line)) {
    if (mode == LoadMode::kRecover) {
      rep.recovered = true;
      return 0;
    }
    throw InvalidArgument("load_session: " + source + ": empty stream");
  }
  int version = 0;
  if (line == kSessionHeaderV3) {
    version = 3;
  } else if (line == kSessionHeaderV2) {
    version = 2;
  } else if (line == kSessionHeaderV1) {
    version = 1;
  } else if (mode == LoadMode::kRecover) {
    // A header torn mid-write: nothing trustworthy follows.
    rep.recovered = true;
    ++rep.dropped_records;
    while (std::getline(in, line)) ++rep.dropped_records;
    return 0;
  } else {
    throw InvalidArgument("load_session: " + source +
                          ": unrecognized header: " + line);
  }
  rep.version = version;

  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    if (version == 3) {
      std::string_view record;
      std::string why;
      bool ok = unframe_line(line, record, why);
      if (ok) {
        RecordParser parser(record, source, line_no);
        if (mode == LoadMode::kRecover) {
          // A frame that passes CRC but fails to parse is still treated
          // as the corruption point: nothing after it can be trusted.
          // Parse against a scratch copy so a half-parsed record cannot
          // leave partially-mutated fields in the kept prefix.
          SessionCheckpoint scratch = session;
          try {
            parse_session_record(parser, /*v1=*/false, scratch);
            session = std::move(scratch);
          } catch (const InvalidArgument&) {
            ok = false;
          }
        } else {
          parse_session_record(parser, /*v1=*/false, session);
        }
      }
      if (!ok) {
        if (mode == LoadMode::kRecover) {
          rep.recovered = true;
          ++rep.dropped_records;
          while (std::getline(in, line)) ++rep.dropped_records;
          break;
        }
        throw InvalidArgument("load_session: " + source + ":" +
                              std::to_string(line_no) + ": " + why);
      }
    } else {
      // Legacy unframed journals carry no checksum, so corruption is not
      // reliably detectable: parse strictly regardless of mode.
      RecordParser parser(line, source, line_no);
      parse_session_record(parser, version == 1, session);
    }
  }
  rep.evaluations = session.evaluations.size();
  return session.evaluations.size();
}

bool save_session_file(const SessionCheckpoint& session,
                       const std::string& path, SyncPolicy sync) {
  // Chaos site: a simulated I/O error leaves the previous checkpoint (if
  // any) untouched, exactly like a failed open would.
  if (chaos::fail(chaos::Site::kJournalWrite)) return false;
  // Write-then-rename so a crash mid-write never corrupts an existing
  // checkpoint: resume either sees the old journal or the new one.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp);
    if (!out) return false;
    save_session(session, out);
    out.flush();
    if (!out) return false;
  }
  if (sync == SyncPolicy::kFsync && !fsync_file(tmp.c_str())) return false;
  if (std::rename(tmp.c_str(), path.c_str()) != 0) return false;
  if (sync == SyncPolicy::kFsync && !fsync_parent(path)) return false;
  return true;
}

bool load_session_file(const std::string& path, SessionCheckpoint& session,
                       LoadMode mode, SessionLoadReport* report) {
  std::ifstream in(path);
  if (!in) return false;
  load_session(in, session, mode, report, path);
  return true;
}

}  // namespace robotune::core
