#include "core/persistence.h"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <sstream>
#include <string_view>

#include "common/chaos.h"
#include "common/error.h"
#include "common/frame.h"
#include "obs/durable_file.h"

namespace robotune::core {

namespace {
constexpr const char* kHeader = "robotune-state v1";
constexpr const char* kSessionHeader = "robotune-session v3";

// Whitespace tokenizer over one record payload.  Every numeric
// conversion goes through std::from_chars with a full-token-consumption
// check, so a malformed field surfaces as InvalidArgument (read_framed
// adds the file and line) instead of an uncaught std::invalid_argument or
// a silently truncated value.
class RecordParser {
 public:
  explicit RecordParser(std::string_view payload) : payload_(payload) {}

  [[noreturn]] void fail(const std::string& what) const {
    throw InvalidArgument(what);
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

  template <typename T>
  T number(const char* field) {
    const std::string_view t = token(field);
    T value{};
    const auto [ptr, ec] =
        std::from_chars(t.data(), t.data() + t.size(), value);
    if (ec != std::errc() || ptr != t.data() + t.size()) {
      fail(std::string("malformed ") + field + " field: '" + std::string(t) +
           "'");
    }
    return value;
  }
  std::uint64_t u64(const char* field) { return number<std::uint64_t>(field); }
  int i(const char* field) { return number<int>(field); }
  double d(const char* field) { return number<double>(field); }

  // `n` items read by `item`, where `n` is a count from the payload.  The
  // vector grows with the tokens actually present, so a count promising
  // more than the payload holds fails at the first missing token instead
  // of sizing an allocation from the record.
  template <typename Item>
  auto list(std::uint64_t n, Item&& item) {
    std::vector<decltype(item())> out;
    // Each token takes at least two bytes: a separator and a character.
    out.reserve(std::min<std::uint64_t>(n, (payload_.size() - pos_ + 1) / 2));
    while (out.size() < n) out.push_back(item());
    return out;
  }

  void done(const char* record) {
    skip_spaces();
    if (pos_ < payload_.size()) {
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
  std::size_t pos_ = 0;
};

sparksim::RunStatus run_status(RecordParser& p, const char* field) {
  const std::string_view label = p.token(field);
  const auto status = sparksim::run_status_from_string(std::string(label));
  if (!status.has_value()) {
    p.fail("unknown run status: '" + std::string(label) + "'");
  }
  return *status;
}

std::vector<double> unit(RecordParser& p, const char* dims_field,
                         const char* field) {
  return p.list(p.u64(dims_field), [&] { return p.d(field); });
}

// Parses one session record payload.  Fields are read into locals and
// the checkpoint changes only after the whole record parsed, so a
// rejected record leaves the kept prefix exactly as it was.
void parse_session_record(std::string_view payload,
                          SessionCheckpoint& session) {
  RecordParser p(payload);
  const std::string_view kind = p.token("record kind");
  if (kind == "meta") {
    const std::uint64_t seed = p.u64("seed");
    const int budget = p.i("budget");
    std::string workload(p.token("workload"));
    p.done("meta");
    session.seed = seed;
    session.budget = budget;
    session.workload = std::move(workload);
  } else if (kind == "seeding") {
    const std::string_view mode = p.token("seeding mode");
    if (mode != "sequential" && mode != "indexed") {
      p.fail("malformed seeding mode: '" + std::string(mode) + "'");
    }
    p.done("seeding");
    session.indexed_seeding = mode == "indexed";
  } else if (kind == "selected") {
    auto selected = p.list(p.u64("selected count"), [&] {
      return static_cast<std::size_t>(p.u64("selected index"));
    });
    p.done("selected");
    session.selected = std::move(selected);
  } else if (kind == "selection-draws") {
    p.u64("selection-draws");  // written by older releases; replays nothing
    p.done("selection-draws");
  } else if (kind == "selection-cost") {
    const double cost = p.d("selection-cost");
    p.done("selection-cost");
    session.selection_cost_s = cost;
  } else if (kind == "memo") {
    MemoizedConfig config;
    config.value_s = p.d("memo value");
    config.unit = unit(p, "memo dims", "memo unit coordinate");
    p.done("memo");
    session.memoized.push_back(std::move(config));
  } else if (kind == "eval") {
    EvalRecord e;
    e.index = p.u64("eval index");
    e.status = run_status(p, "eval status");
    e.value_s = p.d("eval value");
    e.cost_s = p.d("eval cost");
    e.stopped_early = p.i("eval stopped flag") != 0;
    e.transient = p.i("eval transient flag") != 0;
    e.attempts = p.i("eval attempts");
    e.unit = unit(p, "eval dims", "eval unit coordinate");
    p.done("eval");
    session.evaluations.push_back(std::move(e));
  } else if (kind == "degrade") {
    DegradeEvent event;
    event.iter = p.u64("degrade iteration");
    event.rung = std::string(p.token("degrade rung"));
    p.done("degrade");
    session.degrade_events.push_back(std::move(event));
  } else if (kind == "racing") {
    std::string signature(p.token("racing signature"));
    p.done("racing");
    session.racing_mode = std::move(signature);
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
    p.done("mode");
    session.external = true;
  } else if (kind == "suggest") {
    SuggestRecord s;
    s.index = p.u64("suggest index");
    s.lease = p.u64("suggest lease");
    s.unit = unit(p, "suggest dims", "suggest unit coordinate");
    p.done("suggest");
    session.suggests.push_back(std::move(s));
  } else if (kind == "observe_ack") {
    ObserveAck ack;
    ack.index = p.u64("observe_ack index");
    ack.status = run_status(p, "observe_ack status");
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

namespace {

// Up to `count` values from `row`.  The vector grows with the values
// actually present, so a count the row does not hold fails the stream at
// the first missing value instead of sizing an allocation from the file.
template <typename T>
std::vector<T> read_values(std::istream& row, std::size_t count) {
  std::vector<T> values;
  T value{};
  while (values.size() < count && row >> value) values.push_back(value);
  return values;
}

}  // namespace

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
      auto indices = read_values<std::size_t>(row, count);
      require(!row.fail(), "load_state: malformed selection row");
      selection.store(workload, std::move(indices));
      ++records;
    } else if (kind == "memo") {
      MemoizedConfig config;
      std::size_t dims = 0;
      row >> config.value_s >> dims;
      config.unit = read_values<double>(row, dims);
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
  return obs::write_file_atomically(
      path, [&](std::ostream& out) { save_state(selection, memo, out); });
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
  out << kSessionHeader << "\n";
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

FramedReadReport read_framed(
    std::istream& in, std::string_view header, LoadMode mode,
    std::string_view what, const std::string& source,
    const std::function<void(std::string_view payload)>& parse) {
  FramedReadReport report;
  std::string line;
  std::string why;
  std::size_t line_no = 0;
  while (why.empty() && std::getline(in, line)) {
    ++line_no;
    std::string_view payload;
    if (in.eof()) {
      why = "torn line (no trailing newline)";
    } else if (line_no == 1) {
      report.header_ok = line == header;
      if (!report.header_ok) why = "unrecognized header: " + line;
    } else if (unframe_line(line, payload, why)) {
      try {
        parse(payload);
      } catch (const InvalidArgument& e) {
        why = e.what();
      }
    }
    if (why.empty()) report.valid_bytes += line.size() + 1;
  }
  if (mode == LoadMode::kStrict && (line_no == 0 || !why.empty())) {
    const std::string at = std::string(what) + ": " + source;
    if (line_no == 0) throw InvalidArgument(at + ": empty stream");
    throw InvalidArgument(at + ":" + std::to_string(line_no) + ": " + why);
  }
  if (why.empty()) return report;
  // Nothing after the first bad line can be trusted.
  report.dropped = 1;
  while (std::getline(in, line)) ++report.dropped;
  return report;
}

std::size_t load_session(std::istream& in, SessionCheckpoint& session,
                         LoadMode mode, SessionLoadReport* report,
                         const std::string& source) {
  if (report != nullptr) *report = SessionLoadReport{};
  session = SessionCheckpoint{};
  const FramedReadReport framed = read_framed(
      in, kSessionHeader, mode, "load_session", source,
      [&session](std::string_view payload) {
        parse_session_record(payload, session);
      });
  if (report != nullptr) {
    report->evaluations = session.evaluations.size();
    report->dropped_records = framed.dropped;
    // An empty or torn header makes the file unusable, not a journal.
    report->recovered = !framed.header_ok || framed.dropped > 0;
    report->version = framed.header_ok ? 3 : 0;
  }
  return session.evaluations.size();
}

bool save_session_file(const SessionCheckpoint& session,
                       const std::string& path, SyncPolicy sync) {
  // Chaos site: a simulated I/O error leaves the previous checkpoint (if
  // any) untouched, exactly like a failed write would.
  if (chaos::fail(chaos::Site::kJournalWrite)) return false;
  return obs::write_file_atomically(
      path, [&](std::ostream& out) { save_session(session, out); },
      sync == SyncPolicy::kFsync);
}

bool load_session_file(const std::string& path, SessionCheckpoint& session,
                       LoadMode mode, SessionLoadReport* report) {
  std::ifstream in(path);
  if (!in) return false;
  load_session(in, session, mode, report, path);
  return true;
}

}  // namespace robotune::core
