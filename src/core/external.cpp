#include "core/external.h"

#include <algorithm>
#include <cmath>

#include "core/bo_engine.h"

namespace robotune::core {

bool same_observation(const ExternalObservation& a,
                      const ExternalObservation& b) {
  return a.value_s == b.value_s && a.cost_s == b.cost_s &&
         a.status == b.status;
}

const char* to_string(TellVerdict verdict) noexcept {
  switch (verdict) {
    case TellVerdict::kAccepted:
      return "accepted";
    case TellVerdict::kDuplicate:
      return "duplicate";
    case TellVerdict::kConflict:
      return "conflict";
    case TellVerdict::kUnknown:
      return "unknown";
  }
  return "unknown";
}

tuners::Evaluation funnel_external(const std::vector<double>& unit,
                                   const ExternalObservation& o,
                                   double threshold) {
  tuners::Evaluation e;
  e.unit = unit;
  e.value_s = o.value_s;
  e.cost_s = o.cost_s;
  e.status = o.status;
  e.attempts = 1;
  switch (o.status) {
    case sparksim::RunStatus::kOk:
      if (std::isfinite(e.value_s) && threshold > 0.0 &&
          e.value_s >= threshold) {
        e.value_s = threshold;
        e.stopped_early = true;
      }
      break;
    case sparksim::RunStatus::kTimeLimit:
      if (threshold > 0.0) e.value_s = threshold;
      e.stopped_early = true;
      break;
    case sparksim::RunStatus::kOom:
    case sparksim::RunStatus::kInfeasible:
      e.value_s = (threshold > 0.0 ? threshold : 600.0) * 1.05;
      break;
    case sparksim::RunStatus::kExecutorLost:
    case sparksim::RunStatus::kFetchFailure:
    case sparksim::RunStatus::kPreempted:
    case sparksim::RunStatus::kKilled:
      if (threshold > 0.0) e.value_s = threshold;
      e.transient = true;
      break;
  }
  return e;
}

void ExternalBridge::bind(SessionLog* log) {
  restore(log != nullptr ? log->state : SessionCheckpoint{});
  std::lock_guard<std::mutex> lock(mu_);
  log_ = log;
}

void ExternalBridge::restore(const SessionCheckpoint& state) {
  std::lock_guard<std::mutex> lock(mu_);
  acks_.clear();
  next_lease_ = 1;
  for (const auto& ack : state.observe_acks) {
    acks_[ack.index] =
        ExternalObservation{ack.value_s, ack.cost_s, ack.status};
  }
  // Lease ids stay monotonic across restarts: resume past the largest
  // id any journal record ever carried.  The leases themselves are
  // void (deadlines were relative to the dead daemon's clock).
  for (const auto& s : state.suggests) {
    next_lease_ = std::max(next_lease_, s.lease + 1);
  }
  for (const auto& e : state.lease_expiries) {
    next_lease_ = std::max(next_lease_, e.lease + 1);
  }
}

void ExternalBridge::flush_journal() {
  if (log_ != nullptr && log_->flush) log_->flush(log_->state);
}

SuggestRecord* ExternalBridge::find_suggest(std::uint64_t index) {
  if (log_ == nullptr) return nullptr;
  for (auto& record : log_->state.suggests) {
    if (record.index == index) return &record;
  }
  return nullptr;
}

ExternalBridge::Slot* ExternalBridge::find_slot(std::uint64_t index) {
  for (auto& slot : round_) {
    if (slot.index == index) return &slot;
  }
  return nullptr;
}

bool ExternalBridge::all_delivered() const {
  return std::all_of(round_.begin(), round_.end(),
                     [](const Slot& s) { return s.delivered; });
}

bool ExternalBridge::publish(const std::vector<std::vector<double>>& points,
                             std::uint64_t first_index) {
  std::lock_guard<std::mutex> lock(mu_);
  round_.clear();
  bool journal_dirty = false;
  for (std::size_t i = 0; i < points.size(); ++i) {
    Slot slot;
    slot.index = first_index + i;
    slot.unit = points[i];
    const auto it = acks_.find(slot.index);
    if (it != acks_.end()) {
      // Already observed (ack journaled before the crash, eval record
      // not yet): resolve immediately, no new lease cycle.
      slot.delivered = true;
      slot.obs = it->second;
    } else if (log_ != nullptr) {
      // Reuse the suggest record a previous process journaled for this
      // index (keeps its last lease id); journal a fresh one otherwise.
      if (const SuggestRecord* existing = find_suggest(slot.index)) {
        slot.lease = existing->lease;
      } else {
        SuggestRecord record;
        record.index = slot.index;
        record.unit = slot.unit;
        log_->state.suggests.push_back(std::move(record));
        journal_dirty = true;
      }
    }
    round_.push_back(std::move(slot));
  }
  // The pending set must hit disk before any lease can be granted —
  // otherwise a kill -9 between grant and journal double-issues the
  // suggestion after restart.  Publication (round_active_) happens
  // under the same lock hold, so lease() can never observe the round
  // before its journal record exists.
  if (journal_dirty) flush_journal();
  round_active_ = true;
  return all_delivered();
}

bool ExternalBridge::collect(std::vector<ExternalObservation>& out) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!round_active_ || !all_delivered()) return false;
  out.clear();
  out.reserve(round_.size());
  for (const auto& slot : round_) out.push_back(slot.obs);
  round_active_ = false;
  round_.clear();
  return true;
}

void ExternalBridge::close() {
  std::lock_guard<std::mutex> lock(mu_);
  // An unresolved round's suggests stay journaled; its late tells find
  // nothing to resolve.
  round_active_ = false;
  round_.clear();
}

std::vector<LeaseGrant> ExternalBridge::lease(std::size_t max_count,
                                              std::uint64_t now,
                                              std::uint64_t timeout_ticks) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<LeaseGrant> grants;
  if (!round_active_) return grants;
  bool journal_dirty = false;
  for (auto& slot : round_) {
    if (grants.size() >= max_count) break;
    if (slot.delivered || slot.leased) continue;
    slot.lease = next_lease_++;
    slot.leased = true;
    slot.deadline = now + timeout_ticks;
    if (SuggestRecord* record = find_suggest(slot.index)) {
      record->lease = slot.lease;
      journal_dirty = true;
    }
    LeaseGrant grant;
    grant.index = slot.index;
    grant.lease = slot.lease;
    grant.deadline = slot.deadline;
    grant.unit = slot.unit;
    grants.push_back(std::move(grant));
  }
  // Journal the issued ids before the grants leave the process so a
  // restart never re-issues a lease id.
  if (journal_dirty) flush_journal();
  return grants;
}

ExternalBridge::TellResult ExternalBridge::tell(
    std::uint64_t index, const ExternalObservation& obs) {
  std::lock_guard<std::mutex> lock(mu_);
  TellResult result;
  const auto acked = acks_.find(index);
  if (acked != acks_.end()) {
    result.recorded = acked->second;
    result.verdict = same_observation(obs, acked->second)
                         ? TellVerdict::kDuplicate
                         : TellVerdict::kConflict;
    return result;
  }
  Slot* slot = round_active_ ? find_slot(index) : nullptr;
  if (slot == nullptr) {
    result.verdict = TellVerdict::kUnknown;
    return result;
  }
  slot->obs = obs;
  slot->delivered = true;
  acks_[index] = obs;
  result.resolved = all_delivered();
  if (log_ != nullptr) {
    ObserveAck ack;
    ack.index = index;
    ack.status = obs.status;
    ack.value_s = obs.value_s;
    ack.cost_s = obs.cost_s;
    log_->state.observe_acks.push_back(ack);
    // The ack must be durable before the client hears it: a re-sent
    // observe after our crash has to find the record.
    flush_journal();
  }
  result.verdict = TellVerdict::kAccepted;
  result.recorded = obs;
  return result;
}

std::vector<LeaseExpiry> ExternalBridge::reap(std::uint64_t now) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<LeaseExpiry> expired;
  if (!round_active_) return expired;
  for (auto& slot : round_) {
    if (slot.delivered || !slot.leased || now < slot.deadline) continue;
    slot.leased = false;
    LeaseExpiry expiry;
    expiry.index = slot.index;
    expiry.lease = slot.lease;
    if (log_ != nullptr) log_->state.lease_expiries.push_back(expiry);
    expired.push_back(expiry);
  }
  if (!expired.empty()) flush_journal();
  return expired;
}

std::size_t ExternalBridge::pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (!round_active_) return 0;
  return static_cast<std::size_t>(
      std::count_if(round_.begin(), round_.end(),
                    [](const Slot& s) { return !s.delivered; }));
}

std::size_t ExternalBridge::leased(std::uint64_t now) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (!round_active_) return 0;
  return static_cast<std::size_t>(std::count_if(
      round_.begin(), round_.end(), [now](const Slot& s) {
        return !s.delivered && s.leased && now < s.deadline;
      }));
}

}  // namespace robotune::core
