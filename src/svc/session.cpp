#include "svc/session.hpp"

#include <utility>

#include "common/contracts.hpp"
#include "svc/batch.hpp"

namespace reconf::svc {

AdmissionSession::AdmissionSession(Device device, VerdictCache* cache,
                                   analysis::AnalysisRequest request)
    : device_(device), cache_(cache), engine_(std::move(request)) {
  RECONF_EXPECTS(device.valid());
}

AdmissionDecision AdmissionSession::try_admit(const Task& t) {
  ++stats_.attempts;

  std::vector<Task> candidate = admitted_;
  candidate.push_back(t);
  const TaskSet trial{std::move(candidate)};

  AdmissionDecision out;
  out.hash = verdict_cache_key(trial, device_, engine_);

  if (cache_ != nullptr) {
    if (auto cached = cache_->lookup(out.hash)) {
      out.cache_hit = true;
      out.admitted = cached->accepted;
      out.accepted_by = std::move(cached->accepted_by);
    }
  }
  if (!out.cache_hit) {
    if (!engine_.request().diagnostics) {
      // Fast mode: decide through the SoA kernels; no AnalysisReport.
      const analysis::Decision decision = engine_.decide(trial, device_);
      out.admitted = decision.accepted();
      out.accepted_by = std::string(decision.accepted_by);
    } else {
      auto report = engine_.run(trial, device_);
      out.admitted = report.accepted();
      out.accepted_by = report.accepted_by();
      out.report = std::move(report);
    }
    if (cache_ != nullptr) {
      cache_->insert(out.hash, CachedVerdict{out.admitted, out.accepted_by});
    }
  }

  if (out.admitted) {
    admitted_.push_back(t);
    ++stats_.admitted;
  } else {
    ++stats_.rejected;
  }
  if (out.cache_hit) ++stats_.cache_hits;
  return out;
}

bool AdmissionSession::remove(const Task& t) {
  for (std::size_t i = 0; i < admitted_.size(); ++i) {
    const Task& a = admitted_[i];
    if (a.wcet == t.wcet && a.deadline == t.deadline &&
        a.period == t.period && a.area == t.area && a.name == t.name) {
      return remove_at(i);
    }
  }
  return false;
}

bool AdmissionSession::remove_at(std::size_t index) {
  if (index >= admitted_.size()) return false;
  admitted_.erase(admitted_.begin() +
                  static_cast<std::ptrdiff_t>(index));
  ++stats_.removals;
  return true;
}

}  // namespace reconf::svc
