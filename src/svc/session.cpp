#include "svc/session.hpp"

#include <utility>
#include <vector>

#include "common/contracts.hpp"

namespace reconf::svc {

AdmissionSession::AdmissionSession(Device device,
                                   const analysis::AnalysisEngine& engine)
    : device_(device), engine_(&engine) {
  RECONF_EXPECTS(device.valid());
  rows_.reserve(kReservedRows);
}

const analysis::AnalysisEngine& AdmissionSession::default_engine() {
  static const analysis::AnalysisEngine engine(analysis::fast_any_request());
  return engine;
}

AdmissionDecision AdmissionSession::try_admit(const Task& t) {
  AdmissionDecision out;
  const char* why = width_domain_error(device_.width);
  if (why == nullptr) {
    why = task_domain_error(t.wcet, t.deadline, t.period, t.area);
  }
  if (why != nullptr) {
    out.error = why;
    return out;
  }

  rows_.push(t);
  const analysis::Decision decision = engine_->decide(rows_, device_);
  out.admitted = decision.accepted();
  out.accepted_by = std::string(decision.accepted_by);
  if (!out.admitted) {
    rows_.pop();
    return out;
  }
  admitted_.append(t);
  return out;
}

bool AdmissionSession::remove(const Task& t) {
  for (auto it = admitted_.begin(); it != admitted_.end(); ++it) {
    if (it->wcet == t.wcet && it->deadline == t.deadline &&
        it->period == t.period && it->area == t.area && it->name == t.name) {
      std::vector<Task> rest(admitted_.begin(), it);
      rest.insert(rest.end(), it + 1, admitted_.end());
      admitted_ = TaskSet(std::move(rest));
      rows_.build(admitted_);
      return true;
    }
  }
  return false;
}

}  // namespace reconf::svc
