#include "svc/session.hpp"

#include <utility>
#include <vector>

#include "common/contracts.hpp"

namespace reconf::svc {

AdmissionSession::AdmissionSession(Device device,
                                   analysis::AnalysisRequest request)
    : device_(device), engine_(std::move(request)) {
  RECONF_EXPECTS(device.valid());
}

AdmissionDecision AdmissionSession::try_admit(const Task& t) {
  std::vector<Task> tasks;
  tasks.reserve(admitted_.size() + 1);
  tasks.assign(admitted_.begin(), admitted_.end());
  tasks.push_back(t);
  TaskSet candidate{std::move(tasks)};

  const analysis::Decision decision = engine_.decide(candidate, device_);
  AdmissionDecision out;
  out.admitted = decision.accepted();
  out.accepted_by = std::string(decision.accepted_by);
  if (out.admitted) admitted_ = std::move(candidate);
  return out;
}

bool AdmissionSession::remove(const Task& t) {
  for (auto it = admitted_.begin(); it != admitted_.end(); ++it) {
    if (it->wcet == t.wcet && it->deadline == t.deadline &&
        it->period == t.period && it->area == t.area && it->name == t.name) {
      std::vector<Task> rest(admitted_.begin(), it);
      rest.insert(rest.end(), it + 1, admitted_.end());
      admitted_ = TaskSet(std::move(rest));
      return true;
    }
  }
  return false;
}

}  // namespace reconf::svc
