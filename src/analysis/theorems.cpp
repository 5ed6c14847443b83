// The entry points of Theorems 1–3 (analysis/dp.hpp, gn1.hpp, gn2.hpp):
// *_test fills a report through the SoA kernels, *_test_exact evaluates
// exactly.

#include "analysis/detail/evaluators.hpp"
#include "analysis/detail/kernels.hpp"
#include "analysis/detail/scratch.hpp"
#include "analysis/dp.hpp"
#include "analysis/gn1.hpp"
#include "analysis/gn2.hpp"

namespace reconf::analysis {

namespace {

/// `kernel`'s report over a scratch of its own, bound to `ts`: never the
/// thread's decide() arena, which a caller may have bound to another set.
template <class Kernel, class Options>
TestReport kernel_report(Kernel kernel, const TaskSet& ts, Device device,
                         const Options& options) {
  detail::AnalysisScratch scratch;
  scratch.build(ts);
  TestReport report;
  (void)kernel(scratch, device, options, &report);
  return report;
}

}  // namespace

TestReport dp_test(const TaskSet& ts, Device device,
                   const DpOptions& options) {
  return kernel_report(detail::dp_fast, ts, device, options);
}

TestReport dp_test_exact(const TaskSet& ts, Device device,
                         const DpOptions& options) {
  return detail::dp_exact(ts, device, options);
}

TestReport gn1_test(const TaskSet& ts, Device device,
                    const Gn1Options& options) {
  return kernel_report(detail::gn1_fast, ts, device, options);
}

TestReport gn1_test_exact(const TaskSet& ts, Device device,
                          const Gn1Options& options) {
  return detail::gn1_exact(ts, device, options);
}

TestReport gn2_test(const TaskSet& ts, Device device,
                    const Gn2Options& options) {
  return kernel_report(detail::gn2_fast, ts, device, options);
}

TestReport gn2_test_exact(const TaskSet& ts, Device device,
                          const Gn2Options& options) {
  return detail::gn2_exact(ts, device, options);
}

}  // namespace reconf::analysis
