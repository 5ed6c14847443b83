#pragma once

// Integer division helpers with mathematical (floor) semantics. C++ integer
// division truncates toward zero, which is wrong for the negative numerators
// that show up in the analysis window counts (N_i = ⌊(D_k − D_i)/T_i⌋ + 1
// with D_k < D_i). Shared by the exact evaluators, the SoA kernels, mp/
// and analysis/workload.cpp — one definition, one set of tests.

#include <cstdint>

#include "common/contracts.hpp"

namespace reconf::math {

/// ⌊num / den⌋ for den > 0, correct for negative numerators.
[[nodiscard]] constexpr std::int64_t floor_div(std::int64_t num,
                                               std::int64_t den) {
  RECONF_EXPECTS(den > 0);
  std::int64_t q = num / den;
  if (num % den != 0 && num < 0) --q;
  return q;
}

}  // namespace reconf::math
