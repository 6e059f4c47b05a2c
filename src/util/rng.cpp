#include "util/rng.hpp"

#include <cmath>

namespace sharegrid {

double Rng::exponential(double mean) {
  SHAREGRID_EXPECTS(mean > 0.0);
  // Inverse-CDF; 1 - uniform() is in (0, 1] so log() is finite.
  return -mean * std::log(1.0 - uniform());
}

}  // namespace sharegrid
