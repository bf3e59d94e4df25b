// STREAM-like synthetic workload (extra application, not part of the
// paper's eight).
//
// The classic copy/scale/add/triad kernels with configurable array size:
// a pure sequential-bandwidth probe that is handy for validating memory
// configurations, demonstrating the API, and calibrating device models.
// FoM is the triad bandwidth (higher is better).
//
// Real numerics: actual STREAM kernels run on host arrays and are
// verified against the analytically-known result.
#pragma once

#include "appfw/app.hpp"

namespace nvms {

struct StreamParams {
  std::uint64_t virtual_elems = 2'500'000;  ///< per array (3 arrays)
  std::size_t real_elems = 1 << 16;
  int repetitions = 20;
  double scalar = 3.0;

  static StreamParams from(const AppConfig& cfg);
};

class StreamApp final : public App {
 public:
  std::string name() const override { return "stream"; }
  std::string dwarf() const override { return "Synthetic (bandwidth probe)"; }
  std::string input_problem() const override {
    return "STREAM copy/scale/add/triad over three arrays";
  }
  double host(const AppConfig& cfg) const override;
  AppResult emit(AppContext& ctx) const override;
};

}  // namespace nvms
