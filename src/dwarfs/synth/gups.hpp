// GUPS-like random-access probe (extra application, not part of the
// paper's eight).
//
// Giga-updates-per-second: read-modify-write of random 8-byte words over a
// large table.  On NVM this is the worst case the device can see — random
// sub-media-granularity reads *and* writes — and it cleanly exposes the
// latency and write-amplification corners of the device model.  FoM is
// MUPS (million updates per second).
//
// Real numerics: the classic XOR-update over an actual table with the
// verifiable property that re-applying the same update stream restores
// the initial table.
#pragma once

#include "appfw/app.hpp"

namespace nvms {

struct GupsParams {
  std::uint64_t virtual_words = 8'000'000;  ///< 8B words in the table
  std::size_t real_words = 1 << 16;
  std::uint64_t updates = 4'000'000;
  int batches = 16;
  double mlp = 4.0;  ///< independent update chains in flight

  static GupsParams from(const AppConfig& cfg);
};

class GupsApp final : public App {
 public:
  std::string name() const override { return "gups"; }
  std::string dwarf() const override { return "Synthetic (latency probe)"; }
  std::string input_problem() const override {
    return "random 8B XOR updates over a 64 MB table";
  }
  double host(const AppConfig& cfg) const override;
  AppResult emit(AppContext& ctx) const override;
};

}  // namespace nvms
