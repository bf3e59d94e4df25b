#include "dwarfs/synth/gups.hpp"

#include <vector>

#include "appfw/result.hpp"
#include "simcore/rng.hpp"

namespace nvms {

GupsParams GupsParams::from(const AppConfig& cfg) {
  GupsParams p;
  p.virtual_words = static_cast<std::uint64_t>(
      static_cast<double>(p.virtual_words) * cfg.size_scale);
  p.updates = static_cast<std::uint64_t>(
      static_cast<double>(p.updates) * cfg.size_scale);
  if (cfg.iterations > 0) p.batches = cfg.iterations;
  return p;
}

double GupsApp::host(const AppConfig& cfg) const {
  const auto p = GupsParams::from(cfg);
  // XOR updates are self-inverse: the table sum after applying the stream
  // twice must equal the initial sum.
  std::vector<std::uint64_t> table(p.real_words);
  for (std::size_t i = 0; i < p.real_words; ++i) {
    table[i] = 0x1234'5678'9ABC'DEF0ull ^ (static_cast<std::uint64_t>(i) << 17);
  }
  std::uint64_t initial_sum = 0;
  for (std::size_t i = 0; i < p.real_words; ++i) initial_sum += table[i];

  const std::uint64_t real_updates = 4 * p.real_words;
  auto apply_stream = [&](std::uint64_t seed) {
    Rng rng(seed);
    for (std::uint64_t u = 0; u < real_updates; ++u) {
      const std::uint64_t idx = rng.below(p.real_words);
      table[idx] ^= rng() | 1;
    }
  };
  apply_stream(p.updates);
  apply_stream(p.updates);  // second pass restores the table
  std::uint64_t final_sum = 0;
  for (std::size_t i = 0; i < p.real_words; ++i) final_sum += table[i];
  // 0 when the XOR stream round-tripped correctly.
  return static_cast<double>(final_sum - initial_sum);
}

AppResult GupsApp::emit(AppContext& ctx) const {
  const auto p = GupsParams::from(ctx.cfg());
  auto table = ctx.alloc<std::uint64_t>("gups_table", p.virtual_words);

  // Each update is a random 8B read-modify-write: one 64B line in, one
  // 64B line out, at sub-media granularity.
  const std::uint64_t per_batch = p.updates / p.batches;
  for (int b = 0; b < p.batches; ++b) {
    ctx.run(PhaseBuilder("update")
                .threads(ctx.cfg().threads)
                .flops(3.0 * static_cast<double>(per_batch))
                .mlp(p.mlp)
                .stream(rand_read(table.id(), per_batch * 64).with_granule(64))
                .stream(rand_write(table.id(), per_batch * 64).with_granule(64))
                .build());
  }

  AppResult r = finalize_result(ctx, name());
  r.fom = static_cast<double>(p.updates) / r.runtime / 1e6;
  r.fom_unit = "MUPS";
  r.higher_is_better = true;
  return r;
}

}  // namespace nvms
