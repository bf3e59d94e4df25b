#include "memsim/resolve_cache.hpp"

#include <algorithm>
#include <cstring>

namespace nvms {

const char* to_string(ResolveCacheMode m) {
  switch (m) {
    case ResolveCacheMode::kOff:
      return "off";
    case ResolveCacheMode::kShared:
      return "shared";
  }
  return "?";
}

std::optional<ResolveCacheMode> parse_resolve_cache_mode(
    const std::string& s) {
  if (s == "off") return ResolveCacheMode::kOff;
  if (s == "shared") return ResolveCacheMode::kShared;
  return std::nullopt;
}

void ResolveKey::add_double(double v) {
  if (v == 0.0) v = 0.0;  // collapse -0.0 and +0.0 to one bit pattern
  std::uint64_t bits;
  static_assert(sizeof bits == sizeof v);
  std::memcpy(&bits, &v, sizeof bits);
  add_word(bits);
}

namespace {

/// Fold a short label into the key, 8 chars per word.  Labels are
/// cosmetic for the resolution but name the telemetry channels, so
/// differently-labeled lanes do not share an entry.
void add_label(ResolveKey& key, const char* s) {
  if (s == nullptr) {
    key.add_word(0);
    return;
  }
  std::uint64_t w = 0;
  int n = 0;
  for (; *s != '\0'; ++s) {
    w = (w << 8) | static_cast<unsigned char>(*s);
    if (++n == 8) {
      key.add_word(w);
      w = 0;
      n = 0;
    }
  }
  key.add_word(w ^ (static_cast<std::uint64_t>(n) << 56));
}

void add_curve(ResolveKey& key, const ScalingCurve& curve) {
  const auto& pts = curve.points();
  key.add_word(pts.size());
  for (const auto& [threads, frac] : pts) {
    key.add_double(threads);
    key.add_double(frac);
  }
}

/// Every DeviceParams field resolve_lanes() consults, and nothing else —
/// capacity, unused latencies, name and kind are excluded so equivalent
/// effective devices share entries.  Keep in sync with
/// DeviceParams::{read,write}_capacity / latency_limited_read_bw and the
/// WPQ/throttle coupling in resolve.cpp.
void add_device(ResolveKey& key, const DeviceParams& dev) {
  key.add_double(dev.read_lat_rand);  // latency-limited random reads
  key.add_double(dev.read_bw_peak);
  key.add_double(dev.write_bw_peak);
  key.add_double(dev.combined_bw_peak);
  key.add_double(dev.strided_read_eff);
  key.add_double(dev.random_small_read_eff);
  key.add_double(dev.random_large_read_eff);
  key.add_double(dev.strided_write_eff);
  key.add_double(dev.random_small_write_eff);
  key.add_double(dev.random_large_write_eff);
  key.add_double(dev.throttle_alpha);
  key.add_double(dev.throttle_gamma);
  key.add_word(static_cast<std::uint64_t>(dev.wpq_entries));
  key.add_double(dev.wpq_seq_combining);
  add_curve(key, dev.read_scaling);
  add_curve(key, dev.write_scaling);
}

}  // namespace

ResolveKey make_resolve_key(const Phase& phase,
                            const std::vector<LaneDemand>& lanes,
                            const CpuParams& cpu, double upi_bytes,
                            double upi_bw) {
  ResolveKey key;
  // Phase timing fields, normalized: concurrency clamps to the physical
  // hardware-thread count exactly as the resolver bills it, so phases at
  // max_threads and beyond share one entry.  `name` and `streams` never
  // reach the resolver and are excluded — two equally-shaped phases with
  // different names must hit the same entry.
  key.add_word(static_cast<std::uint64_t>(
      std::min(phase.threads, cpu.max_threads())));
  key.add_double(phase.flops);
  key.add_double(phase.parallel_fraction);
  key.add_double(phase.mlp);
  key.add_double(phase.overlap);
  // CPU compute model.
  key.add_word(static_cast<std::uint64_t>(cpu.cores));
  key.add_word(static_cast<std::uint64_t>(cpu.smt));
  key.add_double(cpu.freq);
  key.add_double(cpu.flops_per_cycle);
  key.add_double(cpu.ht_yield);
  // Cross-socket link constraint.
  key.add_double(upi_bytes);
  key.add_double(upi_bw);
  // Lanes: demand split by access class, effective device, channel label.
  key.add_word(lanes.size());
  for (const auto& lane : lanes) {
    for (const auto b : lane.dem.read) key.add_word(b);
    for (const auto b : lane.dem.write) key.add_word(b);
    add_label(key, lane.label != nullptr
                       ? lane.label
                       : (lane.dev != nullptr ? lane.dev->name.c_str()
                                              : nullptr));
    if (lane.dev != nullptr) add_device(key, *lane.dev);
  }
  return key;
}

}  // namespace nvms
