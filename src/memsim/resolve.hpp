// Phase timing resolution.
//
// Given the per-device byte demands of a phase, compute the phase duration
// and the achieved read/write bandwidths under:
//   (1) per-pattern, per-concurrency device capacities,
//   (2) latency-limited random-read bandwidth (Little's law, phase MLP),
//   (3) WPQ-utilization-driven write throttling of reads (Sec. IV-C),
//   (4) roofline overlap of compute and memory time.
//
// The coupling makes the system self-referential (achieved write rate
// depends on duration, which depends on read throttling, which depends on
// write-queue utilization); a damped fixed point resolves it.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "memsim/cpu.hpp"
#include "memsim/device.hpp"
#include "memsim/wpq.hpp"
#include "obs/epoch_probe.hpp"
#include "trace/phase.hpp"

namespace nvms {

class IntraContext;  // simcore/thread_pool.hpp — intra-run worker lanes

/// Minimum active-lane count before the fixed point shards an iteration
/// across intra-run worker lanes.  Real topologies have <= 4 lanes, where
/// the dispatch handoff costs more than the lane math; the threshold
/// keeps them on the scalar path and engages sharding only for wide
/// synthetic lane sets (exercised by the kernel determinism tests).
inline constexpr std::size_t kResolveIntraLanes = 64;
/// Upper bound on lane blocks per iteration (sizes the fixed-slot
/// reduction scratch; wider pools fold several blocks per worker).
inline constexpr std::size_t kResolveMaxBlocks = 32;

/// Byte demands routed to one device, split by access class
/// (indexed by static_cast<int>(PatClass)).
struct DeviceDemand {
  std::array<std::uint64_t, kNumPatClasses> read{};
  std::array<std::uint64_t, kNumPatClasses> write{};

  std::uint64_t read_total() const {
    return read[0] + read[1] + read[2] + read[3];
  }
  std::uint64_t write_total() const {
    return write[0] + write[1] + write[2] + write[3];
  }

  void add(PatClass c, Dir d, std::uint64_t bytes) {
    auto& arr = (d == Dir::kRead) ? read : write;
    arr[static_cast<std::size_t>(c)] += bytes;
  }
  void add(Pattern p, Dir d, std::uint64_t bytes,
           std::uint64_t granule = 64) {
    add(classify(p, granule), d, bytes);
  }
};

/// Resolution result for one device.
struct DeviceTiming {
  double read_time = 0.0;   ///< unthrottled time to move the reads
  double write_time = 0.0;  ///< time to move the writes
  double read_bw = 0.0;     ///< achieved over the phase duration
  double write_bw = 0.0;
  double wpq_util = 0.0;
  double throttle = 1.0;    ///< read multiplier actually applied
};

struct PhaseResolution {
  double time = 0.0;          ///< phase duration, seconds
  double compute_time = 0.0;  ///< pure compute component
  DeviceTiming dram;
  DeviceTiming nvm;
};

/// One device "lane" in a multi-device resolution (e.g. socket-0 DRAM,
/// socket-0 NVM, socket-1 DRAM, socket-1 NVM).
struct LaneDemand {
  DeviceDemand dem;
  const DeviceParams* dev = nullptr;
  /// Telemetry channel label ("dram0", "nvm1", ...); falls back to the
  /// device name when null.
  const char* label = nullptr;
};

struct MultiResolution {
  double time = 0.0;
  double compute_time = 0.0;
  std::vector<DeviceTiming> lanes;
};

/// Reusable flat SoA state for the resolve_lanes() fixed point.  The
/// solver splits the lanes into a compact *active* set (positive write
/// demand and a positive throttle alpha — the only lanes whose state
/// evolves across iterations) and folds everything else into constants,
/// so the 64-iteration loop touches contiguous double arrays only.  A
/// caller that owns one scratch per thread (MemorySystem does) makes the
/// steady-state resolve completely allocation-free; passing nullptr falls
/// back to a call-local scratch.
///
/// Layout invariant: per-lane arrays are indexed by lane position, the
/// act_*/lazy_* arrays by compact slot; prepare() only ever grows, so a
/// scratch can be shared across resolutions with different lane counts.
struct ResolveScratch {
  // Per-lane results, scattered back after convergence.
  std::vector<double> lane_rt;    ///< unthrottled read time
  std::vector<double> lane_wt;    ///< write time
  std::vector<double> lane_util;  ///< converged WPQ utilization
  std::vector<double> lane_f;     ///< converged read-throttle factor
  // Per-lane, per-class capacity tables ([lane * kNumPatClasses + class]),
  // the hoisted form of DeviceParams::{read,write}_capacity dispatch.
  std::vector<double> rcap;
  std::vector<double> wcap;
  // Compact active set: lanes iterated by the fixed point.
  std::vector<std::size_t> act_idx;
  std::vector<double> act_rt;      ///< unthrottled read time
  std::vector<double> act_ceil;    ///< max(write time, combined ceiling)
  std::vector<double> act_wbytes;  ///< write demand, bytes
  std::vector<double> act_drain;   ///< WPQ drain capacity
  std::vector<double> act_cap005;  ///< wpq_entries * 0.05, precomputed
  std::vector<double> act_alpha;
  std::vector<double> act_gamma;
  std::vector<double> act_f;
  std::vector<double> act_util;
  // Lazy set: write demand but alpha == 0 — the throttle stays exactly
  // 1.0, so their utilization is computed once post-convergence.
  std::vector<std::size_t> lazy_idx;
  std::vector<double> lazy_wbytes;
  std::vector<double> lazy_drain;
  std::vector<double> lazy_cap005;
  // Per-lane setup outputs kept for the serial partition pass (the
  // parallel setup writes them lane-disjointly, the partition reads them
  // in lane order).
  std::vector<double> lane_ceil;   ///< max(write time, combined ceiling)
  std::vector<double> lane_drain;  ///< aggregate write drain capacity
  /// Fixed-slot reduction scratch: worker w folds its lane block's
  /// mem-time into blk_tm[w]; the caller folds blk_tm[0..W) in slot
  /// order.  Bitwise safe: max over non-negative doubles is
  /// order-insensitive, and the slot order makes it deterministic by
  /// construction anyway.
  std::vector<double> blk_tm;

  /// Borrowed intra-run lane context (MemorySystem re-attaches its own
  /// every submit).  nullptr or width 1 keeps every kernel scalar.
  IntraContext* intra = nullptr;

  /// Grow every array to hold `lanes` lanes (never shrinks).
  void prepare(std::size_t lanes);
};

/// Runtime switch routing resolve_lanes() and the DramCache sampled walk
/// through the pre-SoA reference kernels (the bit-exact oracles kept for
/// the `kernels` parity suite and the bench self-measured speedup).
/// Compiling with -DNVMS_REFERENCE_KERNELS pins it on permanently.
void set_reference_kernels(bool on);
bool use_reference_kernels();

/// General N-lane resolution: every lane is resolved under the same fixed
/// point as resolve_phase; `upi_bytes` crossing the socket interconnect
/// add a shared-link constraint time >= upi_bytes / upi_bw.  When `probe`
/// is set, each active lane emits one post-convergence epoch sample of its
/// WPQ utilization ("wpq.util") and applied read-throttle multiplier
/// ("throttle.read") stamped at virtual time `epoch_t`.
///
/// Concurrency above cpu.max_threads() is clamped for the memory model
/// (oversubscription adds no memory parallelism); the counter model in
/// MemorySystem::account_counters bills the identical clamped count, so
/// the two never disagree at the boundary.  The result is a pure function
/// of (per-lane demands, the lane devices, the phase timing fields minus
/// name/streams, the CPU model, the UPI constraint) — the property the
/// placement evaluator's phase-time memo (placement/replay_evaluator.hpp)
/// relies on.
MultiResolution resolve_lanes(const Phase& phase,
                              const std::vector<LaneDemand>& lanes,
                              const CpuParams& cpu, double upi_bytes = 0.0,
                              double upi_bw = 0.0,
                              EpochProbe* probe = nullptr,
                              double epoch_t = 0.0,
                              ResolveScratch* scratch = nullptr);

/// Allocation-free variant: writes the resolution into `*out`, reusing its
/// lanes vector's capacity, and runs the fixed point on `*scratch` (both
/// may be reused across calls).  resolve_lanes() is a thin wrapper.
void resolve_lanes_into(const Phase& phase,
                        const std::vector<LaneDemand>& lanes,
                        const CpuParams& cpu, double upi_bytes,
                        double upi_bw, EpochProbe* probe, double epoch_t,
                        ResolveScratch* scratch, MultiResolution* out);

/// The pre-SoA scalar solver, kept verbatim as the bit-exact oracle for
/// the `kernels` parity suite (tests/test_resolve_soa) and as the
/// "pre-PR kernel" baseline the benches self-measure against.  Routed to
/// by resolve_lanes() under set_reference_kernels(true) or a
/// -DNVMS_REFERENCE_KERNELS build.
MultiResolution resolve_lanes_reference(const Phase& phase,
                                        const std::vector<LaneDemand>& lanes,
                                        const CpuParams& cpu,
                                        double upi_bytes = 0.0,
                                        double upi_bw = 0.0,
                                        EpochProbe* probe = nullptr,
                                        double epoch_t = 0.0);

PhaseResolution resolve_phase(const Phase& phase, const DeviceDemand& dram_dem,
                              const DeviceDemand& nvm_dem,
                              const DeviceParams& dram,
                              const DeviceParams& nvm, const CpuParams& cpu);

}  // namespace nvms
