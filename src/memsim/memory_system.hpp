// MemorySystem: the simulated heterogeneous main memory of one socket of
// the Intel Purley testbed.
//
// The three main-memory organizations evaluated by the paper are exposed as
// modes:
//   * kDramOnly    — everything resides in and is served by DRAM.
//   * kCachedNvm   — "Memory mode": data lives in NVM, all accesses go
//                    through the direct-mapped write-back DRAM cache.
//   * kUncachedNvm — "AppDirect / NUMA mode": buffers live on the device
//                    their placement selects (default NVM); DRAM holds only
//                    explicitly placed buffers (write-aware placement).
//
// Apps register buffers, then submit phases; the system advances a virtual
// clock, accumulates PCM-like counters, per-buffer traffic profiles, and
// reconstructed bandwidth traces.
//
// Thread safety: a MemorySystem instance is EXTERNALLY single-threaded —
// it must be driven by one thread at a time (clock, counters and traces
// mutate on every submit() with no locking), and the parallel experiment
// engine (harness/executor.hpp) still builds one private instance per
// concurrent experiment.  *Internally*, the epoch kernel may shard one
// submit() across `intra_jobs` worker lanes (lane blocks in the resolve
// fixed point, cache-set blocks in the DRAM-cache walk); the sharded
// kernels decompose work width-independently and fold per-block results
// in fixed block order, so every output byte is identical for any lane
// count — see DESIGN.md §5.1 for the contract.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "memsim/counters.hpp"
#include "memsim/cpu.hpp"
#include "memsim/device.hpp"
#include "memsim/dram_cache.hpp"
#include "memsim/resolve.hpp"
#include "memsim/resolve_cache.hpp"
#include "obs/telemetry.hpp"
#include "simcore/thread_pool.hpp"
#include "simcore/units.hpp"
#include "trace/phase.hpp"
#include "trace/run_traces.hpp"

namespace nvms {

enum class Mode { kDramOnly, kCachedNvm, kUncachedNvm };
const char* to_string(Mode m);

/// Per-buffer placement directive (honoured in kUncachedNvm).
enum class Placement { kAuto, kDram, kNvm };

/// NUMA data-placement policy, the simulator's `numactl`: which socket's
/// devices back the allocations.  The paper pins to the local socket
/// ("all the experiments use the local socket to eliminate the severe
/// NUMA effects"); the other policies exist for the NUMA ablation.
enum class NumaPolicy { kLocalSocket, kRemoteSocket, kInterleave };
const char* to_string(NumaPolicy p);

struct SystemConfig {
  Mode mode = Mode::kDramOnly;
  DeviceParams dram = ddr4_socket_params(192 * MiB);
  DeviceParams nvm = optane_socket_params(1536 * MiB);
  CpuParams cpu;
  std::uint64_t cache_line = 4 * KiB;  ///< simulated Memory-mode line
  std::uint64_t cache_max_sets = 1u << 16;
  std::uint64_t seed = 42;
  /// Effective DRAM bandwidth multiplier in Memory mode (tag/metadata
  /// overhead of the hardware-managed cache).
  double cache_dram_derate = 0.92;
  /// Access the NVM of the *remote* socket over UPI (the severe NUMA
  /// effect the paper's experiments deliberately avoid; exposed for the
  /// NUMA ablation bench).  Scales NVM bandwidth and adds hop latency.
  bool remote_nvm = false;
  double upi_bw_factor = 0.6;
  double upi_extra_latency = 70e-9;
  /// Socket topology: 1 (the default; the paper's local-socket setup) or
  /// 2.  With two sockets the threads run on socket 0 and `numa_policy`
  /// decides which socket's DRAM/NVM back the allocations; cross-socket
  /// traffic shares the UPI link bandwidth and pays the hop latency.
  int sockets = 1;
  NumaPolicy numa_policy = NumaPolicy::kLocalSocket;
  double upi_bw = 31.2e9;  ///< bytes/s (3 UPI links at 10.4 GT/s)
  /// Throw CapacityError when an allocation exceeds the target device.
  bool strict_capacity = true;
  /// Intra-run worker lanes for the sharded epoch kernel: 1 = serial
  /// (the default; zero overhead), N > 1 = exactly N lanes (threads may
  /// oversubscribe the host — outputs are byte-identical regardless, so
  /// determinism tests can exercise any width on any machine), 0 = auto:
  /// lease whatever the process-wide IntraBudget has free.  Lanes are
  /// accounted against simcore's IntraBudget either way so cell-level
  /// and intra-run parallelism share one budget.
  int intra_jobs = 1;

  void validate() const;

  /// Scaled default testbed: the paper's 192 GB DRAM / 1.5 TB NVM per
  /// two-socket node, scaled by 1/1024 so footprint/DRAM *ratios* are
  /// preserved while runs stay laptop-sized (documented in DESIGN.md).
  static SystemConfig testbed(Mode mode);
};

struct BufferInfo {
  BufferId id = kInvalidBuffer;
  std::string name;
  std::uint64_t bytes = 0;
  Placement placement = Placement::kAuto;
  std::uint64_t base = 0;  ///< simulator virtual address
  /// Socket holding the allocation; -1 = interleaved across both.
  int numa = 0;
  bool live = false;
};

/// Per-buffer traffic profile (feeds the data-centric placement tool).
struct BufferTraffic {
  std::uint64_t read_bytes = 0;
  std::uint64_t write_bytes = 0;
};

class MemorySystem {
 public:
  explicit MemorySystem(SystemConfig config);

  const SystemConfig& config() const { return config_; }
  Mode mode() const { return config_.mode; }

  // -- buffers ---------------------------------------------------------
  BufferId register_buffer(std::string name, std::uint64_t bytes,
                           Placement placement = Placement::kAuto);
  void release_buffer(BufferId id);
  const BufferInfo& buffer(BufferId id) const;
  /// All buffers ever registered (released ones have live == false).
  const std::vector<BufferInfo>& buffers() const { return buffers_; }
  void set_placement(BufferId id, Placement placement);
  std::uint64_t footprint() const { return footprint_; }
  std::uint64_t peak_footprint() const { return peak_footprint_; }
  /// Bytes currently resident in DRAM given the mode and placements.
  std::uint64_t dram_resident() const;

  // -- execution ---------------------------------------------------------
  /// Simulate one phase: advances the clock and records traces/counters.
  PhaseResolution submit(const Phase& phase);

  /// Advance the clock by `seconds` of activity outside the memory system
  /// (e.g. block-device I/O).  Recorded as a named zero-traffic phase.
  void advance(const std::string& name, double seconds);

  /// Observer invoked with every submitted phase (trace recording).
  /// Pass nullptr to detach.
  using PhaseObserver = std::function<void(const Phase&)>;
  void set_phase_observer(PhaseObserver observer) {
    observer_ = std::move(observer);
  }

  /// Effective device parameters of one lane (socket*2 + (dram ? 0 : 1))
  /// after the construction-time mode/NUMA derates — exactly the
  /// DeviceParams resolve_lanes() sees for that lane.  Lanes 2/3 are the
  /// remote socket's devices.  The delta-replay placement evaluator
  /// (placement/replay_evaluator.hpp) copies these to re-resolve phases
  /// bit-identically without driving a full system.
  const DeviceParams& lane_device(std::size_t lane) const;

  double now() const { return clock_; }
  const RunTraces& traces() const { return traces_; }
  const HwCounters& counters() const { return counters_; }
  const BufferTraffic& traffic(BufferId id) const;

  // -- telemetry ---------------------------------------------------------
  /// Attach (or detach with nullptr) a telemetry bundle.  When attached,
  /// every submit() opens a phase -> resolve -> device span hierarchy on
  /// the virtual clock and emits per-epoch metric samples (per-channel
  /// bandwidth here; WPQ utilization and throttle from the resolver; cache
  /// occupancy/hit/conflict rates from the DRAM cache).  The borrowed
  /// Telemetry must outlive the attachment and is single-threaded, like
  /// this class.  Detached (the default), each hook costs one branch.
  void set_telemetry(Telemetry* telemetry);
  Telemetry* telemetry() const { return telemetry_; }

  /// Attach (or detach with nullptr) the DRAM-cache stream memo
  /// (memsim/resolve_cache.hpp), so Memory-mode sampler walks already seen
  /// on an identical trajectory are skipped.  The borrowed cache must
  /// outlive the attachment; it may be shared across systems/threads
  /// (ResolveCache is mutex-striped).  Outcomes and telemetry streams are
  /// byte-identical with and without a cache.
  void set_resolve_cache(ResolveCache* cache) { cache_.set_memo(cache); }
  /// Tracer index of the span covering the most recent submit();
  /// Tracer::kNone before the first submit or without telemetry.
  std::size_t last_phase_span() const { return last_phase_span_; }

  /// Clear clock, traces, counters and per-buffer traffic; optionally also
  /// drop the DRAM-cache contents.
  void reset_stats(bool drop_cache = false);

 private:
  /// Route one stream to per-device demands (kDramOnly / kUncachedNvm;
  /// Memory-mode streams go through the batched walk in submit()).
  void route_stream(const StreamDesc& s, std::vector<DeviceDemand>& lanes,
                    double& upi_bytes);
  void account_counters(const Phase& phase, double time, double compute_time,
                        const std::vector<DeviceDemand>& lanes);
  void check_capacity() const;
  /// Lane index for (socket, device kind): socket*2 + (dram ? 0 : 1).
  static std::size_t lane_of(int socket, bool dram) {
    return static_cast<std::size_t>(socket) * 2 + (dram ? 0 : 1);
  }

  SystemConfig config_;
  std::vector<BufferInfo> buffers_;
  std::uint64_t next_base_ = 0;
  std::vector<BufferTraffic> traffic_;
  std::uint64_t footprint_ = 0;
  std::uint64_t peak_footprint_ = 0;
  DramCache cache_;
  DeviceParams dram_effective_;  ///< DRAM params after Memory-mode derate
  DeviceParams nvm_effective_;   ///< NVM params after NUMA adjustment
  DeviceParams dram_remote_;     ///< socket-1 DRAM (UPI hop latency added)
  DeviceParams nvm_remote_;      ///< socket-1 NVM
  double clock_ = 0.0;
  RunTraces traces_;
  HwCounters counters_;
  PhaseObserver observer_;
  /// Per-submit scratch, reused to keep the hot path allocation-free:
  /// lane_dem_ holds the four per-lane demands being routed, lanes_ the
  /// LaneDemand views handed to the resolver; access_reqs_/outcomes_ carry
  /// one epoch's batched DRAM-cache accesses (kCachedNvm); the resolver
  /// runs its SoA fixed point on resolve_scratch_ and writes resolutions
  /// into multi_scratch_ — after the first few submits no steady-state
  /// allocation remains.
  std::vector<DeviceDemand> lane_dem_;
  std::vector<LaneDemand> lanes_;
  std::vector<CacheAccessRequest> access_reqs_;
  std::vector<CacheOutcome> outcomes_;
  ResolveScratch resolve_scratch_;
  MultiResolution multi_scratch_;
  /// Intra-run lanes: the lease books our lanes against the process-wide
  /// budget; the context resolves the width and lazily owns the helper
  /// pool.  Kernel-facing pointers (resolve_scratch_.intra, the cache's
  /// intra context) are re-derived from `&intra_` at the top of every
  /// submit() so a moved MemorySystem never leaves them dangling.
  IntraLease intra_lease_;
  IntraContext intra_;
  Telemetry* telemetry_ = nullptr;
  std::size_t last_phase_span_ = Tracer::kNone;
  MetricId phase_hist_;       ///< phase.duration_s histogram
  MetricId read_bytes_ctr_;   ///< app.read_bytes counter
  MetricId write_bytes_ctr_;  ///< app.write_bytes counter
};

}  // namespace nvms
