#include "memsim/memory_system.hpp"

#include <algorithm>

#include "simcore/error.hpp"

namespace nvms {

namespace {
/// Telemetry channel labels, lane-indexed (socket*2 + device).
constexpr const char* kLaneLabels[4] = {"dram0", "nvm0", "dram1", "nvm1"};
}  // namespace

const char* to_string(NumaPolicy p) {
  switch (p) {
    case NumaPolicy::kLocalSocket:
      return "local";
    case NumaPolicy::kRemoteSocket:
      return "remote";
    case NumaPolicy::kInterleave:
      return "interleave";
  }
  return "?";
}

const char* to_string(Mode m) {
  switch (m) {
    case Mode::kDramOnly:
      return "dram-only";
    case Mode::kCachedNvm:
      return "cached-nvm";
    case Mode::kUncachedNvm:
      return "uncached-nvm";
  }
  return "?";
}

void SystemConfig::validate() const {
  dram.validate();
  nvm.validate();
  cpu.validate();
  require(cache_line >= 64 && (cache_line & (cache_line - 1)) == 0,
          "cache_line must be a power of two >= 64");
  require(sockets == 1 || sockets == 2, "sockets must be 1 or 2");
  require(intra_jobs >= 0, "intra_jobs must be >= 0 (0 = auto)");
  require(sockets == 1 || upi_bw > 0.0,
          "two-socket topology needs a positive UPI bandwidth");
  require(sockets == 2 || numa_policy == NumaPolicy::kLocalSocket,
          "non-local NUMA policies need two sockets");
  // Memory mode caches only the local socket's NVM ("DRAM on one socket
  // cannot cache accesses to NVM on another socket", Sec. II-A).
  require(mode != Mode::kCachedNvm || sockets == 1,
          "cached-NVM is modelled for the single-socket setup only");
}

SystemConfig SystemConfig::testbed(Mode mode) {
  SystemConfig cfg;
  cfg.mode = mode;
  // Per-socket capacities of the Purley testbed (96 GB DRAM, 768 GB NVM),
  // scaled by 1/1024: ratios (NVM = 8x DRAM) are preserved.
  cfg.dram = ddr4_socket_params(96 * MiB);
  cfg.nvm = optane_socket_params(768 * MiB);
  return cfg;
}

MemorySystem::MemorySystem(SystemConfig config)
    : config_(std::move(config)),
      cache_(CacheParams{config_.cache_line, config_.dram.capacity,
                         config_.cache_max_sets, config_.seed}),
      dram_effective_(config_.dram),
      nvm_effective_(config_.nvm) {
  config_.validate();
  if (config_.remote_nvm) {
    nvm_effective_.read_bw_peak *= config_.upi_bw_factor;
    nvm_effective_.write_bw_peak *= config_.upi_bw_factor;
    nvm_effective_.combined_bw_peak *= config_.upi_bw_factor;
    nvm_effective_.read_lat_seq += config_.upi_extra_latency;
    nvm_effective_.read_lat_rand += config_.upi_extra_latency;
    nvm_effective_.write_lat += config_.upi_extra_latency;
  }
  if (config_.mode == Mode::kCachedNvm) {
    // Memory mode runs DRAM as a hardware cache: tag checks and fill
    // metadata cost effective bandwidth even at full hit rate ([21], and
    // the paper's Fig. 4 analysis).
    dram_effective_.read_bw_peak *= config_.cache_dram_derate;
    dram_effective_.write_bw_peak *= config_.cache_dram_derate;
    dram_effective_.combined_bw_peak *= config_.cache_dram_derate;
  }
  // Socket-1 devices: same media, plus the UPI hop latency and the
  // cross-socket coherence/directory bandwidth derate.
  dram_remote_ = dram_effective_;
  nvm_remote_ = nvm_effective_;
  for (DeviceParams* d : {&dram_remote_, &nvm_remote_}) {
    d->read_lat_seq += config_.upi_extra_latency;
    d->read_lat_rand += config_.upi_extra_latency;
    d->write_lat += config_.upi_extra_latency;
    d->read_bw_peak *= config_.upi_bw_factor;
    d->write_bw_peak *= config_.upi_bw_factor;
    d->combined_bw_peak *= config_.upi_bw_factor;
  }
  // Intra-run lanes.  auto (0) leases every free lane in the budget;
  // an explicit N > 1 means exactly N lanes — the lease then only books
  // what is free (accounting), never shrinks the width, so determinism
  // tests can force any width on any host.  Helper threads themselves
  // are spawned lazily by IntraContext, on the first kernel that
  // crosses its parallelism threshold.
  int intra_width = 1;
  if (config_.intra_jobs == 0) {
    intra_lease_ = IntraLease(IntraBudget::global().total() - 1);
    intra_width = 1 + intra_lease_.granted();
  } else if (config_.intra_jobs > 1) {
    intra_lease_ = IntraLease(config_.intra_jobs - 1);
    intra_width = config_.intra_jobs;
  }
  intra_.configure(intra_width);
  // Hot-path scratch: sized once, reused by every submit().
  lane_dem_.resize(4);
  lanes_.resize(static_cast<std::size_t>(config_.sockets) * 2);
  lanes_[0] = {DeviceDemand{}, &dram_effective_, kLaneLabels[0]};
  lanes_[1] = {DeviceDemand{}, &nvm_effective_, kLaneLabels[1]};
  if (config_.sockets == 2) {
    lanes_[2] = {DeviceDemand{}, &dram_remote_, kLaneLabels[2]};
    lanes_[3] = {DeviceDemand{}, &nvm_remote_, kLaneLabels[3]};
  }
}

BufferId MemorySystem::register_buffer(std::string name, std::uint64_t bytes,
                                       Placement placement) {
  require(bytes > 0, "buffer '" + name + "' must have positive size");
  BufferInfo info;
  info.id = static_cast<BufferId>(buffers_.size());
  info.name = std::move(name);
  info.bytes = bytes;
  info.placement = placement;
  switch (config_.numa_policy) {
    case NumaPolicy::kLocalSocket:
      info.numa = 0;
      break;
    case NumaPolicy::kRemoteSocket:
      info.numa = 1;
      break;
    case NumaPolicy::kInterleave:
      info.numa = -1;
      break;
  }
  // Bump allocation, line-aligned, never reused: stale cache tags can
  // never alias a new buffer, and buffers pack contiguously into the
  // direct-mapped cache (conflict misses appear exactly when the live
  // footprint exceeds the cache capacity, as on a freshly-booted system
  // with near-contiguous physical pages).
  const std::uint64_t align = config_.cache_line;
  info.base = next_base_;
  next_base_ += (bytes + align - 1) / align * align;
  info.live = true;
  footprint_ += bytes;
  buffers_.push_back(info);
  traffic_.push_back({});
  try {
    check_capacity();
  } catch (...) {
    // Transactional: a rejected allocation leaves no trace.
    buffers_.pop_back();
    traffic_.pop_back();
    footprint_ -= bytes;
    next_base_ = info.base;
    throw;
  }
  peak_footprint_ = std::max(peak_footprint_, footprint_);
  return info.id;
}

void MemorySystem::release_buffer(BufferId id) {
  require(id < buffers_.size(), "unknown buffer id");
  BufferInfo& b = buffers_[id];
  require(b.live, "double release of buffer " + b.name);
  b.live = false;
  footprint_ -= b.bytes;
}

const BufferInfo& MemorySystem::buffer(BufferId id) const {
  require(id < buffers_.size(), "unknown buffer id");
  return buffers_[id];
}

void MemorySystem::set_placement(BufferId id, Placement placement) {
  require(id < buffers_.size(), "unknown buffer id");
  const Placement old = buffers_[id].placement;
  buffers_[id].placement = placement;
  try {
    check_capacity();
  } catch (...) {
    buffers_[id].placement = old;
    throw;
  }
}

std::uint64_t MemorySystem::dram_resident() const {
  std::uint64_t total = 0;
  for (const auto& b : buffers_) {
    if (!b.live) continue;
    switch (config_.mode) {
      case Mode::kDramOnly:
        total += b.bytes;
        break;
      case Mode::kCachedNvm:
        break;  // DRAM is a cache, not a residence
      case Mode::kUncachedNvm:
        if (b.placement == Placement::kDram) total += b.bytes;
        break;
    }
  }
  return total;
}

void MemorySystem::check_capacity() const {
  if (!config_.strict_capacity) return;
  // Per-socket accounting; interleaved buffers split evenly.
  std::uint64_t dram_bytes[2] = {0, 0};
  std::uint64_t nvm_bytes[2] = {0, 0};
  for (const auto& b : buffers_) {
    if (!b.live) continue;
    std::uint64_t share[2] = {0, 0};
    if (b.numa < 0) {
      share[0] = b.bytes / 2;
      share[1] = b.bytes - share[0];
    } else {
      share[b.numa] = b.bytes;
    }
    for (int sck = 0; sck < 2; ++sck) {
      if (share[sck] == 0) continue;
      switch (config_.mode) {
        case Mode::kDramOnly:
          dram_bytes[sck] += share[sck];
          break;
        case Mode::kCachedNvm:
          nvm_bytes[sck] += share[sck];
          break;
        case Mode::kUncachedNvm:
          if (b.placement == Placement::kDram)
            dram_bytes[sck] += share[sck];
          else
            nvm_bytes[sck] += share[sck];
          break;
      }
    }
  }
  for (int sck = 0; sck < config_.sockets; ++sck) {
    if (dram_bytes[sck] > config_.dram.capacity)
      throw CapacityError("DRAM capacity exceeded on socket " +
                          std::to_string(sck) + ": " +
                          format_bytes(dram_bytes[sck]) + " > " +
                          format_bytes(config_.dram.capacity));
    if (nvm_bytes[sck] > config_.nvm.capacity)
      throw CapacityError("NVM capacity exceeded on socket " +
                          std::to_string(sck) + ": " +
                          format_bytes(nvm_bytes[sck]) + " > " +
                          format_bytes(config_.nvm.capacity));
  }
}

void MemorySystem::route_stream(const StreamDesc& s,
                                std::vector<DeviceDemand>& lanes,
                                double& upi_bytes) {
  const BufferInfo& b = buffer(s.buffer);
  require(b.live, "stream references released buffer " + b.name);
  traffic_[s.buffer].read_bytes += (s.dir == Dir::kRead) ? s.bytes : 0;
  traffic_[s.buffer].write_bytes += (s.dir == Dir::kWrite) ? s.bytes : 0;

  // Socket shares of this stream (interleaved buffers split evenly).
  std::uint64_t share[2] = {0, 0};
  if (b.numa < 0) {
    share[0] = s.bytes / 2;
    share[1] = s.bytes - share[0];
  } else {
    share[b.numa] = s.bytes;
  }

  for (int sck = 0; sck < 2; ++sck) {
    if (share[sck] == 0) continue;
    if (sck != 0) upi_bytes += static_cast<double>(share[sck]);
    switch (config_.mode) {
      case Mode::kDramOnly:
        lanes[lane_of(sck, true)].add(s.pattern, s.dir, share[sck],
                                      s.granule);
        break;
      case Mode::kUncachedNvm: {
        const bool in_dram = b.placement == Placement::kDram;
        lanes[lane_of(sck, in_dram)].add(s.pattern, s.dir, share[sck],
                                         s.granule);
        break;
      }
      case Mode::kCachedNvm:
        // Memory mode routes through the batched path in submit(), never
        // through the per-stream router.
        NVMS_ASSERT(false, "cached-NVM streams route via walk_batch()");
        break;
    }
  }
}

void MemorySystem::set_telemetry(Telemetry* telemetry) {
  telemetry_ = telemetry;
  last_phase_span_ = Tracer::kNone;
  cache_.set_probe(telemetry != nullptr ? &telemetry->metrics() : nullptr);
  if (telemetry != nullptr) {
    MetricsRegistry& m = telemetry->metrics();
    phase_hist_ = m.histogram("phase.duration_s");
    read_bytes_ctr_ = m.counter("app.read_bytes");
    write_bytes_ctr_ = m.counter("app.write_bytes");
  } else {
    phase_hist_ = read_bytes_ctr_ = write_bytes_ctr_ = MetricId{};
  }
}

PhaseResolution MemorySystem::submit(const Phase& phase) {
  if (observer_) observer_(phase);
  // Re-derive the intra-lane pointers from our own member every submit:
  // like the lane device pointers below, this keeps a moved MemorySystem
  // correct (the context lives inside this object).
  cache_.set_intra(&intra_);
  resolve_scratch_.intra = &intra_;
  const double t0v = clock_;
  std::size_t sp_phase = Tracer::kNone;
  std::size_t sp_resolve = Tracer::kNone;
  EpochProbe* probe = nullptr;
  if (telemetry_ != nullptr) {
    sp_phase = telemetry_->tracer().begin(phase.name, "phase", t0v);
    sp_resolve = telemetry_->tracer().begin("resolve", "resolve", t0v);
    cache_.set_epoch_time(t0v);
    probe = &telemetry_->metrics();
  }
  // Lanes: [dram0, nvm0] plus [dram1, nvm1] on two-socket systems.  The
  // demand scratch and the LaneDemand views are members reused across
  // submits — the hot path performs no heap allocation.
  std::vector<DeviceDemand>& lane_dem = lane_dem_;
  for (auto& d : lane_dem) d = DeviceDemand{};
  double upi_bytes = 0.0;
  if (config_.mode == Mode::kCachedNvm) {
    // Batched Memory-mode routing: collect the whole epoch's accesses,
    // run them through the cache in one walk_batch() call (byte-identical
    // to per-stream access(), see DramCache), then fold the outcomes into
    // the lane demands.  Cached-NVM is validated single-socket with local
    // placement, so every stream routes entirely to socket 0.
    access_reqs_.clear();
    for (const auto& s : phase.streams) {
      const BufferInfo& b = buffer(s.buffer);
      require(b.live, "stream references released buffer " + b.name);
      traffic_[s.buffer].read_bytes += (s.dir == Dir::kRead) ? s.bytes : 0;
      traffic_[s.buffer].write_bytes += (s.dir == Dir::kWrite) ? s.bytes : 0;
      access_reqs_.push_back({s, b.base, b.bytes});
    }
    outcomes_.resize(access_reqs_.size());
    cache_.walk_batch(access_reqs_.data(), access_reqs_.size(),
                      outcomes_.data());
    DeviceDemand& dram_dem = lane_dem[lane_of(0, true)];
    DeviceDemand& nvm_dem = lane_dem[lane_of(0, false)];
    for (std::size_t i = 0; i < access_reqs_.size(); ++i) {
      const StreamDesc& s = access_reqs_[i].stream;
      const CacheOutcome& out = outcomes_[i];
      // DRAM side keeps the app's spatial pattern; NVM side moves whole
      // cache lines (>= media granularity), i.e. large random granules.
      dram_dem.add(s.pattern, Dir::kRead, out.dram_read, s.granule);
      dram_dem.add(s.pattern, Dir::kWrite, out.dram_write, s.granule);
      // Streaming refills are short sequential bursts on the media;
      // conflict refetches are isolated scattered line reads.
      nvm_dem.add(Pattern::kStrided, Dir::kRead, out.nvm_read);
      nvm_dem.add(Pattern::kRandom, Dir::kRead, out.nvm_read_scattered,
                  config_.cache_line);
      // Whole-line writebacks combine in the WPQ into sequential bursts.
      nvm_dem.add(Pattern::kSequential, Dir::kWrite, out.nvm_write);
    }
  } else {
    for (const auto& s : phase.streams) route_stream(s, lane_dem, upi_bytes);
  }

  // Refresh the whole lane view, including the device pointers: they
  // reference our own *_effective_/*_remote_ members, so re-deriving them
  // here keeps submit() correct even if the system was moved (e.g. a
  // factory returning MemorySystem by value through a std::function).
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    lanes_[i].dem = lane_dem[i];
    lanes_[i].dev = &lane_device(i);
    lanes_[i].label = kLaneLabels[i];
  }
  if (config_.sockets != 2) {
    NVMS_ASSERT(lane_dem[2].read_total() + lane_dem[2].write_total() +
                        lane_dem[3].read_total() +
                        lane_dem[3].write_total() ==
                    0,
                "remote traffic on a single-socket system");
  }
  resolve_lanes_into(phase, lanes_, config_.cpu, upi_bytes, config_.upi_bw,
                     probe, t0v, &resolve_scratch_, &multi_scratch_);
  const MultiResolution& multi = multi_scratch_;

  PhaseResolution res;
  res.time = multi.time;
  res.compute_time = multi.compute_time;
  res.dram = multi.lanes[0];
  res.nvm = multi.lanes[1];
  if (config_.sockets == 2) {
    // Trace/report series aggregate both sockets per device class.
    res.dram.read_bw += multi.lanes[2].read_bw;
    res.dram.write_bw += multi.lanes[2].write_bw;
    res.nvm.read_bw += multi.lanes[3].read_bw;
    res.nvm.write_bw += multi.lanes[3].write_bw;
    // WPQ/throttle context reports the worst write pressure across the
    // sockets per device class — the max utilization and the minimum
    // (most throttled) read multiplier — so a remote-heavy write phase is
    // not under-reported as local-socket idle (RunRecorder attaches these
    // to every counter sample).
    res.dram.wpq_util = std::max(res.dram.wpq_util, multi.lanes[2].wpq_util);
    res.dram.throttle = std::min(res.dram.throttle, multi.lanes[2].throttle);
    res.nvm.wpq_util = std::max(res.nvm.wpq_util, multi.lanes[3].wpq_util);
    res.nvm.throttle = std::min(res.nvm.throttle, multi.lanes[3].throttle);
  }

  const double t0 = clock_;
  const double t1 = clock_ + res.time;
  if (res.time > 0.0) {
    traces_.dram_read.add_segment(t0, t1, res.dram.read_bw);
    traces_.dram_write.add_segment(t0, t1, res.dram.write_bw);
    traces_.nvm_read.add_segment(t0, t1, res.nvm.read_bw);
    traces_.nvm_write.add_segment(t0, t1, res.nvm.write_bw);
  }
  traces_.phases.push_back({phase.name, t0, t1});
  account_counters(phase, res.time, res.compute_time, lane_dem);
  clock_ = t1;

  if (telemetry_ != nullptr) {
    Tracer& tr = telemetry_->tracer();
    MetricsRegistry& mr = telemetry_->metrics();
    // Device spans: each active lane busy for the time it actually moved
    // bytes (<= the phase duration), nested under the resolve span.
    for (std::size_t i = 0; i < multi.lanes.size(); ++i) {
      const std::uint64_t bytes =
          lane_dem[i].read_total() + lane_dem[i].write_total();
      if (bytes == 0) continue;
      const DeviceTiming& lt = multi.lanes[i];
      const double busy = std::min(
          res.time, std::max(lt.read_time / std::max(lt.throttle, 1e-3),
                             lt.write_time));
      const std::size_t sp_dev = tr.begin(kLaneLabels[i], "device", t0);
      tr.annotate(sp_dev, "read_gbs", lt.read_bw / GB);
      tr.annotate(sp_dev, "write_gbs", lt.write_bw / GB);
      tr.annotate(sp_dev, "wpq_util", lt.wpq_util);
      tr.annotate(sp_dev, "throttle", lt.throttle);
      tr.end(sp_dev, t0 + busy);
      // Per-channel bandwidth epoch stream (GB/s over this phase).
      mr.epoch_sample("bw.read_gbs", kLaneLabels[i], t0, lt.read_bw / GB);
      mr.epoch_sample("bw.write_gbs", kLaneLabels[i], t0,
                      lt.write_bw / GB);
    }
    tr.end(sp_resolve, t1);
    mr.observe(phase_hist_, res.time);
    mr.add(read_bytes_ctr_, static_cast<double>(phase.read_bytes()));
    mr.add(write_bytes_ctr_, static_cast<double>(phase.write_bytes()));
    tr.end(sp_phase, t1);
    last_phase_span_ = sp_phase;
  }
  return res;
}

void MemorySystem::advance(const std::string& name, double seconds) {
  require(seconds >= 0.0, "advance: negative duration");
  const double t0 = clock_;
  const double t1 = clock_ + seconds;
  if (telemetry_ != nullptr) {
    // Time outside the memory system still shows on the trace timeline.
    const std::size_t sp = telemetry_->tracer().begin(name, "advance", t0);
    telemetry_->tracer().end(sp, t1);
  }
  if (seconds > 0.0) {
    traces_.dram_read.add_segment(t0, t1, 0.0);
    traces_.dram_write.add_segment(t0, t1, 0.0);
    traces_.nvm_read.add_segment(t0, t1, 0.0);
    traces_.nvm_write.add_segment(t0, t1, 0.0);
  }
  traces_.phases.push_back({name, t0, t1});
  clock_ = t1;
}

void MemorySystem::account_counters(const Phase& phase, double time,
                                    double compute_time,
                                    const std::vector<DeviceDemand>& lanes) {
  // Instruction mix: ~1.25 retired instructions per flop (FMA + address
  // arithmetic) plus one load/store micro-op per 8 bytes moved by the app.
  const double app_bytes = static_cast<double>(phase.total_bytes());
  const double insns = phase.flops * 1.25 + app_bytes / 8.0;
  const int threads_used =
      std::min(phase.threads, config_.cpu.max_threads());
  const double cycles =
      time * config_.cpu.freq * static_cast<double>(threads_used);
  const double mem_fraction =
      time > 0.0 ? std::clamp((time - compute_time) / time, 0.0, 1.0) : 0.0;
  double read_bytes = 0.0;
  double write_bytes = 0.0;
  for (const auto& lane : lanes) {
    read_bytes += static_cast<double>(lane.read_total());
    write_bytes += static_cast<double>(lane.write_total());
  }
  const double read_share =
      (read_bytes + write_bytes) > 0.0
          ? read_bytes / (read_bytes + write_bytes)
          : 0.0;

  counters_.instructions += insns;
  counters_.cycles_active += cycles;
  counters_.stall_cycles += 0.9 * mem_fraction * cycles;
  counters_.offcore_wait += 0.9 * mem_fraction * cycles * read_share;
  counters_.imc_reads += read_bytes / 64.0;
  counters_.imc_writes += write_bytes / 64.0;
}

const DeviceParams& MemorySystem::lane_device(std::size_t lane) const {
  switch (lane) {
    case 0:
      return dram_effective_;
    case 1:
      return nvm_effective_;
    case 2:
      return dram_remote_;
    case 3:
      return nvm_remote_;
    default:
      throw ConfigError("lane_device: lane out of range");
  }
}

const BufferTraffic& MemorySystem::traffic(BufferId id) const {
  require(id < traffic_.size(), "unknown buffer id");
  return traffic_[id];
}

void MemorySystem::reset_stats(bool drop_cache) {
  clock_ = 0.0;
  traces_.clear();
  counters_ = HwCounters{};
  for (auto& t : traffic_) t = BufferTraffic{};
  if (drop_cache) cache_.reset();
}

}  // namespace nvms
