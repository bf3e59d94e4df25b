#include "placement/replay_evaluator.hpp"

#include <bit>
#include <unordered_map>
#include <utility>

#include "simcore/error.hpp"
#include "simcore/units.hpp"

namespace nvms {

namespace {
/// Lane labels, identical to MemorySystem's (part of the resolve key).
constexpr const char* kLaneLabels[4] = {"dram0", "nvm0", "dram1", "nvm1"};

std::uint64_t fnv(std::uint64_t h, std::uint64_t w) {
  return (h ^ w) * 0x100000001B3ull;
}
std::uint64_t dword(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Grouping digest for phase equivalence classes (verified by
/// same_shape before two phases share a class).
std::uint64_t phase_digest(const Phase& p) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  h = fnv(h, static_cast<std::uint64_t>(p.threads));
  h = fnv(h, dword(p.flops));
  h = fnv(h, dword(p.parallel_fraction));
  h = fnv(h, dword(p.mlp));
  h = fnv(h, dword(p.overlap));
  for (const StreamDesc& s : p.streams) {
    h = fnv(h, s.buffer);
    h = fnv(h, s.bytes);
    h = fnv(h, static_cast<std::uint64_t>(s.pattern));
    h = fnv(h, static_cast<std::uint64_t>(s.dir));
    h = fnv(h, s.granule);
    h = fnv(h, s.reuse);
    h = fnv(h, s.reuse_block);
  }
  return h;
}

/// True when the two phases are indistinguishable to stream routing and
/// resolution: identical timing fields and identical streams (the name
/// never reaches the resolver).
bool same_shape(const Phase& a, const Phase& b) {
  if (a.threads != b.threads || a.flops != b.flops ||
      a.parallel_fraction != b.parallel_fraction || a.mlp != b.mlp ||
      a.overlap != b.overlap || a.streams.size() != b.streams.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.streams.size(); ++i) {
    const StreamDesc& x = a.streams[i];
    const StreamDesc& y = b.streams[i];
    if (x.buffer != y.buffer || x.bytes != y.bytes ||
        x.pattern != y.pattern || x.dir != y.dir || x.granule != y.granule ||
        x.reuse != y.reuse || x.reuse_block != y.reuse_block) {
      return false;
    }
  }
  return true;
}

}  // namespace

ReplayEvaluator::ReplayEvaluator(const PhaseRecording& recording,
                                 std::function<MemorySystem()> make_system)
    : rec_(&recording), factory_(std::move(make_system)) {
  require(static_cast<bool>(factory_), "replay evaluator: null system factory");
  {
    // A scoped prototype: keep copies of everything resolution needs so no
    // pointer into a (moved-from, destroyed) system survives this block.
    MemorySystem proto = factory_();
    config_ = proto.config();
    for (std::size_t i = 0; i < 4; ++i) lane_dev_[i] = proto.lane_device(i);
  }
  mode_ = config_.mode;
  incremental_ = mode_ != Mode::kCachedNvm;
  nlanes_ = static_cast<std::size_t>(config_.sockets) * 2;
  switch (config_.numa_policy) {
    case NumaPolicy::kLocalSocket:
      numa_ = 0;
      break;
    case NumaPolicy::kRemoteSocket:
      numa_ = 1;
      break;
    case NumaPolicy::kInterleave:
      numa_ = -1;
      break;
  }

  placements_.reserve(recording.buffers.size());
  for (std::size_t i = 0; i < recording.buffers.size(); ++i) {
    const RecordedBuffer& b = recording.buffers[i];
    require(b.bytes > 0,
            "replay evaluator: buffer '" + b.name + "' must have positive size");
    for (std::size_t j = 0; j < i; ++j) {
      require(recording.buffers[j].name != b.name,
              "replay evaluator: duplicate buffer name '" + b.name + "'");
    }
    placements_.push_back(b.placement);
  }

  phase_buffers_ = recording.phase_buffers();
  phases_of_buffer_.resize(recording.buffers.size());
  for (std::size_t pi = 0; pi < phase_buffers_.size(); ++pi) {
    for (const BufferId id : phase_buffers_[pi]) {
      phases_of_buffer_[id].push_back(pi);
    }
  }

  if (incremental_) {
    check_fits(placements_);
    // Collapse repeated phases (solver iterations) into equivalence
    // classes so the signature memo answers them with one entry.
    phase_class_.resize(recording.phases.size());
    std::unordered_map<std::uint64_t, std::vector<std::size_t>> by_digest;
    for (std::size_t pi = 0; pi < recording.phases.size(); ++pi) {
      auto& reps = by_digest[phase_digest(recording.phases[pi])];
      bool found = false;
      for (const std::size_t rep : reps) {
        if (same_shape(recording.phases[rep], recording.phases[pi])) {
          phase_class_[pi] = phase_class_[rep];
          found = true;
          break;
        }
      }
      if (!found) {
        phase_class_[pi] = static_cast<std::uint32_t>(n_classes_++);
        reps.push_back(pi);
      }
    }
    sig_memo_.resize(n_classes_);
    times_.resize(recording.phases.size());
    std::vector<LaneDemand> scratch;
    for (std::size_t pi = 0; pi < times_.size(); ++pi) {
      times_[pi] = phase_time(pi, placements_, scratch);
    }
    double total = 0.0;
    for (const double t : times_) total += t;
    baseline_ = total;
  } else {
    baseline_ = full_replay(PlacementPlan{});
  }
  current_ = baseline_;
}

void ReplayEvaluator::check_fits(
    const std::vector<Placement>& placements) const {
  if (!config_.strict_capacity) return;
  // Mirrors MemorySystem::check_capacity as replay would hit it: the
  // system re-checks the prefix after every registration, so the first
  // buffer whose addition overflows raises, with prefix sums in the
  // message.
  std::uint64_t dram_bytes[2] = {0, 0};
  std::uint64_t nvm_bytes[2] = {0, 0};
  for (std::size_t i = 0; i < rec_->buffers.size(); ++i) {
    const RecordedBuffer& b = rec_->buffers[i];
    std::uint64_t share[2] = {0, 0};
    if (numa_ < 0) {
      share[0] = b.bytes / 2;
      share[1] = b.bytes - share[0];
    } else {
      share[numa_] = b.bytes;
    }
    for (int sck = 0; sck < 2; ++sck) {
      if (share[sck] == 0) continue;
      switch (mode_) {
        case Mode::kDramOnly:
          dram_bytes[sck] += share[sck];
          break;
        case Mode::kCachedNvm:
          nvm_bytes[sck] += share[sck];
          break;
        case Mode::kUncachedNvm:
          if (placements[i] == Placement::kDram)
            dram_bytes[sck] += share[sck];
          else
            nvm_bytes[sck] += share[sck];
          break;
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
}

double ReplayEvaluator::phase_time(std::size_t pi,
                                   const std::vector<Placement>& placements,
                                   std::vector<LaneDemand>& scratch) const {
  const Phase& phase = rec_->phases[pi];
  // First level: the placement signature of the touched buffers fully
  // determines this phase's lane demands (stream shapes, NUMA shares and
  // device parameters are fixed per evaluator), so a short per-phase scan
  // answers repeat evaluations without rebuilding the resolve key.
  const std::vector<BufferId>& touched = phase_buffers_[pi];
  const std::size_t cls = phase_class_[pi];
  const bool use_sig = touched.size() <= 64;
  std::uint64_t sig = 0;
  if (use_sig) {
    for (std::size_t k = 0; k < touched.size(); ++k) {
      const bool in_dram = mode_ == Mode::kDramOnly ||
                           placements[touched[k]] == Placement::kDram;
      if (in_dram) sig |= std::uint64_t{1} << k;
    }
    std::lock_guard<std::mutex> lock(sig_mu_[cls % sig_mu_.size()]);
    for (const SigEntry& e : sig_memo_[cls]) {
      if (e.sig == sig) {
        sig_hits_.fetch_add(1, std::memory_order_relaxed);
        return e.time;
      }
    }
  }

  // Route every stream exactly as MemorySystem::route_stream does for the
  // non-cached modes: socket shares by NUMA home, UPI bytes for remote
  // shares, lane = socket*2 + (dram ? 0 : 1).
  DeviceDemand dem[4] = {};
  double upi_bytes = 0.0;
  for (const StreamDesc& s : phase.streams) {
    std::uint64_t share[2] = {0, 0};
    if (numa_ < 0) {
      share[0] = s.bytes / 2;
      share[1] = s.bytes - share[0];
    } else {
      share[numa_] = s.bytes;
    }
    const bool in_dram =
        mode_ == Mode::kDramOnly || placements[s.buffer] == Placement::kDram;
    for (int sck = 0; sck < 2; ++sck) {
      if (share[sck] == 0) continue;
      if (sck != 0) upi_bytes += static_cast<double>(share[sck]);
      dem[static_cast<std::size_t>(sck) * 2 + (in_dram ? 0 : 1)].add(
          s.pattern, s.dir, share[sck], s.granule);
    }
  }
  scratch.resize(nlanes_);
  for (std::size_t i = 0; i < nlanes_; ++i) {
    scratch[i] = {dem[i], &lane_dev_[i], kLaneLabels[i]};
  }

  const ResolveKey key = make_resolve_key(phase, scratch, config_.cpu,
                                          upi_bytes, config_.upi_bw);
  double time = 0.0;
  if (!memo_.lookup(key, &time)) {
    const MultiResolution multi = resolve_lanes(phase, scratch, config_.cpu,
                                                upi_bytes, config_.upi_bw);
    time = multi.time;
    memo_.insert(key, time);
  }
  if (use_sig) {
    std::lock_guard<std::mutex> lock(sig_mu_[cls % sig_mu_.size()]);
    bool present = false;
    for (const SigEntry& e : sig_memo_[cls]) {
      if (e.sig == sig) {
        present = true;  // racing evaluation beat us; values are pure
        break;
      }
    }
    if (!present) sig_memo_[cls].push_back(SigEntry{sig, time});
  }
  return time;
}

double ReplayEvaluator::sum_with(const std::vector<std::size_t>& affected,
                                 const std::vector<double>& new_times) const {
  // Left-to-right fold in phase order — the same additions, in the same
  // order, as the replay clock (clock += time per submit), so the result
  // is bit-identical to a full replay.
  double total = 0.0;
  std::size_t k = 0;
  for (std::size_t pi = 0; pi < times_.size(); ++pi) {
    if (k < affected.size() && affected[k] == pi) {
      total += new_times[k++];
    } else {
      total += times_[pi];
    }
  }
  return total;
}

double ReplayEvaluator::full_replay(const PlacementPlan& plan) const {
  full_replays_.fetch_add(1, std::memory_order_relaxed);
  MemorySystem sys = factory_();
  sys.set_resolve_cache(&fallback_cache_);
  return rec_->replay(sys, &plan);
}

std::vector<Placement> ReplayEvaluator::overridden(
    const PlacementPlan& plan) const {
  std::vector<Placement> out;
  out.reserve(rec_->buffers.size());
  for (const RecordedBuffer& b : rec_->buffers) {
    const Placement p = plan.lookup(b.name);
    out.push_back(p == Placement::kAuto ? b.placement : p);
  }
  return out;
}

double ReplayEvaluator::evaluate_flip(std::size_t buffer, Placement p) const {
  require(buffer < rec_->buffers.size(),
          "replay evaluator: unknown buffer index");
  evals_.fetch_add(1, std::memory_order_relaxed);
  const Placement effective =
      p == Placement::kAuto ? rec_->buffers[buffer].placement : p;
  if (!incremental_) {
    PlacementPlan plan = plan_;
    plan.set(rec_->buffers[buffer].name, effective);
    return full_replay(plan);
  }
  std::vector<Placement> placements = placements_;
  placements[buffer] = effective;
  check_fits(placements);
  const std::vector<std::size_t>& affected = phases_of_buffer_[buffer];
  std::vector<double> new_times(affected.size());
  std::vector<LaneDemand> scratch;
  for (std::size_t k = 0; k < affected.size(); ++k) {
    new_times[k] = phase_time(affected[k], placements, scratch);
  }
  return sum_with(affected, new_times);
}

double ReplayEvaluator::evaluate(const PlacementPlan& plan) const {
  evals_.fetch_add(1, std::memory_order_relaxed);
  if (!incremental_) return full_replay(plan);
  const std::vector<Placement> placements = overridden(plan);
  check_fits(placements);
  double total = 0.0;
  std::vector<LaneDemand> scratch;
  for (std::size_t pi = 0; pi < rec_->phases.size(); ++pi) {
    total += phase_time(pi, placements, scratch);
  }
  return total;
}

void ReplayEvaluator::commit_flip(std::size_t buffer, Placement p) {
  require(buffer < rec_->buffers.size(),
          "replay evaluator: unknown buffer index");
  const Placement effective =
      p == Placement::kAuto ? rec_->buffers[buffer].placement : p;
  plan_.set(rec_->buffers[buffer].name, effective);
  if (!incremental_) {
    placements_[buffer] = effective;
    current_ = full_replay(plan_);
    return;
  }
  std::vector<Placement> placements = placements_;
  placements[buffer] = effective;
  check_fits(placements);
  std::vector<LaneDemand> scratch;
  for (const std::size_t pi : phases_of_buffer_[buffer]) {
    times_[pi] = phase_time(pi, placements, scratch);
  }
  placements_ = std::move(placements);
  double total = 0.0;
  for (const double t : times_) total += t;
  current_ = total;
}

ReplayEvalStats ReplayEvaluator::stats() const {
  ReplayEvalStats s;
  s.evals = evals_.load(std::memory_order_relaxed);
  s.full_replays = full_replays_.load(std::memory_order_relaxed);
  // Memory mode has no phase memo (every evaluation is a full replay), so
  // its phase-cache view stays zero; the fallback cache is the stream memo.
  if (incremental_) {
    s.phase_cache = memo_.stats();
    // Fold the first-level signature hits into the phase-cache view: a
    // shape-memo miss is the only time a fixed point actually runs.
    s.phase_cache.hits += sig_hits_.load(std::memory_order_relaxed);
  }
  s.stream_memo = fallback_cache_.stats();
  return s;
}

void ReplayEvaluator::publish(MetricsRegistry& m) const {
  const ReplayEvalStats s = stats();
  m.set(m.gauge("placement.evals"), static_cast<double>(s.evals));
  m.set(m.gauge("placement.full_replays"),
        static_cast<double>(s.full_replays));
  m.set(m.gauge("placement.phase_cache.hits"),
        static_cast<double>(s.phase_cache.hits));
  m.set(m.gauge("placement.phase_cache.misses"),
        static_cast<double>(s.phase_cache.misses));
  m.set(m.gauge("placement.phase_cache.hit_rate"), s.phase_cache.hit_rate());
}

}  // namespace nvms
