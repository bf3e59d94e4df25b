// DRAM-cache stream memoization: the simulator's result cache.
//
// DramCache::access is deterministic in the full access history since
// construction, and a sweep's thread dimension never changes that history,
// so the Memory-mode cells of a grid re-walk identical sampler
// trajectories.  DramCache keys each access by a digest of its history
// (see DramCache::set_memo) and skips the walk on a hit — the walks are
// where the bulk of a Memory-mode sweep's wall clock goes.  ResolveCache
// is that memo.
//
// Attach rule: a hit needs an earlier system that walked the same
// trajectory, and the keys chain a monotonic history digest, so a lone run
// can never hit its own inserts.  A cache is therefore attached only where
// trajectories recur: the cells of a multi-cell sweep, nvmsimd's
// process-lifetime cache, and the placement evaluator's Memory-mode
// replays.
//
// Byte-identical-replay invariant: a hit must be observationally
// indistinguishable from walking.  The cached value therefore carries the
// traffic split plus the internal signals DramCache needs to re-emit the
// walk's epoch-telemetry samples at the current virtual time.  CSV, trace
// and metrics exports are byte-identical between cache-off and cache-on
// runs at any worker count (asserted by tests/test_resolve_cache).
//
// Concurrency: the memo is mutex-striped over N shards (default: one per
// executor worker) keyed by the upper hash bits, so one shared instance
// serves the whole experiment grid with minimal contention.  Values are
// pure, so racing inserts of the same key are idempotent.
//
// ResolveKey and make_resolve_key() live here too: the placement
// evaluator's phase-time memo (placement/replay_evaluator.hpp) keys on
// them.
#pragma once

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "memsim/cpu.hpp"
#include "memsim/dram_cache.hpp"
#include "memsim/resolve.hpp"
#include "obs/metrics.hpp"
#include "simcore/thread_pool.hpp"

namespace nvms {

/// Whether a run or sweep memoizes DRAM-cache stream walks.
///   * kOff    — always walk (the baseline).
///   * kShared — one mutex-striped cache serves every cell of a
///               multi-cell grid, or the caller's process-lifetime cache
///               (SweepSpec::external_cache) serves the run.
enum class ResolveCacheMode { kOff, kShared };

const char* to_string(ResolveCacheMode m);
/// Parse "off" | "shared"; nullopt on anything else.
std::optional<ResolveCacheMode> parse_resolve_cache_mode(
    const std::string& s);

/// Normalized cache key: a flat word sequence hashed FNV-1a style.  Equal
/// word sequences are equal keys; the full sequence is kept so collisions
/// degrade to an equality check, never to a wrong result.
class ResolveKey {
 public:
  void add_word(std::uint64_t w) {
    words_.push_back(w);
    hash_ = (hash_ ^ w) * kFnvPrime;
  }
  void add_double(double v);  ///< bit pattern; -0.0 normalized to +0.0

  /// Reset to the empty key, keeping the word storage's capacity — lets a
  /// hot loop rebuild keys allocation-free.
  void clear() {
    words_.clear();
    hash_ = kFnvOffset;
  }

  std::uint64_t hash() const { return hash_; }
  const std::vector<std::uint64_t>& words() const { return words_; }

  bool operator==(const ResolveKey& o) const { return words_ == o.words_; }

 private:
  // FNV-1a offset basis / prime (64-bit), folding whole words at a time.
  static constexpr std::uint64_t kFnvOffset = 0xCBF29CE484222325ull;
  static constexpr std::uint64_t kFnvPrime = 0x100000001B3ull;
  std::vector<std::uint64_t> words_;
  std::uint64_t hash_ = kFnvOffset;
};

/// Build the normalized key for one resolve_lanes() call.  The key covers
/// exactly the inputs the resolver reads — per-lane demands, the lane
/// labels (cosmetic, but they name the telemetry channels), every
/// DeviceParams field the capacity/latency/WPQ models consult, the phase
/// timing fields (threads clamped to cpu.max_threads(), matching the
/// resolver), the CPU compute model and the UPI constraint.  Phase `name`
/// and `streams` are deliberately excluded: they never reach the resolver.
ResolveKey make_resolve_key(const Phase& phase,
                            const std::vector<LaneDemand>& lanes,
                            const CpuParams& cpu, double upi_bytes,
                            double upi_bw);

/// Monotonic cache statistics snapshot.
struct ResolveCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::size_t entries = 0;

  double hit_rate() const {
    const double total = static_cast<double>(hits + misses);
    return total > 0.0 ? static_cast<double>(hits) / total : 0.0;
  }
};

/// Memoized DramCache stream walk (see DramCache::set_memo): the traffic
/// split of one access() plus the internal signals needed to replay its
/// epoch-telemetry samples byte-identically on a later hit.
struct CachedStreamOutcome {
  CacheOutcome outcome;
  double occupancy = 0.0;  ///< post-access occupancy (probe replay)
  double conflict = 0.0;   ///< conflict-miss fraction applied (probe replay)
  bool simulated = true;   ///< false: the walk visited nothing, no samples
};

/// Mutex-striped memo table, ResolveKey -> Value, with hit/miss/eviction
/// accounting.  `shards` = 0 picks one shard per default executor worker.
/// The entry budget is split evenly across shards; each shard evicts its
/// oldest insertion (ring replacement) once full.  Values must be pure
/// functions of their key, so racing inserts are idempotent.
template <typename Value>
class ShardedMemo {
 public:
  static constexpr std::size_t kDefaultMaxEntries = 1u << 16;

  explicit ShardedMemo(std::size_t shards = 0,
                       std::size_t max_entries = kDefaultMaxEntries) {
    if (shards == 0) {
      shards =
          static_cast<std::size_t>(std::max(1, ThreadPool::default_jobs()));
    }
    shards_ = std::vector<Shard>(shards);
    max_entries_per_shard_ = std::max<std::size_t>(1, max_entries / shards);
  }

  bool lookup(const ResolveKey& key, Value* out) const {
    Shard& s = shard_for(key);
    std::lock_guard<std::mutex> lock(s.mu);
    const auto it = s.map.find(key);
    if (it == s.map.end()) {
      ++s.misses;
      return false;
    }
    ++s.hits;
    if (out != nullptr) *out = it->second;
    return true;
  }

  void insert(const ResolveKey& key, Value value) {
    Shard& s = shard_for(key);
    std::lock_guard<std::mutex> lock(s.mu);
    const auto [it, inserted] = s.map.try_emplace(key, std::move(value));
    (void)it;
    if (!inserted) return;  // racing miss already resolved this key
    if (s.map.size() > max_entries_per_shard_) {
      // Ring replacement: evict the shard's oldest insertion and reuse its
      // ring slot for the newcomer.
      s.map.erase(s.ring[s.ring_next]);
      s.ring[s.ring_next] = key;
      s.ring_next = (s.ring_next + 1) % s.ring.size();
      ++s.evictions;
    } else {
      s.ring.push_back(key);
    }
  }

  /// Snapshot of the cache statistics.  Counters live inside their shard
  /// and are read under the same mutex that orders the map operations, so
  /// each shard's contribution is internally consistent: within a shard
  /// the published gauges always satisfy `entries + evictions <= misses`
  /// and `hits + misses == lookups`.  (A previous revision kept global
  /// relaxed atomics next to mutexed maps; a publish() racing a sweep
  /// could then observe an entry whose miss was not counted yet — stale,
  /// mutually inconsistent gauges.  Summing per-shard-consistent snapshots
  /// preserves the invariants, since they are closed under addition.)
  ResolveCacheStats stats() const {
    ResolveCacheStats out;
    for (const auto& s : shards_) {
      std::lock_guard<std::mutex> lock(s.mu);
      out.hits += s.hits;
      out.misses += s.misses;
      out.evictions += s.evictions;
      out.entries += s.map.size();
    }
    return out;
  }

  /// Publish the current statistics into a MetricsRegistry as gauges:
  /// <prefix>.hits / .misses / .evictions / .entries / .hit_rate.
  /// Idempotent (gauges, not counters), so callers can re-publish.
  /// Deliberately not wired into per-task telemetry: with a shared cache
  /// the hit pattern depends on worker interleaving, and per-task exports
  /// must stay byte-identical for any jobs count.
  void publish(MetricsRegistry& m, const std::string& prefix) const {
    const ResolveCacheStats s = stats();
    m.set(m.gauge(prefix + ".hits"), static_cast<double>(s.hits));
    m.set(m.gauge(prefix + ".misses"), static_cast<double>(s.misses));
    m.set(m.gauge(prefix + ".evictions"), static_cast<double>(s.evictions));
    m.set(m.gauge(prefix + ".entries"), static_cast<double>(s.entries));
    m.set(m.gauge(prefix + ".hit_rate"), s.hit_rate());
  }

 private:
  struct KeyHash {
    std::size_t operator()(const ResolveKey& k) const {
      return static_cast<std::size_t>(k.hash());
    }
  };
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<ResolveKey, Value, KeyHash> map;
    /// Insertion ring for eviction order.
    std::vector<ResolveKey> ring;
    std::size_t ring_next = 0;
    /// Statistics, guarded by `mu` like the map they describe (see
    /// stats() for why they are not free-standing atomics).
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
  };

  Shard& shard_for(const ResolveKey& key) const {
    // The map already consumes the low hash bits; stripe on the high ones.
    return shards_[(key.hash() >> 48) % shards_.size()];
  }

  mutable std::vector<Shard> shards_;
  std::size_t max_entries_per_shard_ = 1;
};

/// The one cache object plumbed through sweep/CLI/daemon into every
/// attached MemorySystem's DramCache: the stream memo itself.
class ResolveCache : public StreamMemo {
 public:
  explicit ResolveCache(std::size_t shards = 0,
                        std::size_t max_entries = kDefaultMaxEntries)
      : StreamMemo(shards, max_entries) {}

  /// Alias of stats() that names the memo explicitly.
  ResolveCacheStats stream_stats() const { return stats(); }

  /// Publish the statistics as stream_memo.* gauges.
  void publish(MetricsRegistry& m) const {
    StreamMemo::publish(m, "stream_memo");
  }
};

}  // namespace nvms
