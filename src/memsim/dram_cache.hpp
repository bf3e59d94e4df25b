// Direct-mapped write-back DRAM cache (Intel "Memory mode").
//
// In Memory mode the platform uses all of DRAM as a hardware-managed
// direct-mapped write-back cache in front of the NVM (Sec. II-A).  We
// simulate a tag array at a configurable line granularity over the
// simulator's virtual address space, with optional set sampling to bound
// cost.  The outcome of a stream is the traffic split it induces:
//
//   * read hit   -> DRAM read
//   * read miss  -> NVM read (fetch) + DRAM write (fill) + DRAM read
//   * write hit  -> DRAM write (line marked dirty)
//   * write miss -> NVM read (allocate) + DRAM write (fill + store)
//   * dirty evict-> DRAM read + NVM write
//
// The fill-on-miss DRAM writes are what make cached-NVM write traffic to
// DRAM *exceed* the DRAM-only baseline (Fig. 4).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "obs/epoch_probe.hpp"
#include "simcore/rng.hpp"
#include "trace/pattern.hpp"

namespace nvms {

class IntraContext;  // simcore/thread_pool.hpp — intra-run worker lanes

// The stream-walk memo lives with the other memoization machinery in
// resolve_cache.hpp; DramCache only borrows a pointer.
template <typename Value>
class ShardedMemo;
struct CachedStreamOutcome;
using StreamMemo = ShardedMemo<CachedStreamOutcome>;

struct CacheParams {
  std::uint64_t line = 4096;      ///< simulated line granularity, bytes
  std::uint64_t capacity = 0;     ///< bytes (the DRAM size)
  std::uint64_t max_sets = 1u << 16;  ///< simulate at most this many sets
  std::uint64_t seed = 0xCACE;

  /// Conflict-miss model for physically-scattered pages: a direct-mapped
  /// cache whose sets are filled beyond `conflict_knee` occupancy starts
  /// converting hits into conflict misses, ramping quadratically up to
  /// `conflict_max` at full occupancy.  Calibrated so near-capacity
  /// footprints (Hypre at ~85-90%) lose the ~28% the paper measures while
  /// half-full footprints are unaffected.
  double conflict_knee = 0.7;
  double conflict_max = 0.95;

  void validate() const;

  /// Conflict-miss fraction at a given occupancy in [0,1].
  double conflict_rate(double occupancy) const;
};

/// Byte-level traffic split caused by a stream through the cache.
struct CacheOutcome {
  std::uint64_t dram_read = 0;
  std::uint64_t dram_write = 0;
  std::uint64_t nvm_read = 0;  ///< streaming refills (capacity/cold misses)
  /// Isolated conflict-miss refetches: scattered single-line reads, served
  /// at the NVM's large-granule random efficiency rather than as bursts.
  std::uint64_t nvm_read_scattered = 0;
  std::uint64_t nvm_write = 0;
  std::uint64_t hits = 0;    ///< line touches that hit (scaled by sampling)
  std::uint64_t misses = 0;  ///< line touches that missed (scaled)

  CacheOutcome& operator+=(const CacheOutcome& o);
};

/// One access of a batched epoch: the stream plus the buffer range it
/// touches (see DramCache::walk_batch).
struct CacheAccessRequest {
  StreamDesc stream;
  std::uint64_t base = 0;
  std::uint64_t size = 0;
};

/// Exact strength-reduced n % d for an invariant divisor: one 128-bit
/// multiply plus a conditional subtract replaces the hardware divide
/// (20-40 cycles on the walk kernel's critical path).  With
/// magic = floor((2^64-1)/d) the estimate floor(n*magic / 2^64) is
/// floor(n/d) or one below it for every n (the error term
/// n*(1+(2^64-1) mod d) / (d*2^64) is < 1), so a single subtract
/// corrects the remainder; d == 1 also lands exactly (q = n-1, r = 1,
/// corrected to 0).  Identical results to n % d, bit for bit.
struct FastMod {
  std::uint64_t d = 1;
  std::uint64_t magic = ~0ull;

  void init(std::uint64_t div) {
    d = div;
    magic = ~0ull / div;
  }
  std::uint64_t mod(std::uint64_t n) const {
    __extension__ typedef unsigned __int128 u128;
    const auto q =
        static_cast<std::uint64_t>((static_cast<u128>(n) * magic) >> 64);
    std::uint64_t r = n - q * d;
    if (r >= d) r -= d;
    return r;
  }
  /// Exact n / d under the same estimate-plus-correction argument: the
  /// raw quotient is floor(n/d) or one below, so one conditional
  /// increment lands it.  Bit-identical to hardware division.
  std::uint64_t div(std::uint64_t n) const {
    __extension__ typedef unsigned __int128 u128;
    auto q = static_cast<std::uint64_t>((static_cast<u128>(n) * magic) >> 64);
    if (n - q * d >= d) ++q;
    return q;
  }
};

class DramCache {
 public:
  explicit DramCache(const CacheParams& params);

  /// Run `stream` through the cache.  The stream touches the address range
  /// [base, base + size) of its buffer; sequential streams walk it
  /// cyclically, random streams sample lines uniformly.  Single-access
  /// wrapper over walk_batch().
  CacheOutcome access(const StreamDesc& stream, std::uint64_t base,
                      std::uint64_t size);

  /// Batched access: run a whole epoch's accesses through the cache in
  /// order, writing the i-th outcome into out[i].  Byte-identical to n
  /// access() calls — memo lookups, history-digest folds and probe
  /// emissions happen per access in sequence — but the key scratch and
  /// the walk state stay hot across the batch, and the sampled walks run
  /// the strength-reduced SoA tag loop (walk kernel) instead of the
  /// per-touch call chain.
  void walk_batch(const CacheAccessRequest* reqs, std::size_t n,
                  CacheOutcome* out);

  /// Drop all cached state (between experiment runs).
  void reset();

  std::uint64_t sets() const { return sets_; }
  std::uint64_t sample_mod() const { return sample_mod_; }
  /// Fraction of (sampled) sets holding a valid line.
  double occupancy() const;

  /// Telemetry: when attached, every access() emits epoch samples of the
  /// cache occupancy, hit rate and conflict-miss rate (device
  /// "dram-cache") stamped at the epoch time the owner set last.
  void set_probe(EpochProbe* probe) { probe_ = probe; }
  void set_epoch_time(double t) { epoch_t_ = t; }

  /// Stream-walk memoization.  access() is deterministic in the full
  /// access history since construction/reset (geometry, seed, every
  /// (stream, base, size) in order), so each call is keyed by a 128-bit
  /// digest of that history plus the current access and its sampled walk
  /// is skipped on a memo hit.  Skipped walks leave the tag array and
  /// walk counter behind; they are recorded and deterministically
  /// replayed the moment a miss needs real state again (divergent
  /// trajectories pay a one-time catch-up, identical trajectories never
  /// walk).  Outcomes, counters and epoch telemetry are byte-identical
  /// with and without a memo.
  void set_memo(StreamMemo* memo) { memo_ = memo; }

  /// Attach (or detach with nullptr) the intra-run lane context: with a
  /// width > 1 context, big sampled walks shard across worker lanes by
  /// cache-set partition — disjoint slot ranges per worker, per-block RNG
  /// streams, counters folded in fixed order — so the outcome, tag state
  /// and every downstream byte are identical for any lane count.
  void set_intra(IntraContext* intra) { intra_ = intra; }

 private:
  /// Two independent 64-bit folds over the access history; 128 bits make
  /// digest collisions (the one probabilistic element of the memo)
  /// negligible at any realistic sweep size.
  struct HistoryDigest {
    std::uint64_t lo = 0xCBF29CE484222325ull;  // FNV-1a offset basis
    std::uint64_t hi = 0x9E3779B97F4A7C15ull;  // golden-ratio constant
    void fold(std::uint64_t w) {
      lo = (lo ^ w) * 0x100000001B3ull;        // FNV-1a prime
      hi = (hi ^ w) * 0xC2B2AE3D27D4EB4Full;   // independent odd multiplier
    }
  };
  struct PendingAccess {
    StreamDesc stream;
    std::uint64_t base = 0;
    std::uint64_t size = 0;
  };
  /// Per-worker counter slot of one sharded walk.  Workers accumulate
  /// into their own slot; the caller folds the slots after the barrier.
  /// All five are exact integer sums over disjoint slot ranges, so the
  /// fold order cannot change the totals — determinism is by
  /// construction, the fixed fold order is belt and braces.
  struct WalkShard {
    std::uint64_t hit = 0;
    std::uint64_t miss = 0;
    std::uint64_t evict = 0;
    std::uint64_t cold = 0;
    std::uint64_t visited = 0;
  };
  /// Upper bound on set-partition shards of one sequential/strided walk.
  static constexpr int kMaxWalkShards = 32;
  /// Stratified draw blocks of one random walk (fixed, so the block
  /// decomposition — and with it every RNG stream — is identical no
  /// matter how many workers execute the blocks).
  static constexpr int kRandomBlocks = 16;
  /// Minimum sampled touches before a walk shards: below this the
  /// barrier handoff costs more than the touch loop.  Measured with every
  /// walk forced to shard, on the testbed geometry (24,576 slots) on a
  /// 4-core 2 GHz Xeon VM, one walk at 2 lanes vs 1: a sequential walk
  /// spread over every slot first wins at 32,768 touches (1.09x) and
  /// clearly at 65,536 (1.22x); a random walk over a buffer larger than
  /// the cache wins from 2,048 draws (1.13x; 1.61x at 65,536).  One bound
  /// serves both, so it takes the sequential crossover.  (First-touch
  /// walks never shard.)
  static constexpr std::uint64_t kIntraMinWork = 1 << 16;

  CacheOutcome touch(std::uint64_t line_addr, bool is_write);
  /// The sampled walk behind access(): advances tags/dirty/RNG and returns
  /// the outcome plus the probe-replay signals.  Emits no telemetry.
  /// Dispatches to walk_soa(), or to walk_reference() under
  /// set_reference_kernels(true) / -DNVMS_REFERENCE_KERNELS.
  CachedStreamOutcome walk(const StreamDesc& stream, std::uint64_t base,
                           std::uint64_t size);
  /// Count-accumulating walk kernel: strength-reduced line/set index math
  /// (no per-line modulo), branch-light tag updates, per-outcome byte
  /// totals built once from hit/miss/evict counts.  The touched set and
  /// the tag/dirty/valid trajectory match walk_reference() bit for bit;
  /// the draws consumed need not.  A random walk whose sampled lines fit
  /// the cache and that draws at least one touch per line resolves by
  /// first touch: each slot then sees one line only, its first touch
  /// decides the outcome and leaves the slot settled, so every later draw
  /// of it is a hit that changes nothing.  The walk stops drawing a block
  /// once its unsettled slots are all touched and counts the rest as
  /// hits; the unconsumed draws belong to a per-(walk, block) stream that
  /// nothing else reads.  A sequential walk over a buffer that fits an
  /// unsampled cache resolves the same way: it touches each distinct line
  /// once, in order, and counts every repeat as a hit.
  CachedStreamOutcome walk_soa(const StreamDesc& stream, std::uint64_t base,
                               std::uint64_t size);
  /// The pre-SoA per-touch walk, kept verbatim as the bit-exact oracle.
  CachedStreamOutcome walk_reference(const StreamDesc& stream,
                                     std::uint64_t base, std::uint64_t size);
  /// Shared walk tail: conflict-miss conversion and sampling scale-up of
  /// the sampled counts (identical statements to the reference tail).
  CachedStreamOutcome finish_walk(const StreamDesc& stream,
                                  CacheOutcome sampled,
                                  std::uint64_t touches,
                                  std::uint64_t simulated);
  /// Emit the epoch samples of one (real or memo-replayed) access.
  void emit_probe(const CachedStreamOutcome& c);
  void fold_access(const StreamDesc& stream, std::uint64_t base,
                   std::uint64_t size);
  /// Replay every pending (memo-skipped) walk to rebuild real state.
  void catch_up();
  /// Snap `line` to a sampled set without leaving its buffer: the naive
  /// downward snap can land below `base_line` and alias the tail of the
  /// previous buffer (phantom hits/evictions against another buffer's
  /// lines).  Clamps into [base_line, base_line + lines_in_buf) whenever a
  /// sampled line exists there; buffers smaller than sample_mod_ lines may
  /// span no sampled set at all, in which case the nearest sampled line is
  /// kept (deterministic, aliasing bounded by sample_mod_ lines).
  std::uint64_t snap_line(std::uint64_t line, std::uint64_t base_line,
                          std::uint64_t lines_in_buf) const;

  EpochProbe* probe_ = nullptr;
  double epoch_t_ = 0.0;
  CacheParams params_;
  std::uint64_t sets_ = 0;  ///< total sets in the modelled cache
  /// Simulate sets where set % mod == 0.  Invariant: sample_mod_ divides
  /// sets_, so (line % sets_) % sample_mod_ == line % sample_mod_ and
  /// snapping stays uniform across the address space (the ctor stops
  /// doubling rather than break this).
  std::uint64_t sample_mod_ = 1;
  /// log2(sample_mod_): sampling doubles from 1, so the mod is a power of
  /// two and slot = set >> sample_shift_ in the walk kernel.
  std::uint32_t sample_shift_ = 0;
  /// Division-free line -> set mapping (sets_ is rarely a power of two).
  FastMod sets_mod_;
  std::vector<std::uint64_t> tags_;  ///< per sampled set; kEmpty when invalid
  std::vector<std::uint8_t> dirty_;
  std::uint64_t valid_ = 0;
  /// Ordinal of the current walk since construction.  Random walks derive
  /// their draw streams from (seed, walk ordinal, draw block), so the
  /// stream a block sees depends only on *which* walk and block it is —
  /// never on which worker lane runs it or on any other walk's draw
  /// count.  Incremented by the walk() dispatcher (reference kernel
  /// included) and deliberately NOT cleared by reset(), mirroring the
  /// history digest: the post-reset trajectory still depends on the
  /// prefix length.  Memo-skipped walks advance it during catch-up
  /// replay, exactly like the tag state.
  std::uint64_t walk_counter_ = 0;
  /// Per-block draw stream of walk `walk_counter_` (see above).
  Rng block_rng(std::uint64_t block) const;
  /// Borrowed intra-run lane context (MemorySystem re-attaches its own
  /// every submit).  nullptr or width 1 keeps every walk scalar.
  IntraContext* intra_ = nullptr;
  /// Sharded-walk counter slots (member, so steady-state walks allocate
  /// nothing; only slots [0, workers) of a given walk are touched).
  std::array<WalkShard, kMaxWalkShards> shard_{};
  /// First-touch walk bitmap over sampled-line indices: bit j is set
  /// while line j's slot is still unsettled in the current walk.  Sized
  /// for nslots lines at construction (first-touch walks have at most
  /// that many), so the walk allocates nothing.
  std::vector<std::uint64_t> unsettled_;

  StreamMemo* memo_ = nullptr;
  HistoryDigest chain0_;  ///< digest of the geometry/seed (construction)
  /// Digest of chain0_ + every access (and reset) so far.  reset() folds a
  /// marker rather than restoring chain0_ because the RNG keeps its state
  /// across reset — the post-reset trajectory still depends on the prefix.
  HistoryDigest chain_;
  /// Accesses whose walks a memo hit skipped, in order — replayed to
  /// rebuild tags/dirty/RNG when a miss needs real state again.
  std::vector<PendingAccess> pending_;
  /// catch_up() replay buffer, a member so long memo-hit runs followed by
  /// a miss burst replay without reallocating per catch-up.
  std::vector<PendingAccess> replay_scratch_;

  static constexpr std::uint64_t kEmpty = ~0ull;
  static constexpr std::uint64_t kResetMarker = 0x5245534554ull;  // "RESET"
};

}  // namespace nvms
