#include "memsim/dram_cache.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "memsim/resolve_cache.hpp"
#include "simcore/error.hpp"
#include "simcore/thread_pool.hpp"

namespace nvms {

namespace {

std::uint64_t double_bits(double v) {
  std::uint64_t bits;
  static_assert(sizeof bits == sizeof v);
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

}  // namespace

void CacheParams::validate() const {
  require(line >= 64 && (line & (line - 1)) == 0,
          "cache line must be a power of two >= 64");
  require(capacity >= line, "cache capacity smaller than one line");
  require(max_sets > 0, "cache max_sets must be positive");
  require(conflict_knee >= 0.0 && conflict_knee <= 1.0,
          "conflict_knee must be in [0,1]");
  require(conflict_max >= 0.0 && conflict_max <= 1.0,
          "conflict_max must be in [0,1]");
}

double CacheParams::conflict_rate(double occupancy) const {
  if (occupancy <= conflict_knee) return 0.0;
  const double x =
      (occupancy - conflict_knee) / std::max(1.0 - conflict_knee, 1e-9);
  const double clamped = std::min(x, 1.0);
  return conflict_max * clamped * clamped;
}

CacheOutcome& CacheOutcome::operator+=(const CacheOutcome& o) {
  dram_read += o.dram_read;
  dram_write += o.dram_write;
  nvm_read += o.nvm_read;
  nvm_read_scattered += o.nvm_read_scattered;
  nvm_write += o.nvm_write;
  hits += o.hits;
  misses += o.misses;
  return *this;
}

DramCache::DramCache(const CacheParams& params) : params_(params) {
  params_.validate();
  sets_ = params_.capacity / params_.line;
  sample_mod_ = 1;
  // Grow the sampling stride only while it divides the set count: the
  // snap/clamp arithmetic in access() needs (line % sets_) % sample_mod_
  // == line % sample_mod_ to hold uniformly.
  while (sets_ / sample_mod_ > params_.max_sets &&
         sets_ % (sample_mod_ * 2) == 0) {
    sample_mod_ *= 2;
  }
  sample_shift_ = 0;
  while ((1ull << sample_shift_) < sample_mod_) ++sample_shift_;
  sets_mod_.init(sets_);
  tags_.assign(sets_ / sample_mod_, kEmpty);
  dirty_.assign(tags_.size(), 0);
  unsettled_.assign((tags_.size() + 63) / 64, 0);
  // Root of the history digest: everything besides the access sequence
  // that the walk outcomes depend on.
  chain0_.fold(params_.line);
  chain0_.fold(params_.capacity);
  chain0_.fold(params_.max_sets);
  chain0_.fold(params_.seed);
  chain0_.fold(double_bits(params_.conflict_knee));
  chain0_.fold(double_bits(params_.conflict_max));
  chain_ = chain0_;
}

void DramCache::reset() {
  // The walk counter deliberately keeps counting across reset(), so the
  // real trajectory must be caught up first (skipped walks advance the
  // counter during replay).
  catch_up();
  std::fill(tags_.begin(), tags_.end(), kEmpty);
  std::fill(dirty_.begin(), dirty_.end(), 0);
  valid_ = 0;
  chain_.fold(kResetMarker);
}

void DramCache::catch_up() {
  if (pending_.empty()) return;
  // Replay the walks that memo hits skipped, in order: the walk is
  // deterministic, so this rebuilds exactly the tag/dirty/RNG state a
  // memo-less run would hold here.  Outcomes are already known; discard.
  // The replay runs through the same batched walk kernel as a live miss,
  // out of a member buffer so a long hit run followed by a miss burst
  // catches up without allocating.
  replay_scratch_.clear();
  replay_scratch_.swap(pending_);
  for (const auto& p : replay_scratch_) (void)walk(p.stream, p.base, p.size);
}

void DramCache::fold_access(const StreamDesc& stream, std::uint64_t base,
                            std::uint64_t size) {
  chain_.fold((static_cast<std::uint64_t>(stream.pattern) << 32) |
              (static_cast<std::uint64_t>(stream.dir) << 16) |
              static_cast<std::uint64_t>(stream.reuse));
  chain_.fold(stream.bytes);
  chain_.fold(stream.granule);
  chain_.fold(stream.reuse_block);
  chain_.fold(base);
  chain_.fold(size);
}

double DramCache::occupancy() const {
  return tags_.empty()
             ? 0.0
             : static_cast<double>(valid_) / static_cast<double>(tags_.size());
}

CacheOutcome DramCache::touch(std::uint64_t line_addr, bool is_write) {
  CacheOutcome out;
  const std::uint64_t set = line_addr % sets_;
  NVMS_ASSERT(set % sample_mod_ == 0, "touch on unsampled set");
  const std::uint64_t slot = set / sample_mod_;
  const std::uint64_t L = params_.line;
  if (tags_[slot] == line_addr) {
    out.hits = 1;
    if (is_write) {
      dirty_[slot] = 1;
      out.dram_write = L;
    } else {
      out.dram_read = L;
    }
    return out;
  }
  out.misses = 1;
  if (tags_[slot] != kEmpty && dirty_[slot]) {
    // dirty eviction: read victim from DRAM, write it back to NVM
    out.dram_read += L;
    out.nvm_write += L;
  }
  if (tags_[slot] == kEmpty) ++valid_;
  tags_[slot] = line_addr;
  // allocate: fetch from NVM, fill into DRAM
  out.nvm_read += L;
  out.dram_write += L;
  if (is_write) {
    dirty_[slot] = 1;
    out.dram_write += L;  // the store itself
  } else {
    dirty_[slot] = 0;
    out.dram_read += L;  // the load consumes the filled line
  }
  return out;
}

std::uint64_t DramCache::snap_line(std::uint64_t line,
                                   std::uint64_t base_line,
                                   std::uint64_t lines_in_buf) const {
  std::uint64_t snapped = line - (line % sets_) % sample_mod_;
  // The downward snap can cross base_line into the previous buffer;
  // stepping one sampled set up (sets_ % sample_mod_ == 0 keeps it
  // sampled) returns into this buffer whenever it holds a sampled line.
  if (snapped < base_line) snapped += sample_mod_;
  if (snapped >= base_line + lines_in_buf && snapped >= sample_mod_) {
    snapped -= sample_mod_;  // degenerate: no sampled line in the buffer
  }
  return snapped;
}

CacheOutcome DramCache::access(const StreamDesc& stream, std::uint64_t base,
                               std::uint64_t size) {
  const CacheAccessRequest req{stream, base, size};
  CacheOutcome out;
  walk_batch(&req, 1, &out);
  return out;
}

void DramCache::walk_batch(const CacheAccessRequest* reqs, std::size_t n,
                           CacheOutcome* out) {
  // The memo key is rebuilt per access (its history digest changes), but
  // its word storage is hoisted out of the loop so a batch pays at most
  // one allocation, not one per access.
  ResolveKey key;
  for (std::size_t i = 0; i < n; ++i) {
    const StreamDesc& stream = reqs[i].stream;
    const std::uint64_t base = reqs[i].base;
    const std::uint64_t size = reqs[i].size;
    // Empty accesses touch no state; keep them out of the history digest
    // so both sides of a memo stay consistent for free.
    if (stream.bytes == 0 || size == 0) {
      out[i] = CacheOutcome{};
      continue;
    }

    if (memo_ == nullptr) {
      fold_access(stream, base, size);  // keep the digest attachable mid-run
      const CachedStreamOutcome computed = walk(stream, base, size);
      emit_probe(computed);
      out[i] = computed.outcome;
      continue;
    }

    // Key = digest of the full prior history + this access, exactly.  Word
    // equality pins the current access; the 128-bit digest pins the
    // history.
    key.clear();
    key.add_word(chain_.lo);
    key.add_word(chain_.hi);
    key.add_word((static_cast<std::uint64_t>(stream.pattern) << 32) |
                 (static_cast<std::uint64_t>(stream.dir) << 16) |
                 static_cast<std::uint64_t>(stream.reuse));
    key.add_word(stream.bytes);
    key.add_word(stream.granule);
    key.add_word(stream.reuse_block);
    key.add_word(base);
    key.add_word(size);
    fold_access(stream, base, size);

    CachedStreamOutcome hit;
    if (memo_->lookup(key, &hit)) {
      // Skip the walk; remember it so a later miss can rebuild real state.
      pending_.push_back({stream, base, size});
      emit_probe(hit);
      out[i] = hit.outcome;
      continue;
    }
    catch_up();
    const CachedStreamOutcome computed = walk(stream, base, size);
    memo_->insert(key, computed);
    emit_probe(computed);
    out[i] = computed.outcome;
  }
}

CachedStreamOutcome DramCache::walk(const StreamDesc& stream,
                                    std::uint64_t base, std::uint64_t size) {
  // Stamp the walk ordinal before dispatch so both kernels (and a
  // catch-up replay) see the identical per-walk RNG stream root.
  ++walk_counter_;
  return use_reference_kernels() ? walk_reference(stream, base, size)
                                 : walk_soa(stream, base, size);
}

Rng DramCache::block_rng(std::uint64_t block) const {
  // Derive the draw stream from (seed, walk ordinal, block ordinal) with
  // two chained splitmix64 steps — the standard stream-splitting idiom.
  // Distinct (walk, block) pairs land in distinct splitmix sequences, and
  // the derivation never consumes shared mutable state, so any worker
  // lane can materialize any block's stream independently.
  std::uint64_t s1 = params_.seed + 0x9E3779B97F4A7C15ull * walk_counter_;
  const std::uint64_t m1 = splitmix64(s1);
  std::uint64_t s2 = m1 + 0x9E3779B97F4A7C15ull * (block + 1);
  return Rng(splitmix64(s2));
}

// NVMS_HOT: the batched sampled-walk kernel.  Touch outcomes accumulate
// as hit/miss/evict *counts* (exact: every touch moves whole lines, so
// byte totals are count * line), and the sequential path replaces the
// three per-line modulos of the reference with incremental position/set
// arithmetic — valid because stride <= lines_in_buf and the per-step set
// increments are < sets_, so one conditional subtract reduces each.
//
// Big walks shard across intra-run worker lanes by cache-set partition:
//   * random walks split the sampled-line index space into kRandomBlocks
//     slot-disjoint stratified blocks, each with its own RNG stream
//     derived from (seed, walk ordinal, block) — the decomposition is
//     fixed, so any worker count replays the identical draws;
//   * sequential/strided walks give each worker a contiguous slot range:
//     every worker runs the full (cheap, tag-independent) enumeration and
//     touches only the slots it owns, so per-slot tag sequences and the
//     shared budget cutoff are exactly the serial ones.
// Counters are per-shard and folded in fixed slot order after the
// barrier; being exact integer sums over disjoint slots, the totals are
// width-independent by construction.  First-touch walks (below) never
// shard: they touch each distinct line at most once.
CachedStreamOutcome DramCache::walk_soa(const StreamDesc& stream,
                                        std::uint64_t base,
                                        std::uint64_t size) {
  const std::uint64_t L = params_.line;
  const std::uint64_t base_line = base / L;
  const std::uint64_t lines_in_buf = std::max<std::uint64_t>(1, size / L);
  const std::uint64_t touches =
      std::max<std::uint64_t>(1, stream.bytes / L);
  const bool is_write = stream.dir == Dir::kWrite;

  // Count-based touch: identical tag/dirty/valid updates to touch(), with
  // the per-touch CacheOutcome replaced by caller-owned counters (shard
  // locals, so they live in registers regardless of what the tag/dirty
  // stores may alias); valid_ absorbs the cold-fill count once at the
  // end.
  std::uint64_t n_hit = 0;
  std::uint64_t n_miss = 0;
  std::uint64_t n_evict = 0;
  std::uint64_t n_cold = 0;
  std::uint64_t* const tags = tags_.data();
  std::uint8_t* const dirty = dirty_.data();
  const std::uint8_t wbit = is_write ? 1 : 0;
  // Walks settle into long hit or miss runs (sequential streams by
  // construction, random streams once the working set resolves), so the
  // branches predict well and a hit skips both stores; a branchless
  // variant with unconditional stores measured 30-40% slower here.
  const auto touch_slot = [&](std::uint64_t slot, std::uint64_t line,
                              std::uint64_t& hit, std::uint64_t& miss,
                              std::uint64_t& evict, std::uint64_t& cold) {
    const std::uint64_t tag = tags[slot];
    if (tag == line) {
      ++hit;
      if (is_write) dirty[slot] = 1;
    } else {
      ++miss;
      if (tag != kEmpty) {
        evict += dirty[slot];
      } else {
        ++cold;
      }
      tags[slot] = line;
      dirty[slot] = wbit;
    }
  };

  const std::uint64_t sets = sets_;
  const std::uint64_t smask = sample_mod_ - 1;
  const std::uint64_t nslots = tags_.size();
  std::uint64_t simulated = 0;
  if (stream.pattern == Pattern::kRandom) {
    // Sample touches/sample_mod lines uniformly over the buffer's sampled
    // lines (multiples of sample_mod_ in [base_line, end_line)), drawn as
    // kRandomBlocks stratified blocks over the sampled-line index space.
    // Sampled index j maps to slot (slot0 + j mod nslots) mod nslots, so
    // partitioning on r = j mod nslots makes the blocks slot-disjoint:
    // any worker may run any block with no touch racing another block's.
    // Block b covers r in [r_lo, r_hi) and draws its deterministic share
    // n*F(r_hi)/m_total - n*F(r_lo)/m_total of the n draws from its own
    // block_rng(b) stream, where F(x) counts sampled indices with
    // (j mod nslots) < x — the decomposition depends only on the walk
    // geometry, never on the worker count.
    const std::uint64_t n = std::max<std::uint64_t>(1, touches / sample_mod_);
    const std::uint64_t end_line = base_line + lines_in_buf;
    const std::uint64_t first = (base_line + smask) & ~smask;
    const std::uint64_t m_total =
        first < end_line ? ((end_line - first - 1) >> sample_shift_) + 1 : 0;
    const std::uint64_t slot0 = sets_mod_.mod(first) >> sample_shift_;
    const std::uint64_t R = std::min<std::uint64_t>(nslots, m_total);
    const std::uint64_t B =
        std::min<std::uint64_t>(static_cast<std::uint64_t>(kRandomBlocks), R);
    // Deterministic apportionment of the n draws by index-space share
    // (128-bit: n * F can exceed 64 bits for huge streams).
    const auto draws_before = [&](std::uint64_t Fx) {
      __extension__ typedef unsigned __int128 u128;
      return static_cast<std::uint64_t>(static_cast<u128>(n) * Fx / m_total);
    };
    if (m_total == 0) {
      // Degenerate: the buffer spans no sampled line, so the snap/clamp
      // resolves every draw to the nearest sampled line below the buffer
      // — n identical touches, no draws consumed.  The first touch leaves
      // tag == M (and dirty set for a write), so the other n - 1 are
      // hits that change nothing.
      const std::uint64_t M = base_line & ~smask;
      touch_slot(sets_mod_.mod(M) >> sample_shift_, M, n_hit, n_miss,
                 n_evict, n_cold);
      n_hit += n - 1;
    } else if (m_total <= nslots && n >= m_total) {
      // First-touch walk.  The sampled lines fit the cache, so R ==
      // m_total, F(x) == x and u decodes to r = u, k = 0: line j is the
      // only line slot (slot0 + j) mod nslots sees in this walk.  Its
      // first touch decides hit, miss, evict or cold and leaves the slot
      // settled (tag == line, dirty for a write); every later touch is a
      // hit that changes nothing.  So mark the unsettled slots — tag
      // differs, or a write meets a clean line — draw each block only
      // until its marked slots are all touched, and count every other
      // draw as a hit.  The unconsumed draws belong to this walk's
      // block_rng(b), which nothing else reads; blocks touch disjoint
      // slots, so their order is free.  The n >= m_total guard keeps the
      // O(m_total) mark scan off walks that draw fewer touches than the
      // buffer has lines.  No lanes: the work is bounded by the buffer's
      // lines, and a hand-off costs more than the walk.
      std::uint64_t* const unsettled = unsettled_.data();
      std::fill_n(unsettled, (m_total + 63) >> 6, 0);
      for (std::uint64_t b = 0; b < B; ++b) {
        const std::uint64_t lo = R * b / B;
        const std::uint64_t hi = R * (b + 1) / B;
        const std::uint64_t d_hi = draws_before(hi);
        std::uint64_t open = 0;
        std::uint64_t slot = slot0 + lo;
        if (slot >= nslots) slot -= nslots;
        for (std::uint64_t j = lo; j < hi; ++j) {
          const std::uint64_t line = first + (j << sample_shift_);
          if (tags[slot] != line || (is_write && dirty[slot] == 0)) {
            unsettled[j >> 6] |= 1ull << (j & 63);
            ++open;
          }
          if (++slot == nslots) slot = 0;
        }
        Rng rng = block_rng(b);
        std::uint64_t i = draws_before(lo);
        for (; open > 0 && i < d_hi; ++i) {
          const std::uint64_t u = lo + rng.below(hi - lo);
          const std::uint64_t bit = 1ull << (u & 63);
          if ((unsettled[u >> 6] & bit) == 0) {
            ++n_hit;
            continue;
          }
          unsettled[u >> 6] &= ~bit;
          --open;
          std::uint64_t s = slot0 + u;
          if (s >= nslots) s -= nslots;
          touch_slot(s, first + (u << sample_shift_), n_hit, n_miss, n_evict,
                     n_cold);
        }
        n_hit += d_hi - i;
      }
    } else {
      const std::uint64_t q = m_total / nslots;
      const std::uint64_t rem = m_total % nslots;
      const std::uint64_t qp1 = q + 1;
      const std::uint64_t lead = qp1 * rem;  // == F(rem)
      FastMod qp1_mod;
      qp1_mod.init(qp1);
      FastMod q_mod;
      if (q > 0) q_mod.init(q);
      // F(x) = #{sampled j : j mod nslots < x} = q*x + min(x, rem).
      const auto F = [&](std::uint64_t x) {
        return q * x + std::min(x, rem);
      };
      const auto run_block = [&](std::uint64_t b, std::uint64_t& hit,
                                 std::uint64_t& miss, std::uint64_t& evict,
                                 std::uint64_t& cold) {
        const std::uint64_t F_lo = F(R * b / B);
        const std::uint64_t F_hi = F(R * (b + 1) / B);
        const std::uint64_t d_lo = draws_before(F_lo);
        const std::uint64_t d_hi = draws_before(F_hi);
        if (d_lo == d_hi) return;
        const std::uint64_t span = F_hi - F_lo;
        Rng rng = block_rng(b);
        for (std::uint64_t i = d_lo; i < d_hi; ++i) {
          // u indexes the block's sampled lines ordered by (r, k) with
          // j = k*nslots + r; invert u = F(r) + k in closed form (the
          // first rem residues hold q+1 indices each, the rest q).
          const std::uint64_t u = F_lo + rng.below(span);
          std::uint64_t r, k;
          if (u < lead) {
            r = qp1_mod.div(u);
            k = u - r * qp1;
          } else {
            const std::uint64_t v = u - lead;
            const std::uint64_t t = q_mod.div(v);
            r = rem + t;
            k = v - t * q;
          }
          const std::uint64_t line =
              first + ((k * nslots + r) << sample_shift_);
          std::uint64_t slot = slot0 + r;
          if (slot >= nslots) slot -= nslots;
          touch_slot(slot, line, hit, miss, evict, cold);
        }
      };
      IntraPool* pool = (intra_ != nullptr && n >= kIntraMinWork && B > 1)
                            ? intra_->acquire()
                            : nullptr;
      if (pool != nullptr) {
        const std::uint64_t W =
            std::min<std::uint64_t>(static_cast<std::uint64_t>(pool->width()),
                                    B);
        pool->run([&](int wi) {
          const auto w = static_cast<std::uint64_t>(wi);
          if (w >= W) return;
          std::uint64_t hit = 0, miss = 0, evict = 0, cold = 0;
          for (std::uint64_t b = B * w / W; b < B * (w + 1) / W; ++b) {
            run_block(b, hit, miss, evict, cold);
          }
          shard_[w] = {hit, miss, evict, cold, 0};
        });
        for (std::uint64_t w = 0; w < W; ++w) {
          n_hit += shard_[w].hit;
          n_miss += shard_[w].miss;
          n_evict += shard_[w].evict;
          n_cold += shard_[w].cold;
        }
      } else {
        for (std::uint64_t b = 0; b < B; ++b) {
          run_block(b, n_hit, n_miss, n_evict, n_cold);
        }
      }
    }
    simulated = n;
  } else {
    const std::uint32_t reuse = std::max<std::uint32_t>(stream.reuse, 1);
    const std::uint64_t distinct = std::max<std::uint64_t>(touches / reuse, 1);
    const std::uint64_t block_lines =
        std::max<std::uint64_t>(stream.reuse_block / L, 1);
    const std::uint64_t stride =
        distinct >= lines_in_buf
            ? 1
            : std::max<std::uint64_t>(1, lines_in_buf / distinct);
    const std::uint64_t budget = (touches / sample_mod_) + 1;
    // Incremental index steps: advancing one stride adds stride to the
    // position (one wrap subtract) and step_set to the set; a position
    // wrap shifts the set by wrap_set instead.  The per-block entry point
    // is the only remaining modulo, and it goes through the reciprocals.
    FastMod lbuf_mod;
    lbuf_mod.init(lines_in_buf);
    const std::uint64_t step_set = stride % sets;
    const std::uint64_t wrap_set =
        (step_set + sets - lines_in_buf % sets) % sets;
    // One shard walks the full deterministic enumeration but touches only
    // the slots in [slot_lo, slot_hi).  The enumeration (positions, sets,
    // sampling test, budget counting) never reads the tag array, and
    // `visited` counts every enumerated sampled state whether owned or
    // not, so all shards advance and cut off in lockstep with the serial
    // walk; each sampled state is then touched by exactly its owner, in
    // the serial per-slot order.  walk_shard(0, nslots) IS the serial
    // walk.
    const auto walk_shard = [&](std::uint64_t slot_lo, std::uint64_t slot_hi,
                                WalkShard& out_sh) {
      std::uint64_t hit = 0, miss = 0, evict = 0, cold = 0;
      std::uint64_t visited = 0;
      const auto owned_touch = [&](std::uint64_t slot, std::uint64_t line) {
        if (slot < slot_lo || slot >= slot_hi) return;
        touch_slot(slot, line, hit, miss, evict, cold);
      };
      const auto run = [&](bool snap) {
        for (std::uint64_t b = 0;
             b * block_lines < distinct && visited < budget; ++b) {
          const std::uint64_t in_block =
              std::min(block_lines, distinct - b * block_lines);
          // Block entry point, amortized over in_block * reuse lines.
          const std::uint64_t pos0 = lbuf_mod.mod(b * block_lines * stride);
          const std::uint64_t set0 = sets_mod_.mod(base_line + pos0);
          for (std::uint32_t r = 0; r < reuse && visited < budget; ++r) {
            std::uint64_t pos = pos0;
            std::uint64_t set = set0;
            for (std::uint64_t i = 0; i < in_block && visited < budget;
                 ++i) {
              if ((set & smask) == 0) {
                owned_touch(set >> sample_shift_, base_line + pos);
                ++visited;
              } else if (snap) {
                const std::uint64_t line =
                    snap_line(base_line + pos, base_line, lines_in_buf);
                owned_touch(sets_mod_.mod(line) >> sample_shift_, line);
                ++visited;
              }
              pos += stride;
              std::uint64_t inc = step_set;
              if (pos >= lines_in_buf) {
                pos -= lines_in_buf;
                inc = wrap_set;
              }
              set += inc;
              if (set >= sets) set -= sets;
            }
          }
        }
      };
      // Skip-walk: only 1-in-sample_mod_ states pass the sampling test,
      // so iterating every state wastes ~sample_mod_ iterations per
      // touch.  Between position wraps the set advances by step_set per
      // state, and sample_mod_ divides sets_, so the phase
      // set % sample_mod_ advances by d = step_set % sample_mod_
      // regardless of the mod-sets_ reduction.  The states with phase 0
      // solve k*d = -s (mod 2^m) in closed form — with g = gcd(d, 2^m),
      // hits exist iff g | s, land every 2^m/g states, and the first is
      // (-s/g) * inv(d/g) mod (2^m/g), the inverse by Newton on the odd
      // d/g.  Touches, their order, and the budget/block cutoffs are
      // identical to run(false); only the no-op states between them are
      // jumped over arithmetically.
      const auto run_skip = [&] {
        const std::uint64_t d = step_set & smask;
        std::uint64_t g = sample_mod_;    // gcd(d, sample_mod_) for d == 0
        std::uint32_t gshift = sample_shift_;
        std::uint64_t period = 1;
        std::uint64_t dinv = 0;
        if (d != 0) {
          g = d & (0 - d);  // lowest set bit; d < sample_mod_ keeps g < it
          gshift = static_cast<std::uint32_t>(__builtin_ctzll(g));
          const std::uint64_t dp = d >> gshift;  // odd
          period = sample_mod_ >> gshift;
          std::uint64_t x = dp;  // Newton: x *= 2 - dp*x doubles precision
          for (int it = 0; it < 5; ++it) x *= 2 - dp * x;
          dinv = x;
        }
        const std::uint64_t pmask = period - 1;
        const std::uint64_t pstep = period * stride;
        const std::uint64_t delta = sets_mod_.mod(period * step_set);
        for (std::uint64_t b = 0;
             b * block_lines < distinct && visited < budget; ++b) {
          const std::uint64_t in_block =
              std::min(block_lines, distinct - b * block_lines);
          const std::uint64_t pos0 = lbuf_mod.mod(b * block_lines * stride);
          const std::uint64_t set0 = sets_mod_.mod(base_line + pos0);
          for (std::uint32_t r = 0; r < reuse && visited < budget; ++r) {
            std::uint64_t pos = pos0;
            std::uint64_t set = set0;
            for (std::uint64_t i = 0; i < in_block && visited < budget;) {
              // Segment: states i .. i+kw share no position wrap, so
              // their sets form one arithmetic progression mod sets_.
              const std::uint64_t kw = (lines_in_buf - 1 - pos) / stride;
              const std::uint64_t limit =
                  std::min(kw, in_block - 1 - i);  // last state in block
              const std::uint64_t s = set & smask;
              if ((s & (g - 1)) == 0) {
                std::uint64_t k = ((period - (s >> gshift)) * dinv) & pmask;
                if (k <= limit) {
                  std::uint64_t hpos = pos + k * stride;
                  std::uint64_t hset = sets_mod_.mod(set + k * step_set);
                  while (true) {
                    owned_touch(hset >> sample_shift_, base_line + hpos);
                    if (++visited >= budget) break;
                    k += period;
                    if (k > limit) break;
                    hpos += pstep;
                    hset += delta;
                    if (hset >= sets) hset -= sets;
                  }
                }
              }
              if (kw >= in_block - 1 - i || visited >= budget) break;
              // Wrap advance from state i+kw into the next segment.
              pos += kw * stride + stride - lines_in_buf;
              set = sets_mod_.mod(set + kw * step_set) + wrap_set;
              if (set >= sets) set -= sets;
              i += kw + 1;
            }
          }
        }
      };
      run_skip();
      if (visited == 0) {
        // A stride sharing a factor with sample_mod_ launched from an
        // off-phase base set steps over every sampled set; the plain walk
        // then simulates nothing and the whole stream's traffic vanishes
        // from the model.  Re-walk with each line snapped to its nearest
        // in-buffer sampled set so the stream is still represented.  The
        // shards take this branch in unison: visited counts unowned
        // touches too, so it is the same number in every shard.
        run(/*snap=*/true);
      }
      out_sh = {hit, miss, evict, cold, visited};
    };
    if (sample_mod_ == 1 && lines_in_buf <= sets) {
      // First-touch sequential walk.  State t = b*block_lines + i touches
      // position (t*stride) mod lines_in_buf, so the distinct positions
      // are t*stride for t < min(distinct, lines_in_buf) (stride > 1 only
      // when distinct*stride <= lines_in_buf), and every other state
      // repeats one of them.  The buffer fits the unsampled cache, so each
      // slot sees one line: its first touch decides the outcome and
      // settles it, and every repeat is a hit that changes nothing.  With
      // every state sampled, the budget cuts the enumeration only when
      // distinct == 1.  No lanes: the work is bounded by the buffer's
      // lines, and a hand-off costs more than the walk.
      const std::uint64_t first_touches = std::min(distinct, lines_in_buf);
      std::uint64_t slot = sets_mod_.mod(base_line);
      std::uint64_t line = base_line;
      for (std::uint64_t t = 0; t < first_touches; ++t) {
        touch_slot(slot, line, n_hit, n_miss, n_evict, n_cold);
        line += stride;
        slot += stride;
        if (slot >= sets) slot -= sets;
      }
      simulated = std::min<std::uint64_t>(distinct * reuse, budget);
      n_hit += simulated - first_touches;
    } else if (IntraPool* pool = (intra_ != nullptr &&
                                  budget >= kIntraMinWork && nslots > 1)
                                     ? intra_->acquire()
                                     : nullptr;
               pool != nullptr) {
      const std::uint64_t W = std::min<std::uint64_t>(
          std::min<std::uint64_t>(static_cast<std::uint64_t>(pool->width()),
                                  nslots),
          static_cast<std::uint64_t>(kMaxWalkShards));
      pool->run([&](int wi) {
        const auto w = static_cast<std::uint64_t>(wi);
        if (w >= W) return;
        walk_shard(nslots * w / W, nslots * (w + 1) / W, shard_[w]);
      });
      for (std::uint64_t w = 0; w < W; ++w) {
        NVMS_ASSERT(shard_[w].visited == shard_[0].visited,
                    "sharded walk: divergent enumeration");
        n_hit += shard_[w].hit;
        n_miss += shard_[w].miss;
        n_evict += shard_[w].evict;
        n_cold += shard_[w].cold;
      }
      simulated = shard_[0].visited;
    } else {
      walk_shard(0, nslots, shard_[0]);
      n_hit = shard_[0].hit;
      n_miss = shard_[0].miss;
      n_evict = shard_[0].evict;
      n_cold = shard_[0].cold;
      simulated = shard_[0].visited;
    }
  }
  // Serial fold after the shard barrier, counting cold fills each of
  // which happened on exactly one shard.
  // NVMS_LINT(allow: DET-004, single-threaded fold after the barrier)
  valid_ += n_cold;

  // Expand the counts into the sampled traffic split.  Exact: the
  // reference accumulates += L per touch, so totals are counts * L, and
  // is_write is fixed for the whole walk.
  CacheOutcome sampled;
  sampled.hits = n_hit;
  sampled.misses = n_miss;
  if (is_write) {
    sampled.dram_read = n_evict * L;
    sampled.dram_write = (n_hit + 2 * n_miss) * L;
  } else {
    sampled.dram_read = (n_hit + n_evict + n_miss) * L;
    sampled.dram_write = n_miss * L;
  }
  sampled.nvm_read = n_miss * L;
  sampled.nvm_write = n_evict * L;
  return finish_walk(stream, sampled, touches, simulated);
}

/// Conflict-model and sampling scale-up tail shared by the SoA walk —
/// statement-for-statement the reference tail.
CachedStreamOutcome DramCache::finish_walk(const StreamDesc& stream,
                                           CacheOutcome sampled,
                                           std::uint64_t touches,
                                           std::uint64_t simulated) {
  CacheOutcome total;
  const bool is_write = stream.dir == Dir::kWrite;
  if (simulated == 0) return {total, occupancy(), 0.0, /*simulated=*/false};

  // Conflict-miss model: at high occupancy, physically-scattered pages
  // alias in the direct-mapped cache; convert a fraction of hits into
  // misses with the corresponding fill/writeback traffic.  Hits produced
  // by immediate temporal blocking (the `reuse` repeats) have a reuse
  // distance of one block and are exempt — nothing evicts them that fast.
  const double conflict = params_.conflict_rate(occupancy());
  if (conflict > 0.0 && sampled.hits > 0) {
    std::uint64_t exempt = 0;
    if (stream.pattern != Pattern::kRandom && stream.reuse > 1) {
      exempt = simulated * (stream.reuse - 1) / stream.reuse;
      exempt = std::min(exempt, sampled.hits);
    }
    const auto moved = static_cast<std::uint64_t>(
        static_cast<double>(sampled.hits - exempt) * conflict);
    const std::uint64_t moved_bytes = moved * params_.line;
    sampled.hits -= moved;
    sampled.misses += moved;
    sampled.nvm_read_scattered += moved_bytes;  // isolated line refetch
    sampled.dram_write += moved_bytes;          // fill
    if (is_write) {
      // the displaced victim line was dirty in a write stream
      sampled.nvm_write += moved_bytes;
      sampled.dram_read += moved_bytes;  // victim read-out
    }
  }

  // Scale sampled outcome up to the full touch count.
  const double scale =
      static_cast<double>(touches) / static_cast<double>(simulated);
  auto sc = [scale](std::uint64_t v) {
    return static_cast<std::uint64_t>(static_cast<double>(v) * scale);
  };
  total.dram_read = sc(sampled.dram_read);
  total.dram_write = sc(sampled.dram_write);
  total.nvm_read = sc(sampled.nvm_read);
  total.nvm_read_scattered = sc(sampled.nvm_read_scattered);
  total.nvm_write = sc(sampled.nvm_write);
  total.hits = sc(sampled.hits);
  total.misses = sc(sampled.misses);

  return {total, occupancy(), conflict, /*simulated=*/true};
}

CachedStreamOutcome DramCache::walk_reference(const StreamDesc& stream,
                                              std::uint64_t base,
                                              std::uint64_t size) {
  CacheOutcome total;
  const std::uint64_t L = params_.line;
  const std::uint64_t base_line = base / L;
  const std::uint64_t lines_in_buf = std::max<std::uint64_t>(1, size / L);
  const std::uint64_t touches =
      std::max<std::uint64_t>(1, stream.bytes / L);
  const bool is_write = stream.dir == Dir::kWrite;

  CacheOutcome sampled;
  std::uint64_t simulated = 0;
  if (stream.pattern == Pattern::kRandom) {
    // Sample touches/sample_mod lines uniformly over the buffer's sampled
    // lines — the same blocked stratified draw model as walk_soa (fixed
    // kRandomBlocks decomposition of the sampled-index space, per-block
    // streams from block_rng), executed serially with plain division in
    // place of the reciprocal FastMods: exact operations, so tags,
    // counts and draws are bit-identical to the SoA kernel at any lane
    // count.
    const std::uint64_t n = std::max<std::uint64_t>(1, touches / sample_mod_);
    const std::uint64_t smask = sample_mod_ - 1;
    const std::uint64_t end_line = base_line + lines_in_buf;
    const std::uint64_t first = (base_line + smask) & ~smask;
    const std::uint64_t m_total =
        first < end_line ? ((end_line - first - 1) >> sample_shift_) + 1 : 0;
    if (m_total == 0) {
      // No sampled line in the buffer: every draw resolves to the nearest
      // sampled line below it.
      const std::uint64_t M = base_line & ~smask;
      for (std::uint64_t i = 0; i < n; ++i) {
        sampled += touch(M, is_write);
        ++simulated;
      }
    } else {
      const std::uint64_t nslots = tags_.size();
      const std::uint64_t R = std::min<std::uint64_t>(nslots, m_total);
      const std::uint64_t B =
          std::min<std::uint64_t>(static_cast<std::uint64_t>(kRandomBlocks),
                                  R);
      const std::uint64_t q = m_total / nslots;
      const std::uint64_t rem = m_total % nslots;
      const std::uint64_t qp1 = q + 1;
      const std::uint64_t lead = qp1 * rem;  // == F(rem)
      const auto F = [&](std::uint64_t x) {
        return q * x + std::min(x, rem);
      };
      const auto draws_before = [&](std::uint64_t Fx) {
        __extension__ typedef unsigned __int128 u128;
        return static_cast<std::uint64_t>(static_cast<u128>(n) * Fx /
                                          m_total);
      };
      for (std::uint64_t b = 0; b < B; ++b) {
        const std::uint64_t F_lo = F(R * b / B);
        const std::uint64_t F_hi = F(R * (b + 1) / B);
        const std::uint64_t d_lo = draws_before(F_lo);
        const std::uint64_t d_hi = draws_before(F_hi);
        if (d_lo == d_hi) continue;
        const std::uint64_t span = F_hi - F_lo;
        Rng rng = block_rng(b);
        for (std::uint64_t i = d_lo; i < d_hi; ++i) {
          const std::uint64_t u = F_lo + rng.below(span);
          std::uint64_t r, k;
          if (u < lead) {
            r = u / qp1;
            k = u - r * qp1;
          } else {
            const std::uint64_t v = u - lead;
            const std::uint64_t t = v / q;
            r = rem + t;
            k = v - t * q;
          }
          const std::uint64_t line =
              first + ((k * nslots + r) << sample_shift_);
          sampled += touch(line, is_write);
          ++simulated;
        }
      }
    }
  } else {
    // Sequential / strided walks with temporal blocking: process the
    // buffer in reuse_block-sized chunks, touching each chunk `reuse`
    // times before advancing.  Distinct touches (bytes / reuse) are spread
    // evenly over the buffer when the stream covers less than all of it
    // (strided partial passes), so the whole buffer participates in cache
    // occupancy.
    const std::uint32_t reuse = std::max<std::uint32_t>(stream.reuse, 1);
    const std::uint64_t distinct = std::max<std::uint64_t>(touches / reuse, 1);
    const std::uint64_t block_lines =
        std::max<std::uint64_t>(stream.reuse_block / L, 1);
    const std::uint64_t stride =
        distinct >= lines_in_buf
            ? 1
            : std::max<std::uint64_t>(1, lines_in_buf / distinct);
    std::uint64_t visited = 0;
    const std::uint64_t budget = (touches / sample_mod_) + 1;
    const auto walk = [&](bool snap) {
      for (std::uint64_t b = 0;
           b * block_lines < distinct && visited < budget; ++b) {
        const std::uint64_t in_block =
            std::min(block_lines, distinct - b * block_lines);
        for (std::uint32_t r = 0; r < reuse && visited < budget; ++r) {
          for (std::uint64_t i = 0; i < in_block && visited < budget; ++i) {
            std::uint64_t line =
                base_line + ((b * block_lines + i) * stride) % lines_in_buf;
            if ((line % sets_) % sample_mod_ != 0) {
              if (!snap) continue;
              line = snap_line(line, base_line, lines_in_buf);
            }
            sampled += touch(line, is_write);
            ++visited;
          }
        }
      }
    };
    walk(/*snap=*/false);
    if (visited == 0) {
      // A stride sharing a factor with sample_mod_ launched from an
      // off-phase base set steps over every sampled set; the plain walk
      // then simulates nothing and the whole stream's traffic vanishes
      // from the model.  Re-walk with each line snapped to its nearest
      // in-buffer sampled set so the stream is still represented.
      walk(/*snap=*/true);
    }
    simulated = visited;
  }

  if (simulated == 0) return {total, occupancy(), 0.0, /*simulated=*/false};

  // Conflict-miss model: at high occupancy, physically-scattered pages
  // alias in the direct-mapped cache; convert a fraction of hits into
  // misses with the corresponding fill/writeback traffic.  Hits produced
  // by immediate temporal blocking (the `reuse` repeats) have a reuse
  // distance of one block and are exempt — nothing evicts them that fast.
  const double conflict = params_.conflict_rate(occupancy());
  if (conflict > 0.0 && sampled.hits > 0) {
    std::uint64_t exempt = 0;
    if (stream.pattern != Pattern::kRandom && stream.reuse > 1) {
      exempt = simulated * (stream.reuse - 1) / stream.reuse;
      exempt = std::min(exempt, sampled.hits);
    }
    const auto moved = static_cast<std::uint64_t>(
        static_cast<double>(sampled.hits - exempt) * conflict);
    const std::uint64_t moved_bytes = moved * params_.line;
    sampled.hits -= moved;
    sampled.misses += moved;
    sampled.nvm_read_scattered += moved_bytes;  // isolated line refetch
    sampled.dram_write += moved_bytes;          // fill
    if (is_write) {
      // the displaced victim line was dirty in a write stream
      sampled.nvm_write += moved_bytes;
      sampled.dram_read += moved_bytes;  // victim read-out
    }
  }

  // Scale sampled outcome up to the full touch count.
  const double scale =
      static_cast<double>(touches) / static_cast<double>(simulated);
  auto sc = [scale](std::uint64_t v) {
    return static_cast<std::uint64_t>(static_cast<double>(v) * scale);
  };
  total.dram_read = sc(sampled.dram_read);
  total.dram_write = sc(sampled.dram_write);
  total.nvm_read = sc(sampled.nvm_read);
  total.nvm_read_scattered = sc(sampled.nvm_read_scattered);
  total.nvm_write = sc(sampled.nvm_write);
  total.hits = sc(sampled.hits);
  total.misses = sc(sampled.misses);

  return {total, occupancy(), conflict, /*simulated=*/true};
}

// Epoch telemetry: the internal cache signals (occupancy, achieved hit
// rate, conflict-miss fraction) behind the paper's Memory-mode traces
// (Fig. 4) — one sample per stream access.  The values come from the
// CachedStreamOutcome, so a memo hit replays the exact samples the
// original walk emitted (re-stamped at the current epoch time).
void DramCache::emit_probe(const CachedStreamOutcome& c) {
  if (probe_ == nullptr || !c.simulated) return;
  const double touched =
      static_cast<double>(c.outcome.hits + c.outcome.misses);
  probe_->epoch_sample("cache.occupancy", "dram-cache", epoch_t_,
                       c.occupancy);
  if (touched > 0.0) {
    probe_->epoch_sample("cache.hit_rate", "dram-cache", epoch_t_,
                         static_cast<double>(c.outcome.hits) / touched);
  }
  probe_->epoch_sample("cache.conflict_rate", "dram-cache", epoch_t_,
                       c.conflict);
}

}  // namespace nvms
