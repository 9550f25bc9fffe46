// RrStore — append-only RR-set storage with an inverted index and an
// optional out-of-core cold tier (split out of rr_collection.h; the
// per-advertiser coverage views live there).
//
// Two-tier layout (Table 3 at paper scale):
//
//   hot  (resident)  — flat columnar set storage (offsets + concatenated
//                      members) for sets [first_resident_set, num_sets),
//                      plus the CSR inverted index over exactly those
//                      sets;
//   cold (spilled)   — sets [0, first_resident_set) evicted to an
//                      append-only columnar chunk file (spill_file.h) in
//                      dense id-range chunks, each with its own node ->
//                      set postings index on disk; reachable only through
//                      ForEachSpilledSetContaining's targeted reads.
//
// Eviction moves a *prefix*: set ids are adoption order, so the oldest,
// fully-adopted sets go cold first (they are exactly the sets no adoption
// or index append will touch again; a coverage view only revisits them
// when a committed seed covers one — the cold lookup path). The spill
// policy (when and how much to evict) lives in tiered_store.h; this class
// only provides the mechanism.
//
// Inverted-index layout: one exact-fit CSR — a flat ascending set-id
// array plus per-node offsets — over exactly the hot sets, rebuilt on
// every AppendBatch: each node's old slice is copied and the batch's
// postings counting-sorted in behind it (sharded across a ThreadPool when
// given and worthwhile). Algorithm 2 appends only when Eq. 10 raises θ, a
// handful of times per run, so the rebuild's O(hot postings + nodes) copy
// is cheap, and every node's postings stay cache-linear for
// RemoveCoveredBy scans at 4 bytes each.
// A spill slices each cold chunk's postings out of the CSR (evicted ids
// are a prefix of every node's ascending slice) and keeps the suffixes, so
// the index never holds a spilled id.
//
// Chunk layout: an eviction batch is carved in id order into contiguous
// [set_lo, set_hi) chunks of ~chunk_target_bytes, each chunk's member
// column a zero-copy span of the resident storage. The per-chunk postings
// are what let a lookup skip a chunk; the layout itself is a pure function
// of the set sizes and the target, never of load.
//
// Determinism: nothing here draws randomness. Spilling changes only WHERE
// set bytes live, never their values or the order lookups visit them:
// cold chunks ascending in id, then the hot index ascending, so every
// lookup visits set ids globally ascending. Any computation over the
// store is therefore bit-identical at any spill schedule, worker count,
// or memory budget.

#ifndef ISA_RRSET_RR_STORE_H_
#define ISA_RRSET_RR_STORE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "graph/graph.h"

namespace isa {
class ThreadPool;
}

namespace isa::rrset {

class SpillFile;
struct SpillOptions;

/// Append-only flat storage of RR sets with an inverted index and an
/// optional spilled (on-disk) prefix.
///
/// Invariants:
///   - set ids are append order and never change; ids [0,
///     first_resident_set()) are cold, [first_resident_set(), num_sets())
///     are hot;
///   - SetMembers / PostingsInRange / PostingBalancedRanges accept only
///     hot ids;
///   - the inverted index covers exactly the hot sets, each node's
///     postings ascending — consumers that scan cold chunks first and the
///     index second therefore visit set ids globally ascending;
///   - spilling never changes num_sets() or any set's content, so results
///     computed through this class are bit-identical at any budget.
class RrStore {
 public:
  explicit RrStore(graph::NodeId num_nodes);
  ~RrStore();  // out of line: owns the SpillFile via unique_ptr
  RrStore(RrStore&&) noexcept;
  RrStore& operator=(RrStore&&) noexcept;

  /// Appends pre-sampled sets: `sizes[k]` members of set k taken in order
  /// from the concatenated `nodes` — ParallelSampler's batch merge, the
  /// only producer of RR sets — then rebuilds the hot index, sharded
  /// across `pool` when given (bit-identical at any worker count). At most
  /// 2^32 sets in total: the index holds ids as uint32_t (checked).
  /// `provenance_seed` records that every appended
  /// id is reproducible as Rng(HashSeed(provenance_seed, id)) — the
  /// substream contract of ParallelSampler — which makes the ids
  /// recoverable by re-sampling if their spill chunk later becomes
  /// unreadable.
  void AppendBatch(std::span<const graph::NodeId> nodes,
                   std::span<const uint32_t> sizes, ThreadPool* pool,
                   uint64_t provenance_seed);

  /// Total sets ever appended (hot + spilled).
  uint64_t num_sets() const {
    return first_resident_ + rr_offsets_.size() - 1;
  }
  graph::NodeId num_nodes() const { return num_nodes_; }

  /// Members of set `r`. Precondition: r is hot (>= first_resident_set()).
  std::span<const graph::NodeId> SetMembers(uint64_t r) const {
    const uint64_t i = r - first_resident_;
    return {rr_nodes_.data() + rr_offsets_[i],
            rr_nodes_.data() + rr_offsets_[i + 1]};
  }

  /// Total members over hot sets [lo, hi) — the work measure parallel
  /// consumers gate their worker counts on.
  uint64_t PostingsInRange(uint64_t lo, uint64_t hi) const {
    return rr_offsets_[hi - first_resident_] -
           rr_offsets_[lo - first_resident_];
  }

  /// Splits hot sets [lo, hi) into `workers` contiguous ranges of roughly
  /// equal postings (RR-set sizes are power-law skewed, so equal set
  /// counts would not balance work). Returns workers + 1 ascending bounds.
  std::vector<uint64_t> PostingBalancedRanges(uint64_t lo, uint64_t hi,
                                              uint32_t workers) const;

  /// Calls fn(set_id) for every HOT set containing `v`, in ascending id
  /// order (v's CSR slice, so views can stop scanning at their adopted
  /// prefix). fn returns false to stop early; ForEachSetContaining returns
  /// false iff stopped. Spilled sets are reachable only through
  /// ForEachSpilledSetContaining.
  template <typename Fn>
  bool ForEachSetContaining(graph::NodeId v, Fn&& fn) const {
    for (uint64_t k = csr_offsets_[v]; k < csr_offsets_[v + 1]; ++k) {
      if (!fn(csr_sets_[k])) return false;
    }
    return true;
  }

  /// Ids of the hot sets containing `v`, ascending, materialized (tests
  /// and diagnostics; hot paths use ForEachSetContaining).
  std::vector<uint32_t> SetsContaining(graph::NodeId v) const;

  /// Mean cardinality over ALL stored sets, spilled included.
  double MeanSetSize() const;

  // ---- Spill tier (mechanism; policy in tiered_store.h). ----

  /// Evicts resident sets [first_resident_set(), new_first) to the spill
  /// file in columnar chunks of ~options.chunk_target_bytes with postings
  /// sliced out of the CSR, trims the evicted ids off the index (both over
  /// node ranges across `pool` when given; the writes stay serial), and
  /// drops their members and offsets from memory (exact-fit shrink, so
  /// MemoryBytes genuinely falls). The caller must
  /// guarantee every evicted id is fully adopted by every view of this
  /// store — views never re-read adopted members except through
  /// ForEachSpilledSetContaining. No-op when new_first <=
  /// first_resident_set().
  void SpillPrefix(uint64_t new_first, const SpillOptions& options,
                   ThreadPool* pool = nullptr);

  /// First set id still resident; ids below are on disk (0 = nothing
  /// spilled).
  uint64_t first_resident_set() const { return first_resident_; }

  /// Invokes fn(set_id, members) for every SPILLED set with id < max_id
  /// whose members contain `v` and whose `alive` byte is nonzero (an
  /// empty span passes every id; otherwise it must cover every id below
  /// max_id) — ids ascending (chunks tile ascending id ranges in file
  /// order). Per chunk overlapping [0, max_id): no I/O when v lies outside
  /// the node envelope; else one read of v's postings offsets (equal
  /// offsets = v absent, the chunk is skipped), one read of v's set-index
  /// slice, and per set that survives the max_id and alive filters one
  /// read of its member offsets and one of its members. A
  /// chunk's hits are all read before fn sees any of them, so a failed
  /// read never leaves a chunk half applied. Runs on the calling thread.
  /// Counters: one scan_reloads() tick per call with at least one chunk
  /// overlapping [0, max_id); each such chunk lands in chunks_read() when
  /// it yielded at least one set, else in chunks_skipped(). A read that
  /// still fails after the bounded retries heals the chunk in place by
  /// re-sampling it from provenance (see SetResampler), so SpillIoError
  /// escapes only when recovery itself is impossible.
  void ForEachSpilledSetContaining(
      graph::NodeId v, uint64_t max_id, std::span<const uint8_t> alive,
      const std::function<void(uint64_t, std::span<const graph::NodeId>)>&
          fn) const;

  // ---- Self-healing (re-sample recovery of unreadable cold chunks). ----

  /// Regenerates sets [lo, hi) from their recorded provenance seed:
  /// `sizes` gets one cardinality per id, `nodes` the concatenated
  /// members, both cleared first — the AppendBatch shape. Must reproduce
  /// the ORIGINAL bits: implementations call RrSampler::SampleIds(seed,
  /// lo, hi - lo, ...), the loop ParallelSampler's workers run.
  using ResampleFn = std::function<void(
      uint64_t seed, uint64_t lo, uint64_t hi, std::vector<uint32_t>* sizes,
      std::vector<graph::NodeId>* nodes)>;

  /// Installs the re-sampler used to recover a cold chunk whose disk read
  /// permanently failed (AdvertiserEngine registers one capturing its
  /// graph + probabilities; any member of a share_samples group works —
  /// their Eq. 1 probabilities are bitwise identical, and per-range
  /// provenance seeds carry the per-ad substream). The callable must stay
  /// valid for every future cold lookup. Without one, a permanent
  /// cold-read fault propagates as SpillIoError (fail-stop).
  void SetResampler(ResampleFn fn) { resampler_ = std::move(fn); }

  /// Recovery events: unreadable chunks healed by re-sampling (one event
  /// per chunk) and the total sets regenerated. Recovered chunks live in a
  /// resident cache (charged to MemoryBytes) and are never read from disk
  /// again; lookups scan their cached members.
  uint64_t degradation_events() const { return degradation_events_; }
  uint64_t recovered_sets() const { return recovered_sets_; }
  /// Bounded-retry counters of the spill I/O layer (see SpillFile).
  uint64_t spill_retries() const;
  uint64_t spill_retry_successes() const;

  /// The chunk file (nullptr = never spilled), for layout inspection.
  const SpillFile* spill_file() const { return spill_.get(); }
  /// Bytes of this store's sets on disk (0 = never spilled). Non-resident:
  /// excluded from MemoryBytes, reported separately for Table 3.
  uint64_t SpilledBytes() const;
  /// Chunks in the spill file.
  uint64_t SpillChunks() const;
  /// Cold-tier lookups: ForEachSpilledSetContaining calls that had at
  /// least one chunk overlapping their id range.
  uint64_t scan_reloads() const { return scan_reloads_; }
  /// Overlapping chunks that yielded at least one set (read from disk or,
  /// after a recovery, from the resident recovered-chunk cache).
  uint64_t chunks_read() const { return chunks_read_; }
  /// Overlapping chunks that yielded nothing: v outside the envelope,
  /// absent from the chunk's postings, or present only in sets filtered
  /// out by max_id or the alive flags.
  uint64_t chunks_skipped() const { return chunks_skipped_; }

  // ---- Accounting. ----

  /// RESIDENT heap footprint: flat arrays, inverted index, scratch
  /// buffers, and the spill file's in-memory footer mirror. Spilled set
  /// bytes live on disk and are excluded — see SpilledBytes().
  uint64_t MemoryBytes() const;
  /// Inverted-index share of MemoryBytes: the exact-fit CSR over the hot
  /// sets, (num_nodes + 1) * 8 + hot postings * 4 bytes.
  uint64_t IndexBytes() const;

 private:
  // Rebuilds the exact-fit CSR over the hot sets, of which the old CSR
  // covers those below `lo`: copies its slices and counting-sorts the sets
  // from `lo` on in behind them, sharded across `pool` when given and
  // worthwhile.
  void RebuildIndex(uint64_t lo, ThreadPool* pool);

  graph::NodeId num_nodes_;
  uint64_t first_resident_ = 0;
  uint64_t total_postings_ = 0;           // over ALL sets, spilled included
  // Resident columns: rr_offsets_[i] is the start of set
  // (first_resident_ + i) in rr_nodes_; size = resident sets + 1,
  // rr_offsets_[0] == 0.
  std::vector<uint64_t> rr_offsets_;
  std::vector<graph::NodeId> rr_nodes_;

  // Inverted index over hot sets (see file comment).
  std::vector<uint64_t> csr_offsets_;     // num_nodes + 1
  std::vector<uint32_t> csr_sets_;

  // Cold tier (created on first SpillPrefix). The lookup counters mutate
  // on const lookups, which run on a single thread at a time.
  std::unique_ptr<SpillFile> spill_;
  mutable uint64_t scan_reloads_ = 0;
  mutable uint64_t chunks_read_ = 0;
  mutable uint64_t chunks_skipped_ = 0;

  // ---- re-sample recovery state ----

  // Which provenance seed regenerates which id range. Ranges ascend and
  // tile [0, num_sets()) without gaps (consecutive same-seed appends
  // coalesce).
  struct ProvenanceRange {
    uint64_t lo;
    uint64_t hi;
    uint64_t seed;
  };
  std::vector<ProvenanceRange> provenance_;
  ResampleFn resampler_;

  // A chunk healed by re-sampling: its columns, resident for the rest of
  // the run (the disk copy is presumed bad forever). Keyed by chunk index.
  // Like the lookup counters, this state mutates on const lookups.
  struct RecoveredChunk {
    std::vector<uint32_t> sizes;
    std::vector<graph::NodeId> nodes;
  };
  const RecoveredChunk& RecoverChunk(uint32_t chunk) const;
  mutable std::map<uint32_t, RecoveredChunk> recovered_;
  mutable uint64_t recovered_bytes_ = 0;  // cache footprint, in MemoryBytes
  mutable uint64_t degradation_events_ = 0;
  mutable uint64_t recovered_sets_ = 0;
};

}  // namespace isa::rrset

#endif  // ISA_RRSET_RR_STORE_H_
