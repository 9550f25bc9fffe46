// RrStore — append-only RR-set storage with an inverted index and an
// optional out-of-core cold tier (split out of rr_collection.h; the
// per-advertiser coverage views live there).
//
// Two-tier layout (Table 3 at paper scale):
//
//   hot  (resident)  — flat columnar set storage (offsets + concatenated
//                      members) for sets [first_resident_set, num_sets),
//                      plus the CSR + chained-postings inverted index over
//                      exactly those sets;
//   cold (spilled)   — sets [0, first_resident_set) evicted to an
//                      append-only columnar chunk file (spill_file.h),
//                      readable only through sequential chunk scans.
//
// Eviction moves a *prefix*: set ids are adoption order, so the oldest,
// fully-adopted sets go cold first (they are exactly the sets no adoption
// or index append will touch again; a coverage view only revisits them
// when a committed seed covers one — the chunk-scan path). The spill
// policy (when and how much to evict) lives in tiered_store.h; this class
// only provides the mechanism.
//
// Inverted-index layout (unchanged from the resident-only design): a
// compacted CSR base — one flat ascending set-id array plus per-node
// offsets — covering everything indexed at the last compaction, plus
// per-node chains of fixed-size posting blocks for sets appended since.
// Appends go to the chains in O(1); once the chained postings reach the
// CSR's size, the whole index is rebuilt as one CSR (a transpose of the
// resident flat storage — optionally sharded across a ThreadPool and
// merged in node order), so compaction work is O(resident postings)
// amortized and the bulk of every node's postings stays cache-linear for
// RemoveCoveredBy scans. Per-posting overhead is ~4 bytes in the base
// (exact-fit) versus the old vector<vector> layout's geometric capacity
// slack. A spill rebuilds the index the same way, so the index never
// holds a spilled id.
//
// Node-clustered chunk layout: within one eviction batch, sets are
// ordered by their ANCHOR — the minimum member node id, which under the
// usual hub-first numbering is the set's most influential member — and
// that order is carved into target-sized chunks (a stable counting sort;
// the layout is a pure function of the batch's members, never of load).
// Sets sharing a dominant member land in the same chunks, so when that
// member is committed as a seed every set containing it dies at once and
// whole chunks drop out of later scans via the caller's alive filter;
// chunks whose sets have no low-id member get a tight node_min envelope
// and are skipped for hub queries without any I/O. Clustered chunks carry
// an explicit ascending id list (sparse chunks, spill_file.h). The gate
// is a pure function of num_nodes: tiny graphs keep the dense zero-copy
// carve, since every chunk would contain the whole member universe
// anyway.
//
// Determinism: nothing here draws randomness. Spilling changes only WHERE
// set bytes live, never their values or the order scans visit them: cold
// chunks stream in deterministic file order with ids ascending WITHIN each
// chunk (globally ascending only until clustering interleaves a batch's id
// ranges), then the hot index ascending. Consumers' per-set applies
// commute across that reorder (RemoveCoveredBy sets alive flags and
// decrements per-ad sums — order-independent per distinct id), so any
// computation over the store is bit-identical at any spill schedule,
// worker count, queue depth, or memory budget.

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
class SpillChunkCursor;
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
  /// only producer of RR sets. When `pool` is given, a compaction triggered
  /// by the batch builds the index sharded across the pool (bit-identical
  /// to the serial build). `provenance_seed` records that every appended
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
  /// order (CSR base first, then the append chains — both append in id
  /// order, so views can stop scanning at their adopted prefix). fn
  /// returns false to stop early; ForEachSetContaining returns false iff
  /// stopped. Spilled sets are reachable only through
  /// ForEachSpilledSetContaining.
  template <typename Fn>
  bool ForEachSetContaining(graph::NodeId v, Fn&& fn) const {
    for (uint64_t k = csr_offsets_[v]; k < csr_offsets_[v + 1]; ++k) {
      if (!fn(csr_sets_[k])) return false;
    }
    if (!chain_head_.empty()) {
      for (uint32_t b = chain_head_[v]; b != kNoBlock; b = blocks_[b].next) {
        const PostingBlock& blk = blocks_[b];
        for (uint32_t k = 0; k < blk.count; ++k) {
          if (!fn(blk.ids[k])) return false;
        }
      }
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
  /// file in columnar chunks of ~options.chunk_target_bytes, drops their
  /// members and offsets from memory (exact-fit shrink, so MemoryBytes
  /// genuinely falls), and rebuilds the inverted index over the remaining
  /// hot sets (sharded across `pool` when given). The caller must
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
  /// whose members contain `v` — in deterministic chunk (file) order, ids
  /// ascending within each chunk (globally ascending only while no
  /// node-clustered batch interleaves ranges; fn must commute across chunk
  /// reorder, which coverage removal does). Chunks whose footer metadata
  /// excludes `v` — id range at or beyond max_id, node-envelope miss, or
  /// Bloom-filter miss (spill_file.h) — are skipped without touching
  /// disk; the rest are streamed through a SpillChunkCursor, which keeps
  /// up to the spill ring depth of further chunks' reads in flight
  /// (io_uring, pool workers, or plain pread) while chunk k is applied.
  /// fn always runs serially in list order, so the call sequence is
  /// identical at any queue depth. A non-empty `alive` byte span (one
  /// byte per set id, nonzero = pass; must cover every id below max_id)
  /// pre-filters set ids BEFORE the membership test — callers pass their
  /// alive flags, so already-covered sets — the common case among old
  /// spilled sets — cost one byte load, not a member scan. A raw span
  /// rather than a predicate: the test runs once per spilled set per
  /// scan, far too hot for an indirect call. Counters: one
  /// scan_reloads() tick per call that consulted the cold tier; each
  /// considered chunk lands in chunks_read() or chunks_skipped(). A chunk
  /// whose read permanently fails is healed in place — re-read once, then
  /// re-sampled from provenance (see SetResampler) — so SpillIoError
  /// escapes only when recovery itself is impossible.
  void ForEachSpilledSetContaining(
      graph::NodeId v, uint64_t max_id, ThreadPool* pool,
      std::span<const uint8_t> alive,
      const std::function<void(uint64_t, std::span<const graph::NodeId>)>&
          fn) const;

  /// A cold scan in flight: created by StartColdScan (filter + first read
  /// issued), drained by FinishColdScan. Lets callers overlap the scan's
  /// disk reads with unrelated compute between the two calls (see
  /// RrCollection::PrefetchRemoveCoveredBy).
  struct ColdScan {
    ColdScan();
    ~ColdScan();
    graph::NodeId node = 0;
    uint64_t max_id = 0;
    /// Every candidate chunk, ascending. Chunks already in the recovery
    /// cache are served from memory; the rest stream through `cursor`
    /// (which covers exactly the non-recovered subset, in order).
    std::vector<uint32_t> chunks;
    std::unique_ptr<SpillChunkCursor> cursor;
  };

  /// First half of ForEachSpilledSetContaining: selects the candidate
  /// chunks (updating the scan counters) and starts the first chunk read.
  /// Returns null when the cold tier contributes nothing to this scan —
  /// no spill, no chunk overlapping [0, max_id), or every overlapping
  /// chunk filtered out. A non-empty `alive` span adds a fourth
  /// footer-only skip test: a chunk none of whose mirrored set ids
  /// (dense range or sparse list, capped at max_id) is alive is skipped
  /// without I/O — under the clustered layout whole chunks die when
  /// their anchor node is committed as a seed, so this skip grows
  /// stronger as the greedy run progresses. The span must match the one
  /// later given to FinishColdScan (monotone narrowing is fine: ids can
  /// die between the calls, never revive).
  std::unique_ptr<ColdScan> StartColdScan(
      graph::NodeId v, uint64_t max_id, ThreadPool* pool,
      std::span<const uint8_t> alive = {}) const;
  /// Second half: streams the scan's chunks and applies alive/fn in
  /// ascending id order (contract as above). Consumes the scan.
  void FinishColdScan(
      ColdScan& scan, std::span<const uint8_t> alive,
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
  /// valid for every future cold scan. Without one, a permanent cold-read
  /// fault propagates as SpillIoError (the pre-recovery fail-stop path).
  void SetResampler(ResampleFn fn) { resampler_ = std::move(fn); }

  /// Recovery events: unreadable chunks healed by re-sampling (one event
  /// per chunk) and the total sets regenerated. Recovered chunks live in a
  /// resident cache (charged to MemoryBytes) and are never read from disk
  /// again.
  uint64_t degradation_events() const { return degradation_events_; }
  uint64_t recovered_sets() const { return recovered_sets_; }
  /// Bounded-retry counters of the spill I/O layer (see SpillFile).
  uint64_t spill_retries() const;
  uint64_t spill_retry_successes() const;

  /// Bytes of this store's sets on disk (0 = never spilled). Non-resident:
  /// excluded from MemoryBytes, reported separately for Table 3.
  uint64_t SpilledBytes() const;
  /// Chunks in the spill file.
  uint64_t SpillChunks() const;
  /// Cold-tier scan passes: coverage-removal scans that had at least one
  /// chunk overlapping their id range (whether or not any chunk was read).
  uint64_t scan_reloads() const { return scan_reloads_; }
  /// Chunks fetched across all scans — from disk or, after a recovery,
  /// from the resident recovered-chunk cache.
  uint64_t chunks_read() const { return chunks_read_; }
  /// Overlapping chunks skipped without disk I/O (envelope or Bloom miss).
  uint64_t chunks_skipped() const { return chunks_skipped_; }
  /// High-water mark of cold-chunk reads in flight over all scans (0 until
  /// a scan actually overlapped reads; bounded by the spill ring depth).
  uint64_t reads_in_flight_peak() const { return reads_in_flight_peak_; }
  /// True when cold scans currently read through O_DIRECT: the spill
  /// file's direct fd is open (SpillFile::direct_io_active) AND the file
  /// has outgrown SpillOptions::direct_io_min_bytes — below that, scans
  /// deliberately stay on the buffered fd, where the bytes the spill just
  /// wrote are plain page-cache hits. False before any spill.
  bool direct_io_active() const;
  /// Direct-read failures healed by buffered re-reads (SpillFile).
  uint64_t direct_fallbacks() const;

  // ---- Accounting. ----

  /// RESIDENT heap footprint: flat arrays, inverted index, scratch
  /// buffers, and the spill file's in-memory footer mirror. Spilled set
  /// bytes live on disk and are excluded — see SpilledBytes().
  uint64_t MemoryBytes() const;
  /// Inverted-index share of MemoryBytes (CSR + chains; hot sets only).
  uint64_t IndexBytes() const;
  /// What the pre-CSR vector<vector<uint32_t>> index would report for the
  /// same (hot) postings (per-node capacity from push_back doubling).
  /// Diagnostic for the Table 3 memory comparison.
  uint64_t LegacyIndexBytes() const;

 private:
  static constexpr uint32_t kNoBlock = UINT32_MAX;
  static constexpr uint32_t kPostingBlockCap = 14;
  // 64 bytes — one cache line per chain hop.
  struct PostingBlock {
    uint32_t next = kNoBlock;
    uint32_t count = 0;
    uint32_t ids[kPostingBlockCap];
  };

  // Appends posting (v -> id) to v's chain.
  void ChainAppend(graph::NodeId v, uint32_t id);
  // Indexes the sets appended since the last IndexTail call: chains them,
  // or — once the postings outside the CSR base reach the base's size —
  // rebuilds the base as the transpose of the hot flat storage (sharded
  // across `pool` when given and worthwhile) and drops the chains.
  void IndexTail(ThreadPool* pool);
  void RebuildIndex(ThreadPool* pool);
  // Drops sets [first_resident_, new_first) from the resident columns
  // (exact-fit rebuild of both arrays) and re-indexes the hot remainder.
  void DropPrefix(uint64_t new_first, ThreadPool* pool);

  graph::NodeId num_nodes_;
  uint64_t first_resident_ = 0;
  uint64_t total_postings_ = 0;           // over ALL sets, spilled included
  // Resident columns: rr_offsets_[i] is the start of set
  // (first_resident_ + i) in rr_nodes_; size = resident sets + 1,
  // rr_offsets_[0] == 0.
  std::vector<uint64_t> rr_offsets_;
  std::vector<graph::NodeId> rr_nodes_;

  // Inverted index over hot sets: CSR base + per-node overflow chains
  // (see file comment).
  std::vector<uint64_t> csr_offsets_;     // num_nodes + 1
  std::vector<uint32_t> csr_sets_;
  std::vector<PostingBlock> blocks_;
  std::vector<uint32_t> chain_head_;      // per node, kNoBlock-terminated;
  std::vector<uint32_t> chain_tail_;      //   allocated on first chain use
  uint64_t chained_postings_ = 0;
  uint64_t indexed_sets_ = 0;             // prefix covered by CSR + chains

  // Cold tier (created on first SpillPrefix). The scan counters mutate on
  // const scans; updated only from the (single) thread calling
  // StartColdScan / FinishColdScan, never from the prefetch backend.
  std::unique_ptr<SpillFile> spill_;
  // Queue depth for scan cursors (SpillOptions::io_ring_depth, recorded
  // at spill time; the default matches AsyncFileReader::kDefaultDepth).
  uint32_t scan_ring_depth_ = 16;
  // Scan-side direct-read gate (SpillOptions::direct_io_min_bytes,
  // recorded at spill time): scans use the O_DIRECT fd only once the file
  // holds at least this many bytes. See ScanDirectReads().
  uint64_t scan_direct_min_bytes_ = 64ull << 20;
  mutable uint64_t scan_reloads_ = 0;
  mutable uint64_t chunks_read_ = 0;
  mutable uint64_t chunks_skipped_ = 0;
  mutable uint64_t reads_in_flight_peak_ = 0;

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
  // Like the scan counters, this state mutates on const scans and is only
  // touched from the single thread draining FinishColdScan.
  struct RecoveredChunk {
    std::vector<uint32_t> sizes;
    std::vector<graph::NodeId> nodes;
  };
  const RecoveredChunk& RecoverChunk(uint32_t chunk) const;
  // Whether a cold scan started now would use the O_DIRECT fd (the
  // direct_io_min_bytes gate) — the scan-level truth direct_io_active()
  // reports.
  bool ScanDirectReads() const;
  mutable std::map<uint32_t, RecoveredChunk> recovered_;
  mutable uint64_t recovered_bytes_ = 0;  // cache footprint, in MemoryBytes
  mutable uint64_t degradation_events_ = 0;
  mutable uint64_t recovered_sets_ = 0;
};

}  // namespace isa::rrset

#endif  // ISA_RRSET_RR_STORE_H_
