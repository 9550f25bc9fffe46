// RrCollection — the per-advertiser coverage state Algorithm 2 needs,
// layered over the (possibly two-tier) RrStore:
//
//   RrStore       — immutable-once-appended flat storage of RR sets plus
//                   the node -> set-ids inverted index, with an optional
//                   spilled cold tier (see rr_store.h).
//   RrCollection  — one advertiser's *view* of a store: which prefix of the
//                   sample it has adopted (θ_j), which sets its chosen seeds
//                   already cover, and live marginal-coverage counts.
//
// A collection can own a private store (the paper's Algorithm 2: one sample
// per advertiser) or share a store with other collections. Sharing
// addresses the paper's open problem (i) — TI-CSRM's memory footprint — for
// the pure-competition marketplaces of §5: ads with identical Eq. 1
// probabilities draw from the same distribution of RR sets, so one physical
// sample serves them all while each advertiser keeps its own θ_j, covered
// flags and coverage counts. See TiOptions::share_samples.
//
// Maintenance operations (per view):
//   - adopt newly sampled sets (latent seed-size growth, Alg. 2 line 19);
//   - coverage counts cov(v) over *alive* adopted sets — covered sets are
//     removed when a seed is chosen (line 14), so cov(v)/θ is exactly the
//     marginal coverage F_R(v | S) given the already-chosen seeds;
//   - removal of all sets covered by a newly selected seed (line 14);
//   - running covered count, giving the spread estimate σ(S) ≈ n·covered/θ
//     that UpdateEstimates (Algorithm 3) maintains when the sample grows.
//
// Spill interplay: the view's per-set alive flags and per-node coverage
// counts always stay resident (1 byte / 4 bytes per entry). Only the set
// MEMBERS go cold, and the view re-reads members in exactly one situation —
// when a committed seed covers a set (RemoveCoveredBy). That path looks the
// seed up in the store's cold chunks first (reading only the alive sets
// that contain it), then in the hot index; since both visit the same sets
// with the same contents as a resident-only store would, every derived
// quantity is bit-identical at any memory budget.

#ifndef ISA_RRSET_RR_COLLECTION_H_
#define ISA_RRSET_RR_COLLECTION_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "rrset/rr_store.h"

namespace isa {
class ThreadPool;
}

namespace isa::rrset {

class ParallelSampler;

/// One advertiser's coverage view over (a prefix of) an RrStore.
///
/// Invariants:
///   - the adopted prefix θ only grows (AddSets / AdoptUpTo), and always
///     over RESIDENT store sets — the spill policy may evict only ids
///     every view has already adopted;
///   - coverage_[v] counts alive adopted sets containing v; it increases
///     only on adoption and decreases only in RemoveCoveredBy;
///   - delta reports (`touched`) are ascending node-id lists at any worker
///     count — the determinism key the incremental heap repair relies on.
class RrCollection {
 public:
  /// Creates a view with its own private store.
  explicit RrCollection(graph::NodeId num_nodes);
  /// Creates a view over a shared store (may already contain sets; the
  /// view adopts none of them until AddSets is called).
  explicit RrCollection(std::shared_ptr<RrStore> store);

  /// Grows this view's adopted prefix by `count` sets, sampling more into
  /// the store through the deterministic parallel engine if needed: the
  /// adopted sets are bit-identical for a fixed sampler seed at any worker
  /// count (see parallel_sampler.h). Matching Algorithm 3's bookkeeping,
  /// any newly adopted set containing one of `current_seeds` is marked
  /// covered immediately so covered_fraction() stays the estimator of
  /// F_R(S) over the enlarged sample. Coverage accumulation over the newly
  /// adopted sets runs on the sampler's pool, if it has one, when the
  /// batch holds enough postings to shard (per-worker count arrays merged
  /// in node order — integer sums, so again bit-identical). When
  /// `touched` is non-null it is cleared and filled with the nodes whose
  /// coverage increased, ascending at any worker count — the delta set
  /// incremental heap repair keys on (see core/advertiser_engine.h).
  void AddSets(ParallelSampler& sampler, uint64_t count,
               std::span<const graph::NodeId> current_seeds,
               std::vector<graph::NodeId>* touched = nullptr);

  /// Adopts sets already present in the store up to prefix length
  /// `new_theta` (>= total_sets(); the store must hold that many, all of
  /// them resident) — AddSets' adoption half, public for callers that
  /// fill the store themselves. Coverage accumulation shards across `pool`
  /// when given and worthwhile; `touched` as in AddSets.
  void AdoptUpTo(uint64_t new_theta,
                 std::span<const graph::NodeId> current_seeds,
                 ThreadPool* pool = nullptr,
                 std::vector<graph::NodeId>* touched = nullptr);

  /// Number of alive (not yet covered) adopted sets containing v. Divided
  /// by total_sets() this is the marginal coverage gain of v.
  uint32_t CoverageOf(graph::NodeId v) const { return coverage_[v]; }

  static constexpr graph::NodeId kInvalidNode = UINT32_MAX;
  /// The node with maximum CoverageOf among nodes where eligible[v] != 0,
  /// or kInvalidNode if every eligible coverage is zero.
  graph::NodeId ArgmaxCoverage(std::span<const uint8_t> eligible) const;

  /// Marks all alive adopted sets containing `v` covered and updates the
  /// coverage counts of their members. Returns how many sets were newly
  /// covered. When the store has a spilled prefix, its cold sets are
  /// applied first (RrStore::ForEachSpilledSetContaining: a postings
  /// lookup per chunk, then reads of only the alive sets containing v),
  /// then the hot index — the same sets with the same members as on a
  /// resident-only store, so the result is bit-identical to one at any
  /// budget. When `touched` is non-null it is cleared and filled with the
  /// nodes whose coverage decreased (members of the newly covered sets),
  /// ascending — the windowed candidate rule uses this delta set to avoid
  /// re-settling unaffected window entries. Runs on the calling thread;
  /// `pool` is accepted so callers holding a pool keep one call shape,
  /// and is not used.
  uint32_t RemoveCoveredBy(graph::NodeId v,
                           std::vector<graph::NodeId>* touched = nullptr,
                           ThreadPool* pool = nullptr);

  /// θ — sets adopted by this view.
  uint64_t total_sets() const { return theta_; }
  /// Adopted sets covered by the seeds chosen so far.
  uint64_t covered_sets() const { return covered_count_; }
  /// F_R(S): fraction of the adopted sample covered; σ(S) ≈ n · fraction.
  double covered_fraction() const {
    return theta_ == 0 ? 0.0
                       : static_cast<double>(covered_count_) /
                             static_cast<double>(theta_);
  }
  /// F^max_R = max_v cov(v)/θ, used by the latent seed-size rule (Eq. 10).
  double MaxCoverageFraction() const;

  /// Mean cardinality over the store's sets (diagnostics).
  double MeanSetSize() const { return store_->MeanSetSize(); }

  /// RESIDENT heap footprint. With include_store, counts the backing store
  /// too — callers sharing a store should count it once across views (see
  /// RunTiGreedy's accounting) and use view-only bytes per advertiser.
  /// Spilled store bytes are on disk: see RrStore::SpilledBytes.
  uint64_t MemoryBytes(bool include_store = true) const;

  const std::shared_ptr<RrStore>& store() const { return store_; }

  /// Members of adopted set `r` (tests/diagnostics; `r` must be
  /// resident).
  std::span<const graph::NodeId> SetMembers(uint64_t r) const {
    return store_->SetMembers(r);
  }

 private:
  std::shared_ptr<RrStore> store_;
  uint64_t theta_ = 0;                 // adopted prefix length
  std::vector<uint8_t> alive_;         // per adopted set (always resident)
  std::vector<uint32_t> coverage_;     // per node, over alive adopted sets
  uint64_t covered_count_ = 0;
  // Scratch for delta collection: per-node dedup marks (lazily allocated,
  // reset via the collected list rather than O(n) clears).
  std::vector<uint8_t> touch_mark_;
};

}  // namespace isa::rrset

#endif  // ISA_RRSET_RR_COLLECTION_H_
