// Per-advertiser selection state of Algorithm 2, extracted from the old
// RunTiGreedy monolith into a reusable engine class.
//
// One AdvertiserEngine owns everything advertiser j needs across rounds:
// its RR collection (coverage view over the store the driver hands it,
// private or shared), its parallel sampler and sample sizer, the
// eligibility bitmap over nodes, the chosen seeds, the lazy candidate
// heap, and the top-w window buffer of the cost-sensitive rule. The round
// loop itself lives in RunTiGreedy (core/ti_greedy.cc); the engine exposes
// the per-round stages (candidate computation, commit, θ-growth) as
// methods.
//
// Incremental heap repair (replacing the old full-scan RebuildHeap):
// between sample growths, coverage only decreases, so the heap is a
// classic CELF lazy max-heap — entries hold coverage snapshots that can
// only over-estimate, and the top is settled by refreshing mismatched
// snapshots. A sample growth *increases* the coverage of the touched nodes
// (the delta set RrCollection::AdoptUpTo reports), which would break the
// over-estimate invariant; instead of rescanning all n nodes, the repair
// pushes one fresh exact entry per touched node. Every node then again has
// at least one entry whose snapshot upper-bounds its live coverage, so the
// settle loop remains exact; stale duplicates are purged lazily on pop.
// Repair cost is O(|delta| log heap) instead of O(n + heap rebuild).
//
// The top-w window (Algorithm 5's restriction, Fig. 4) is persistent: the
// exact top-w entries live outside the heap in the w fixed slots of a
// SelectionWindow, and only entries whose node was touched by a coverage
// delta (or taken/retired) are dropped and re-settled from the heap;
// unaffected entries carry over between rounds. Marking a node appends its
// slot to a dirty list, and maintenance walks that list instead of the
// window. A tournament (winner) tree over the slots yields the line-7
// candidate at its root, so dropping or refilling a slot replays one
// leaf-to-root path: retiring an infeasible candidate costs O(log w), not
// two O(w) passes. The tree's key is exact (CompareProducts), so it is a
// total order and the winner does not depend on which slot holds what.

#ifndef ISA_CORE_ADVERTISER_ENGINE_H_
#define ISA_CORE_ADVERTISER_ENGINE_H_

#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/status.h"
#include "core/problem.h"
#include "core/ti_greedy.h"
#include "rrset/parallel_sampler.h"
#include "rrset/rr_collection.h"
#include "rrset/sample_sizer.h"

namespace isa::core {

/// Tolerance for the knapsack feasibility test (payments are sums of
/// floating-point marginals).
inline constexpr double kBudgetSlack = 1e-9;

/// a/b > c/d for non-negative ratios, robust to zero denominators
/// (x/0 ranks above anything finite when x > 0).
inline bool RatioGreater(double a, double b, double c, double d) {
  return a * d > c * b;
}

/// Sign (-1, 0 or +1) of the exact a·d − c·b for non-negative operands,
/// i.e. a/b against c/d cross-multiplied as in RatioGreater, but without
/// RatioGreater's rounding: the rounded products decide unless they tie,
/// and then their std::fma rounding errors do (a·d = p + fma(a, d, −p)
/// exactly while the product neither overflows nor falls below the normal
/// range). Rounded comparisons are not transitive; this one is.
inline int CompareProducts(double a, double d, double c, double b) {
  const double p = a * d;
  const double q = c * b;
  // Rounding is monotone, so unequal rounded products order the exact ones.
  if (p != q) return p > q ? 1 : -1;
  // A shared factor decides alone, a·d − a·b = a·(d − b), without the two
  // fma calls.
  if (a == c) return a == 0 ? 0 : (d > b) - (d < b);
  if (d == b) return d == 0 ? 0 : (a > c) - (a < c);
  const double ep = std::fma(a, d, -p);
  const double eq = std::fma(c, b, -q);
  return (ep > eq) - (ep < eq);
}

/// Lazy max-heap entry: coverage snapshot at push time.
struct CoverageHeapEntry {
  uint32_t cov;
  graph::NodeId node;
};

/// The Algorithm 5 key: "a ranks before b" by exact coverage/cost ratio
/// (a zero cost ranks above any finite ratio), then larger coverage, then
/// smaller node id — a strict total order over distinct nodes.
inline bool RatioBefore(const CoverageHeapEntry& a, const CoverageHeapEntry& b,
                        std::span<const double> costs) {
  const double cost_a = costs[a.node];
  const double cost_b = costs[b.node];
  // Equal keys are the most common compare in a lazy heap: settle them
  // before the products.
  if (a.cov == b.cov && cost_a == cost_b) return a.node < b.node;
  const int ratio = CompareProducts(a.cov, cost_b, b.cov, cost_a);
  if (ratio != 0) return ratio > 0;
  if (a.cov != b.cov) return a.cov > b.cov;
  return a.node < b.node;
}

/// Lazy max-heap over candidate nodes with incremental repair (see file
/// comment). Keyed by coverage (ties by larger coverage then smaller node
/// id) or, when configured ratio-keyed, by RatioBefore — both keys are
/// non-increasing between sample growths, which is what makes the lazy
/// settle exact.
class CoverageHeap {
 public:
  /// `costs` is only read when `ratio_keyed`; it must outlive the heap.
  void Configure(bool ratio_keyed, std::span<const double> costs) {
    ratio_keyed_ = ratio_keyed;
    costs_ = costs;
  }

  /// From-scratch build over all eligible nodes with coverage > 0 (init,
  /// and the compaction fallback when stale duplicates pile up).
  void Rebuild(const rrset::RrCollection& col,
               std::span<const uint8_t> eligible);

  /// Incremental repair after a sample growth: pushes one fresh exact
  /// entry per touched node (ascending `touched`, so the heap layout is
  /// deterministic). Falls back to Rebuild when stale duplicates exceed
  /// twice the node count. Callers must have emptied any external window
  /// buffer back into the heap first (Rebuild knows nothing about it).
  void ApplyCoverageIncreases(const rrset::RrCollection& col,
                              std::span<const uint8_t> eligible,
                              std::span<const graph::NodeId> touched);

  /// Pops until the heap top is a live, eligible entry with an up-to-date
  /// coverage snapshot; returns false if the heap drains. After a `true`
  /// return, Top() is the exact argmax over eligible live coverages under
  /// the configured key.
  bool SettleTop(const rrset::RrCollection& col,
                 std::span<const uint8_t> eligible);

  const CoverageHeapEntry& Top() const { return heap_.front(); }
  void PopTop();
  void Push(CoverageHeapEntry e);
  void Clear() { heap_.clear(); }

  bool empty() const { return heap_.empty(); }
  size_t size() const { return heap_.size(); }
  uint64_t BufferBytes() const {
    return heap_.capacity() * sizeof(CoverageHeapEntry);
  }

  /// Strict total order "a ranks before b" under the configured key.
  bool Before(const CoverageHeapEntry& a, const CoverageHeapEntry& b) const;

 private:
  // std::push_heap-style comparator ("less" = lower priority).
  auto Cmp() {
    return [this](const CoverageHeapEntry& a, const CoverageHeapEntry& b) {
      return Before(b, a);
    };
  }

  std::vector<CoverageHeapEntry> heap_;
  std::span<const double> costs_;
  bool ratio_keyed_ = false;
};

/// The windowed rule's top-w buffer: `slots` fixed entry slots under a
/// tournament (winner) tree keyed by RatioBefore. Set and Clear replay the
/// slot's leaf-to-root path, O(log slots); Winner() reads the root.
class SelectionWindow {
 public:
  static constexpr uint32_t kNoSlot = UINT32_MAX;

  /// Empties the window and sizes it to `slots`; `costs` must outlive it.
  void Reset(uint32_t slots, std::span<const double> costs);

  /// Fills the empty `slot` with `e`.
  void Set(uint32_t slot, CoverageHeapEntry e);
  /// Empties the occupied `slot`.
  void Clear(uint32_t slot);

  uint32_t num_slots() const { return static_cast<uint32_t>(slots_.size()); }
  bool occupied(uint32_t slot) const { return tree_[leaves_ + slot] == slot; }
  const CoverageHeapEntry& entry(uint32_t slot) const { return slots_[slot]; }
  /// Slot of the best entry under RatioBefore, or kNoSlot when empty.
  uint32_t Winner() const { return tree_[1]; }

  uint64_t BufferBytes() const {
    return slots_.capacity() * sizeof(CoverageHeapEntry) +
           tree_.capacity() * sizeof(uint32_t);
  }

 private:
  // Recomputes the winners above `slot`'s leaf, stopping early where an
  // ancestor's winner is unchanged.
  void Replay(uint32_t slot);

  std::vector<CoverageHeapEntry> slots_;
  // Implicit binary tree, root at 1, leaf of slot s at leaves_ + s (s, or
  // kNoSlot while empty); an inner node holds its subtree's winning slot.
  std::vector<uint32_t> tree_;
  uint32_t leaves_ = 1;  // a power of two >= slots_.size()
  std::span<const double> costs_;
};

/// Construction parameters beyond the (instance, ad) pair.
struct AdvertiserEngineOptions {
  CandidateRule candidate_rule = CandidateRule::kCoverageCostRatio;
  /// Window size w; 0 or >= n is the full window, whose cost-sensitive
  /// heap is keyed by coverage/cost directly.
  uint32_t window = 0;
  uint64_t sampler_seed = 0;
  rrset::DiffusionModel model = rrset::DiffusionModel::kIndependentCascade;
  /// The store's sample sizer, with the KPT pilot already run — built once
  /// per RR store by the driver (ads sharing a store share one pilot) and
  /// consumed here through a per-ad ThetaSchedule. The engine's sampler
  /// shares its coin column.
  std::shared_ptr<const rrset::SampleSizer> sizer;
  rrset::ParallelSamplerOptions sampler;
};

class AdvertiserEngine {
 public:
  static constexpr graph::NodeId kNoNode = rrset::RrCollection::kInvalidNode;

  /// Typically invoked from a parallel init task; each engine draws only
  /// from its own seed substreams, so construction order does not matter.
  /// `store` is the RR store this ad views (shared by a share_samples
  /// group); options.sizer must carry the store's already-piloted
  /// SampleSizer.
  AdvertiserEngine(uint32_t ad, const RmInstance& instance,
                   std::shared_ptr<rrset::RrStore> store,
                   const AdvertiserEngineOptions& options);
  ~AdvertiserEngine();

  /// Stage 0: initial θ_j = θ(1) sample plus the candidate order (heap, or
  /// the ad-specific PageRank ranking for the baseline rule).
  Status Init();

  // ---- Candidate stage (Algorithm 2 line 7 + Algorithm 1 line 12). ----

  /// Ensures the cached candidate is budget-feasible, permanently retiring
  /// infeasible nodes from this ad's ground set until a feasible candidate
  /// is found or the ad runs out of candidates. Once a call has retired
  /// n / bit_width(n) nodes, one O(n) scan checks whether any live node is
  /// still affordable; if none is, all of them retire in that pass, with
  /// the same end state as popping them one by one (heap rules and the
  /// window; the PageRank cursor is already O(1) amortized).
  void EnsureFeasibleCandidate(double budget);
  bool has_candidate() const { return candidate_ != kNoNode; }
  graph::NodeId candidate() const { return candidate_; }
  double cand_marg_rev() const { return cand_marg_rev_; }
  double cand_marg_pay() const { return cand_marg_pay_; }
  bool CandidateFeasible(double budget) const {
    return candidate_ != kNoNode &&
           payment_ + cand_marg_pay_ <= budget + kBudgetSlack;
  }

  // ---- Commit stage (lines 10-15). ----

  /// Node v was committed to some advertiser (possibly this one): v leaves
  /// every ad's ground set, and a cached candidate equal to v is dropped.
  void MarkNodeTaken(graph::NodeId v);

  /// Commits v as this ad's next seed: removes the covered RR sets (their
  /// coverage deltas invalidate the affected window entries) and refreshes
  /// the revenue/payment estimates. Call MarkNodeTaken on every engine
  /// (including this one) as well.
  void CommitSeed(graph::NodeId v);

  // ---- Growth stage (lines 17-21, Eq. 10, Algorithm 3). ----

  /// If the seed count has reached the latent size s̃_j, revises s̃_j by
  /// Eq. 10 and returns the new required θ when the sample must grow, else 0.
  uint64_t MaybeReviseLatentSize(double budget);

  /// Grows the sample to `want_theta`: samples, adopts, repairs the heap
  /// incrementally from the adoption's coverage deltas, and refreshes the
  /// estimates.
  void GrowNow(uint64_t want_theta);

  // ---- Results / diagnostics. ----

  std::span<const graph::NodeId> seeds() const { return seeds_; }
  uint64_t theta() const { return theta_; }
  uint64_t latent_size() const { return latent_s_; }
  double revenue() const { return revenue_; }
  double seeding_cost() const { return seeding_cost_; }
  double payment() const { return payment_; }
  /// Sample growths adopted — the "growth engaged" counter.
  uint64_t growth_events() const { return growth_events_; }
  /// Eq. 10 revisions that raised s̃ but needed no extra samples (θ(s̃)
  /// already satisfied, typically because the schedule is cap-saturated) —
  /// the "growth idle" counter.
  uint64_t idle_revisions() const { return idle_revisions_; }
  /// Called by the round loop when it vetoes a wanted θ-growth because this
  /// ad's store is in degraded (eviction-disabled) mode and over budget —
  /// the ROADMAP admission policy. Selection continues on the current
  /// sample; the next revision re-asks and is capped again while degraded.
  void CountGrowthAdmissionCap() { ++growth_admission_caps_; }
  /// θ-growths vetoed by the degraded-mode admission policy.
  uint64_t growth_admission_caps() const { return growth_admission_caps_; }
  /// The θ schedule (pilot diagnostics via schedule().sizer()).
  const rrset::ThetaSchedule& schedule() const { return schedule_; }
  const rrset::RrCollection& collection() const { return collection_; }

  /// Driver-side per-ad buffers (heap, window, bitmaps, PageRank order),
  /// charged into TiAdStats::rr_memory_bytes so Table 3 reports the true
  /// working set, not just the RR arrays.
  uint64_t WorkingBufferBytes() const;

  // ---- Test hooks (the brute-force heap-repair cross-checks). ----
  CoverageHeap& heap_for_test() { return heap_; }
  std::span<const uint8_t> eligible_for_test() const { return eligible_; }

 private:
  bool windowed() const {
    return options_.candidate_rule == CandidateRule::kCoverageCostRatio &&
           !ratio_keyed_heap_;
  }
  // Node left the ground set or changed coverage: a window entry holding it
  // must be re-settled next maintenance (its slot joins the dirty list).
  void MarkWindowDirty(graph::NodeId v);
  // Retire v from this ad's ground set (infeasible or taken).
  void RetireNode(graph::NodeId v);
  // Drops the dirty list's entries back into the heap, then refills the
  // free slots to w exact entries from the settled heap.
  void MaintainWindow();
  // Returns the whole window to the heap (before a growth repair, whose
  // fresh delta entries restore the upper-bound invariant).
  void DumpWindowToHeap();
  // Line-7 candidate under the configured rule, plus its marginals.
  void ComputeCandidate();
  // Line 8's marginal revenue of a node covering `cov` live sets.
  double MarginalRevenue(uint32_t cov) const;
  // If no live node (eligible, coverage > 0) is affordable under `budget`,
  // retires them all, empties the heap and the window, and returns true.
  bool RetireAllIfNoneAffordable(double budget);

  const RmInstance& instance_;
  const uint32_t ad_;
  const double dn_;  // n as double, for the revenue estimates
  const AdvertiserEngineOptions options_;
  // Full-window cost-sensitive rule: the heap is keyed by coverage/cost.
  const bool ratio_keyed_heap_;

  rrset::RrCollection collection_;
  rrset::ParallelSampler sampler_;
  rrset::ThetaSchedule schedule_;

  std::vector<uint8_t> eligible_;  // unassigned globally & still in E for me
  std::vector<graph::NodeId> seeds_;

  uint64_t theta_ = 0;
  uint64_t latent_s_ = 1;  // s̃_j
  double revenue_ = 0.0;
  double seeding_cost_ = 0.0;
  double payment_ = 0.0;
  uint64_t growth_events_ = 0;
  uint64_t idle_revisions_ = 0;
  uint64_t growth_admission_caps_ = 0;

  CoverageHeap heap_;
  // Persistent top-w window (windowed cost-sensitive rule only).
  SelectionWindow window_;
  // Per node: its window slot, or kNotInWindow; kDirtyBit marks a slot
  // already on window_dirty_. kNotInWindow carries the bit too, so one
  // test skips both "not in the window" and "already dirty".
  static constexpr uint32_t kDirtyBit = 1u << 31;
  static constexpr uint32_t kNotInWindow = UINT32_MAX;
  std::vector<uint32_t> window_slot_;
  std::vector<uint32_t> window_dirty_;  // slots to drop, in marking order
  std::vector<uint32_t> window_free_;   // empty slots (a stack)

  // PageRank order + consumed prefix (kPageRank rule).
  std::vector<graph::NodeId> pr_order_;
  size_t pr_cursor_ = 0;

  // Cached line-7 candidate.
  bool candidate_fresh_ = false;
  graph::NodeId candidate_ = kNoNode;
  double cand_marg_rev_ = 0.0;
  double cand_marg_pay_ = 0.0;

  // Scratch for coverage deltas (adoptions and removals).
  std::vector<graph::NodeId> touched_scratch_;
};

}  // namespace isa::core

#endif  // ISA_CORE_ADVERTISER_ENGINE_H_
