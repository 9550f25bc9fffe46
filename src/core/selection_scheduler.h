// The round loop of Algorithm 2 (lines 5-22), staged over a set of
// AdvertiserEngines on the shared thread pool.
//
// Each round runs four explicit stages:
//   1. spill    — the out-of-core barrier (see below);
//   2. candidate— every advertiser settles a budget-feasible candidate
//                 (line 7 + the Algorithm 1 line-12 retirement);
//   3. commit   — the selection rule picks one (node, advertiser) pair
//                 (line 9); the node leaves every ground set and the
//                 winner's covered RR sets are removed (lines 10-15);
//   4. growth   — if the winner's seed count reached its latent size s̃_j,
//                 Eq. 10 revises s̃_j and the ad's monotone ThetaSchedule
//                 (rrset/sample_sizer.h) decides whether θ_j must grow; a
//                 required growth samples, adopts and repairs the heap
//                 before the next round (lines 17-21). Revisions the
//                 schedule already satisfies are counted as idle
//                 (observability).
//
// Every stage depends only on selection state, never on timing, and the
// pool only changes where sampling runs, so a fixed seed yields a
// bit-identical TiResult at any thread count.
//
// Spill barrier rule (TiOptions::rr_memory_budget_bytes): at the start of
// each round the out-of-core tier makes its eviction decisions — each
// store's TieredRrStore may spill its oldest fully-adopted sets (ids below
// min θ_j over the store's views). The decision inputs (resident bytes,
// view thetas) are bit-identical at any thread count, and spilling never
// changes a computed value, so the determinism invariant extends to any
// budget.

#ifndef ISA_CORE_SELECTION_SCHEDULER_H_
#define ISA_CORE_SELECTION_SCHEDULER_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/thread_pool.h"
#include "core/advertiser_engine.h"
#include "core/problem.h"
#include "core/ti_greedy.h"
#include "rrset/tiered_store.h"

namespace isa::core {

/// One out-of-core tier and the advertisers viewing its store — the unit
/// the spill barrier iterates. Built by RunTiGreedy (one per physical
/// store when rr_memory_budget_bytes > 0).
struct StoreSpillGroup {
  std::unique_ptr<rrset::TieredRrStore> tier;
  std::vector<uint32_t> ads;
};

class SelectionScheduler {
 public:
  /// `ads` must hold one initialized engine per advertiser; `options`,
  /// `pool` and `spill_groups` must outlive the scheduler. Pass an empty
  /// `spill_groups` span to run fully resident (unbudgeted).
  SelectionScheduler(const RmInstance& instance, const TiOptions& options,
                     ThreadPool& pool,
                     std::span<const std::unique_ptr<AdvertiserEngine>> ads,
                     std::span<StoreSpillGroup> spill_groups = {});

  /// Runs the round loop to completion (every advertiser exhausted or the
  /// max_seeds cap hit). Seeds are appended to allocation->seed_sets,
  /// which must be pre-sized to one list per advertiser. Exceptions from
  /// pool stages (realistically std::bad_alloc while sampling) propagate
  /// to the caller.
  void Run(Allocation* allocation);

  uint64_t total_seeds() const { return total_seeds_; }

 private:
  uint32_t num_ads() const { return static_cast<uint32_t>(ads_.size()); }
  double BudgetOf(uint32_t j) const;
  /// Line 9: the committed advertiser under the selection rule, or
  /// num_ads() when every advertiser is exhausted this round.
  uint32_t SelectAd() const;
  /// Stage 1 (the spill barrier): let every budgeted store evict its
  /// oldest fully-adopted sets. Runs in group order; decisions depend
  /// only on deterministic state (see file comment).
  void MaybeSpillStores();
  /// Stage 4 for the round's winner. In degraded mode (the ad's tier hit a
  /// permanent spill-write failure and its store already exceeds the
  /// budget) the growth is vetoed instead — the admission policy that
  /// replaces eviction once the cold tier is gone.
  void ScheduleGrowth(uint32_t j);

  const RmInstance& instance_;
  const TiOptions& options_;
  ThreadPool& pool_;
  std::span<const std::unique_ptr<AdvertiserEngine>> ads_;
  std::span<StoreSpillGroup> spill_groups_;
  /// tier_of_ad_[j] — the spill tier whose store ad j views, or nullptr
  /// when the ad runs unbudgeted. Built once from spill_groups_.
  std::vector<rrset::TieredRrStore*> tier_of_ad_;
  uint32_t round_robin_next_ = 0;
  uint64_t total_seeds_ = 0;
};

}  // namespace isa::core

#endif  // ISA_CORE_SELECTION_SCHEDULER_H_
