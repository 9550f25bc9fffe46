#include "core/selection_scheduler.h"

#include <algorithm>

namespace isa::core {

SelectionScheduler::SelectionScheduler(
    const RmInstance& instance, const TiOptions& options, ThreadPool& pool,
    std::span<const std::unique_ptr<AdvertiserEngine>> ads,
    std::span<StoreSpillGroup> spill_groups)
    : instance_(instance),
      options_(options),
      pool_(pool),
      ads_(ads),
      spill_groups_(spill_groups) {
  tier_of_ad_.assign(ads_.size(), nullptr);
  for (StoreSpillGroup& g : spill_groups_) {
    for (uint32_t j : g.ads) tier_of_ad_[j] = g.tier.get();
  }
}

double SelectionScheduler::BudgetOf(uint32_t j) const {
  return options_.budget_override.empty() ? instance_.budget(j)
                                          : options_.budget_override[j];
}

uint32_t SelectionScheduler::SelectAd() const {
  const uint32_t h = num_ads();
  uint32_t chosen = h;
  if (options_.selection_rule == SelectionRule::kRoundRobin) {
    for (uint32_t step = 0; step < h; ++step) {
      const uint32_t j = (round_robin_next_ + step) % h;
      if (ads_[j]->CandidateFeasible(BudgetOf(j))) return j;
    }
    return h;
  }
  double best_key_num = -1.0, best_key_den = 1.0;
  for (uint32_t j = 0; j < h; ++j) {
    const AdvertiserEngine& ad = *ads_[j];
    if (!ad.CandidateFeasible(BudgetOf(j))) {
      continue;  // infeasible this round; revisited if state changes
    }
    double num, den;
    if (options_.selection_rule == SelectionRule::kMaxRate) {
      num = ad.cand_marg_rev();
      den = ad.cand_marg_pay();
    } else {
      num = ad.cand_marg_rev();
      den = 1.0;
    }
    if (chosen == h || RatioGreater(num, den, best_key_num, best_key_den)) {
      chosen = j;
      best_key_num = num;
      best_key_den = den;
    }
  }
  return chosen;
}

void SelectionScheduler::ScheduleGrowth(uint32_t j) {
  const uint64_t want = ads_[j]->MaybeReviseLatentSize(BudgetOf(j));
  if (want == 0) return;
  // Admission policy (degraded mode only): once the cold tier can no
  // longer absorb evictions — a permanent spill-write failure disabled
  // eviction — and the store already exceeds its budget, cap θ-growth
  // instead of growing a footprint nothing can reclaim. Never engages on
  // a healthy tier, so the budgeted ≡ unbudgeted bit-identity invariant
  // is untouched outside injected-fault runs.
  if (rrset::TieredRrStore* tier = tier_of_ad_[j];
      tier != nullptr && tier->eviction_disabled() &&
      tier->store()->MemoryBytes() > tier->options().rr_memory_budget_bytes) {
    ads_[j]->CountGrowthAdmissionCap();
    return;
  }
  ads_[j]->GrowNow(want);
}

void SelectionScheduler::MaybeSpillStores() {
  for (StoreSpillGroup& g : spill_groups_) {
    // Only ids every view of the store has adopted may go cold: adoption
    // reads members, coverage removal over cold sets goes through the
    // chunk-scan path instead.
    uint64_t min_theta = UINT64_MAX;
    for (uint32_t j : g.ads) {
      min_theta = std::min(min_theta, ads_[j]->theta());
    }
    g.tier->MaybeSpill(min_theta, &pool_);
  }
}

void SelectionScheduler::Run(Allocation* allocation) {
  const uint32_t h = num_ads();
  while (true) {
    if (options_.max_seeds != 0 && total_seeds_ >= options_.max_seeds) break;

    MaybeSpillStores();

    for (uint32_t j = 0; j < h; ++j) {
      ads_[j]->EnsureFeasibleCandidate(BudgetOf(j));
    }

    const uint32_t chosen_ad = SelectAd();
    if (chosen_ad == h) break;  // line 16
    if (options_.selection_rule == SelectionRule::kRoundRobin) {
      round_robin_next_ = (chosen_ad + 1) % h;
    }

    // Lines 10-15: commit the pair.
    const graph::NodeId v = ads_[chosen_ad]->candidate();
    for (uint32_t k = 0; k < h; ++k) ads_[k]->MarkNodeTaken(v);
    ads_[chosen_ad]->CommitSeed(v);
    allocation->seed_sets[chosen_ad].push_back(v);
    ++total_seeds_;

    // Lines 17-21: latent seed-set size revision + sample growth.
    ScheduleGrowth(chosen_ad);
  }

  // Final barrier: a max_seeds exit skips the loop-top barrier, so the
  // last growth may have left a store past its budget.
  MaybeSpillStores();
}

}  // namespace isa::core
