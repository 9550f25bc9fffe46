#include "core/advertiser_engine.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/logging.h"
#include "graph/pagerank.h"

namespace isa::core {

// ------------------------------------------------------------ CoverageHeap

bool CoverageHeap::Before(const CoverageHeapEntry& a,
                          const CoverageHeapEntry& b) const {
  if (ratio_keyed_) return RatioBefore(a, b, costs_);
  if (a.cov != b.cov) return a.cov > b.cov;
  return a.node < b.node;
}

void CoverageHeap::Rebuild(const rrset::RrCollection& col,
                           std::span<const uint8_t> eligible) {
  heap_.clear();
  const graph::NodeId n = static_cast<graph::NodeId>(eligible.size());
  for (graph::NodeId v = 0; v < n; ++v) {
    const uint32_t cov = col.CoverageOf(v);
    if (eligible[v] && cov > 0) heap_.push_back(CoverageHeapEntry{cov, v});
  }
  std::make_heap(heap_.begin(), heap_.end(), Cmp());
}

void CoverageHeap::ApplyCoverageIncreases(
    const rrset::RrCollection& col, std::span<const uint8_t> eligible,
    std::span<const graph::NodeId> touched) {
  for (graph::NodeId v : touched) {
    if (!eligible[v]) continue;
    const uint32_t cov = col.CoverageOf(v);
    if (cov > 0) Push(CoverageHeapEntry{cov, v});
  }
  // Stale duplicates accumulate one push per touched node per growth;
  // once they dominate the live candidates, one exact rebuild resets the
  // heap (deterministic: triggered by size alone).
  if (heap_.size() > 2 * eligible.size()) Rebuild(col, eligible);
}

bool CoverageHeap::SettleTop(const rrset::RrCollection& col,
                             std::span<const uint8_t> eligible) {
  auto cmp = Cmp();
  while (!heap_.empty()) {
    const CoverageHeapEntry top = heap_.front();
    const uint32_t cur = col.CoverageOf(top.node);
    if (!eligible[top.node] || cur == 0) {
      std::pop_heap(heap_.begin(), heap_.end(), cmp);
      heap_.pop_back();
      continue;
    }
    if (cur != top.cov) {
      std::pop_heap(heap_.begin(), heap_.end(), cmp);
      heap_.back().cov = cur;
      std::push_heap(heap_.begin(), heap_.end(), cmp);
      continue;
    }
    return true;
  }
  return false;
}

void CoverageHeap::PopTop() {
  std::pop_heap(heap_.begin(), heap_.end(), Cmp());
  heap_.pop_back();
}

void CoverageHeap::Push(CoverageHeapEntry e) {
  heap_.push_back(e);
  std::push_heap(heap_.begin(), heap_.end(), Cmp());
}

// --------------------------------------------------------- SelectionWindow

void SelectionWindow::Reset(uint32_t slots, std::span<const double> costs) {
  costs_ = costs;
  leaves_ = std::bit_ceil(std::max<uint32_t>(slots, 1));
  slots_.assign(slots, CoverageHeapEntry{0, AdvertiserEngine::kNoNode});
  tree_.assign(2 * static_cast<size_t>(leaves_), kNoSlot);
}

void SelectionWindow::Set(uint32_t slot, CoverageHeapEntry e) {
  slots_[slot] = e;
  tree_[leaves_ + slot] = slot;
  Replay(slot);
}

void SelectionWindow::Clear(uint32_t slot) {
  tree_[leaves_ + slot] = kNoSlot;
  Replay(slot);
}

void SelectionWindow::Replay(uint32_t slot) {
  for (size_t i = (leaves_ + slot) / 2; i >= 1; i /= 2) {
    const uint32_t l = tree_[2 * i];
    const uint32_t r = tree_[2 * i + 1];
    const uint32_t win =
        l == kNoSlot   ? r
        : r == kNoSlot ? l
        : RatioBefore(slots_[r], slots_[l], costs_) ? r
                                                    : l;
    // `slot` only went from or to empty, so above an unchanged winner
    // nothing changed.
    if (win == tree_[i]) return;
    tree_[i] = win;
  }
}

// -------------------------------------------------------- AdvertiserEngine

AdvertiserEngine::AdvertiserEngine(uint32_t ad, const RmInstance& instance,
                                   std::shared_ptr<rrset::RrStore> store,
                                   const AdvertiserEngineOptions& options)
    : instance_(instance),
      ad_(ad),
      dn_(static_cast<double>(instance.graph().num_nodes())),
      options_(options),
      ratio_keyed_heap_(
          options.candidate_rule == CandidateRule::kCoverageCostRatio &&
          (options.window == 0 || options.window >= instance.num_nodes())),
      collection_(std::move(store)),
      sampler_(instance.graph(), instance.ad_probs(ad),
               rrset::DiffusionModel::kIndependentCascade,
               options.sampler_seed, options.sampler,
               options.sizer != nullptr ? options.sizer->coins() : nullptr),
      schedule_(options.sizer),
      eligible_(instance.graph().num_nodes(), 1) {
  // The sizer is the driver's responsibility (one per store, pilot already
  // run); a missing one would otherwise surface as a null deref deep in
  // Init's first schedule query.
  ISA_CHECK(options_.sizer != nullptr);
  initial_theta_ = schedule_.ThetaFor(1);
  heap_.Configure(ratio_keyed_heap_, instance.incentives(ad));
  if (windowed()) {
    ISA_CHECK(options_.window < kDirtyBit);
    window_slot_.assign(eligible_.size(), kNotInWindow);
    DumpWindowToHeap();  // heap still empty: just sizes the empty window
  }
}

AdvertiserEngine::~AdvertiserEngine() = default;

void AdvertiserEngine::AdoptUpTo(uint64_t theta) {
  ISA_CHECK(theta >= theta_ && theta <= initial_theta_);
  collection_.AddSets(sampler_, theta - theta_, {});
  theta_ = theta;
}

Status AdvertiserEngine::BuildCandidateOrder() {
  if (options_.candidate_rule == CandidateRule::kPageRank) {
    auto pr = graph::WeightedPageRank(instance_.graph(),
                                      instance_.ad_probs(ad_));
    if (!pr.ok()) return pr.status();
    pr_order_ = graph::RankByScore(pr.value());
  } else {
    heap_.Rebuild(collection_, eligible_);
  }
  return Status::OK();
}

void AdvertiserEngine::MarkWindowDirty(graph::NodeId v) {
  const uint32_t state = window_slot_[v];
  if (state & kDirtyBit) return;  // not in the window, or already listed
  window_slot_[v] = state | kDirtyBit;
  window_dirty_.push_back(state);
}

void AdvertiserEngine::RetireNode(graph::NodeId v) {
  eligible_[v] = 0;
  if (windowed()) MarkWindowDirty(v);
}

void AdvertiserEngine::MaintainWindow() {
  // Drop entries whose node left the ground set or changed coverage (both
  // mark the node dirty when they happen); a still-live dropped node
  // re-enters the race through the heap with its refreshed exact count.
  // Unlisted entries are exact and eligible, so they carry over.
  for (uint32_t slot : window_dirty_) {
    const graph::NodeId v = window_.entry(slot).node;
    window_slot_[v] = kNotInWindow;
    window_.Clear(slot);
    window_free_.push_back(slot);
    const uint32_t cov = collection_.CoverageOf(v);
    if (eligible_[v] && cov > 0) heap_.Push(CoverageHeapEntry{cov, v});
  }
  window_dirty_.clear();
  // Refill to w entries from the settled heap. Kept entries rank at least
  // as high as every heap entry (they were top-w when added and nothing
  // outside the window has gained coverage since — growths dump the whole
  // window first), so kept ∪ refill is exactly the current top-w.
  while (!window_free_.empty() && heap_.SettleTop(collection_, eligible_)) {
    const CoverageHeapEntry e = heap_.Top();
    heap_.PopTop();
    if (window_slot_[e.node] != kNotInWindow) continue;  // stale duplicate
    const uint32_t slot = window_free_.back();
    window_free_.pop_back();
    window_slot_[e.node] = slot;
    window_.Set(slot, e);
  }
}

void AdvertiserEngine::DumpWindowToHeap() {
  for (uint32_t slot = 0; slot < window_.num_slots(); ++slot) {
    if (!window_.occupied(slot)) continue;
    const CoverageHeapEntry& e = window_.entry(slot);
    window_slot_[e.node] = kNotInWindow;
    // The snapshot may be stale either way after a growth; the repair's
    // fresh delta entries restore the upper-bound invariant, and stale
    // duplicates are purged on settle.
    heap_.Push(e);
  }
  window_.Reset(options_.window, instance_.incentives(ad_));
  window_dirty_.clear();
  window_free_.resize(options_.window);
  // Descending, so the stack hands out slot 0 first.
  for (uint32_t i = 0; i < options_.window; ++i) {
    window_free_[i] = options_.window - 1 - i;
  }
}

void AdvertiserEngine::ComputeCandidate() {
  candidate_ = kNoNode;
  candidate_fresh_ = true;
  graph::NodeId chosen = kNoNode;
  switch (options_.candidate_rule) {
    case CandidateRule::kCoverage: {
      if (heap_.SettleTop(collection_, eligible_)) chosen = heap_.Top().node;
      break;
    }
    case CandidateRule::kCoverageCostRatio: {
      if (ratio_keyed_heap_) {
        // Full window: the heap is keyed by coverage/cost directly, so the
        // settled top IS the Algorithm 5 candidate (footnote 10 justifies
        // the ratio form).
        if (heap_.SettleTop(collection_, eligible_)) {
          chosen = heap_.Top().node;
        }
        break;
      }
      // Windowed variant (Fig. 4): maintain the persistent top-`window`
      // slots; the tournament tree's root is their best entry under the
      // exact Algorithm 5 key.
      MaintainWindow();
      if (window_.Winner() != SelectionWindow::kNoSlot) {
        chosen = window_.entry(window_.Winner()).node;
      }
      break;
    }
    case CandidateRule::kPageRank: {
      while (pr_cursor_ < pr_order_.size() &&
             !eligible_[pr_order_[pr_cursor_]]) {
        ++pr_cursor_;
      }
      if (pr_cursor_ < pr_order_.size()) chosen = pr_order_[pr_cursor_];
      break;
    }
  }
  if (chosen == kNoNode) return;
  candidate_ = chosen;
  cand_marg_rev_ = MarginalRevenue(collection_.CoverageOf(chosen));
  cand_marg_pay_ = cand_marg_rev_ + instance_.incentive(ad_, chosen);
}

double AdvertiserEngine::MarginalRevenue(uint32_t cov) const {
  const double frac = static_cast<double>(cov) /
                      static_cast<double>(collection_.total_sets());
  return instance_.cpe(ad_) * dn_ * frac;  // line 8
}

bool AdvertiserEngine::RetireAllIfNoneAffordable(double budget) {
  const graph::NodeId n = static_cast<graph::NodeId>(eligible_.size());
  auto live = [this](graph::NodeId v) {
    return eligible_[v] && collection_.CoverageOf(v) > 0;
  };
  for (graph::NodeId v = 0; v < n; ++v) {
    if (!live(v)) continue;
    const double marg_pay = MarginalRevenue(collection_.CoverageOf(v)) +
                            instance_.incentive(ad_, v);
    if (payment_ + marg_pay <= budget + kBudgetSlack) return false;
  }
  // Coverage, θ and payment stay frozen until this ad commits again, so
  // popping on would retire exactly the live nodes and leave the heap and
  // the window empty, and an ad without a candidate never commits again.
  for (graph::NodeId v = 0; v < n; ++v) {
    if (live(v)) eligible_[v] = 0;
  }
  if (windowed()) DumpWindowToHeap();
  heap_.Clear();
  candidate_ = kNoNode;
  candidate_fresh_ = true;
  return true;
}

void AdvertiserEngine::EnsureFeasibleCandidate(double budget) {
  // By n / bit_width(n) retirements the O(log n) pops have cost about one
  // pass over the nodes; then one scan checks whether any live node is
  // affordable at all (nothing changes within the call, so once suffices).
  const size_t n = eligible_.size();
  const size_t scan_at =
      options_.candidate_rule == CandidateRule::kPageRank || n == 0
          ? 0
          : n / static_cast<size_t>(std::bit_width(n));
  size_t retired = 0;
  while (true) {
    if (!candidate_fresh_) ComputeCandidate();
    if (candidate_ == kNoNode) return;
    if (payment_ + cand_marg_pay_ <= budget + kBudgetSlack) return;
    RetireNode(candidate_);  // Algorithm 1 line 12: leaves E permanently
    candidate_fresh_ = false;
    if (++retired == scan_at && RetireAllIfNoneAffordable(budget)) return;
  }
}

void AdvertiserEngine::MarkNodeTaken(graph::NodeId v) {
  RetireNode(v);
  if (candidate_ == v) candidate_fresh_ = false;
}

void AdvertiserEngine::CommitSeed(graph::NodeId v) {
  seeds_.push_back(v);
  seeding_cost_ += instance_.incentive(ad_, v);
  if (windowed()) {
    collection_.RemoveCoveredBy(v, &touched_scratch_);
    for (graph::NodeId u : touched_scratch_) MarkWindowDirty(u);
  } else {
    collection_.RemoveCoveredBy(v);
  }
  revenue_ = instance_.cpe(ad_) * dn_ * collection_.covered_fraction();
  payment_ = revenue_ + seeding_cost_;
  candidate_fresh_ = false;
}

uint64_t AdvertiserEngine::MaybeReviseLatentSize(double budget) {
  if (seeds_.size() < latent_s_) return 0;
  const double f_max = collection_.MaxCoverageFraction();
  const double denom = instance_.max_incentive(ad_) +
                       instance_.cpe(ad_) * dn_ * f_max;
  uint64_t inc = 0;
  if (denom > 0.0) {
    const double room = budget - payment_;
    if (room > 0.0) inc = static_cast<uint64_t>(room / denom);
  }
  // Eq. 10 uses a worst-case per-seed payment, so inc == 0 can coexist
  // with affordable cheap seeds; keep s̃ ahead of |S| by at least one.
  if (inc == 0) inc = 1;
  // s̃ beyond n is meaningless (at most n seeds exist); clamping here keeps
  // the schedule's clamp diagnostics reserved for genuine misuse.
  latent_s_ = std::min<uint64_t>(latent_s_ + inc,
                                 instance_.graph().num_nodes());
  const uint64_t want = schedule_.ThetaFor(latent_s_);
  if (want <= theta_) {
    // The schedule is already satisfied — either θ(s̃) is flat here or the
    // cap saturated. The growth machinery idles this revision; counted so
    // runs can tell "never engaged" from "engaged and then saturated".
    ++idle_revisions_;
    return 0;
  }
  return want;
}

void AdvertiserEngine::GrowNow(uint64_t want_theta) {
  const bool need_deltas =
      options_.candidate_rule != CandidateRule::kPageRank;
  collection_.AddSets(sampler_, want_theta - theta_, seeds_,
                      need_deltas ? &touched_scratch_ : nullptr);
  theta_ = want_theta;
  ++growth_events_;
  if (need_deltas) {
    // Coverage went up for the touched nodes; repair instead of the old
    // full-scan rebuild. The window must re-settle entirely: nodes outside
    // it may now out-rank kept entries.
    if (windowed()) DumpWindowToHeap();
    heap_.ApplyCoverageIncreases(collection_, eligible_, touched_scratch_);
  }
  // Algorithm 3: refresh estimates against the enlarged sample.
  revenue_ = instance_.cpe(ad_) * dn_ * collection_.covered_fraction();
  payment_ = revenue_ + seeding_cost_;
  candidate_fresh_ = false;
}

uint64_t AdvertiserEngine::WorkingBufferBytes() const {
  return heap_.BufferBytes() + eligible_.capacity() +
         seeds_.capacity() * sizeof(graph::NodeId) +
         pr_order_.capacity() * sizeof(graph::NodeId) +
         window_.BufferBytes() +
         (window_slot_.capacity() + window_dirty_.capacity() +
          window_free_.capacity()) * sizeof(uint32_t) +
         touched_scratch_.capacity() * sizeof(graph::NodeId);
}

}  // namespace isa::core
