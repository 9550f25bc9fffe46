#include "rrset/tiered_store.h"

#include <algorithm>
#include <ranges>

#include "common/logging.h"
#include "common/thread_pool.h"

namespace isa::rrset {

TieredRrStore::TieredRrStore(std::shared_ptr<RrStore> store,
                             TieredStoreOptions options)
    : store_(std::move(store)), options_(std::move(options)) {
  spill_options_.chunk_target_bytes = options_.chunk_target_bytes;
  if (enabled()) {
    // Resolve the path once so every spill of this store appends to the
    // same file.
    spill_options_.path = MakeSpillPath(options_.spill_directory);
  }
}

void TieredRrStore::MaybeSpill(uint64_t max_evictable, ThreadPool* pool,
                               uint64_t reserve) {
  if (!enabled()) return;
  const uint64_t budget = options_.rr_memory_budget_bytes;
  const uint64_t resident = store_->MemoryBytes() + reserve;
  if (!eviction_disabled_ && resident > budget &&
      max_evictable > store_->first_resident_set()) {
    // Walk the eviction frontier forward until the estimated reclaim
    // covers the overshoot. Each evicted set frees its members (4 B per
    // posting), its inverted-index posting (~4 B each in the CSR base)
    // and its offset slot (8 B); the estimate counts 1 B less per
    // posting, so the walk evicts a margin past the overshoot (the spill's
    // postings index lives on disk only; its footer mirror is a few dozen
    // bytes per chunk). Capacity slack freed by the exact-fit rebuild is
    // not counted either, so the estimate errs low, which only means
    // MaybeSpill occasionally evicts one chunk more than the budget needs.
    // The estimate grows with the frontier, so binary-search it.
    const uint64_t need = resident - budget;
    const uint64_t first = store_->first_resident_set();
    const uint64_t new_first = *std::ranges::partition_point(
        std::views::iota(first + 1, max_evictable), [&](uint64_t x) {
          return store_->PostingsInRange(first, x) *
                         (2 * sizeof(graph::NodeId) - 1) +
                     (x - first) * sizeof(uint64_t) <
                 need;
        });
    try {
      store_->SpillPrefix(new_first, spill_options_, pool);
      ++spill_events_;
    } catch (const SpillIoError& e) {
      // Permanent write failure (ENOSPC after the bounded retries). A
      // mid-eviction throw leaves the resident state untouched — the
      // resident columns only shrink AFTER every chunk of an eviction
      // landed on disk — so the store is still fully consistent; any
      // orphan chunks already written are never scanned (scans cap at
      // first_resident_set). Degrade: stop evicting, finish resident, and
      // let the round loop's admission policy cap θ-growth instead of
      // aborting the run.
      eviction_disabled_ = true;
      ++degradation_events_;
      ISA_LOG("TieredRrStore: spill write failed (%s); eviction disabled, "
              "finishing resident",
              e.what());
    }
  }
  resident_peak_bytes_ =
      std::max(resident_peak_bytes_, store_->MemoryBytes());
}

}  // namespace isa::rrset
