// TieredRrStore — the memory-budget POLICY over RrStore's spill MECHANISM.
//
// One TieredRrStore watches one physical RrStore (private or shared among
// a share_samples group); RunTiGreedy builds one per store, budgeted or
// not. At the top of every round, its deterministic barrier, the round
// loop calls MaybeSpill: if the store's resident bytes exceed the
// budget, the oldest fully-adopted sets are evicted to the store's spill
// file until the estimated resident footprint fits (or nothing evictable
// remains — a hot tail larger than the budget stays resident; the budget
// is a target, not a hard allocator limit).
//
// Eviction order is strictly oldest-first (ascending set id). Old sets are
// the coldest by construction: adoption only touches ids at the top of the
// store, and a set's members are re-read only when a committed seed covers
// it — old sets are disproportionately ALREADY covered (every earlier seed
// had a chance to cover them), and covered sets are never read again, so
// spilling them costs nothing; the remaining alive cold sets are serviced
// by the cold lookup path (RrStore::ForEachSpilledSetContaining).
//
// Determinism: MaybeSpill runs only at barrier rounds (fixed points of the
// round loop), its inputs — resident bytes, view thetas — are themselves
// bit-identical at any thread count, and spilling never changes any
// computed value (see rr_store.h). Fixed seed ⇒ bit-identical TiResult at
// any thread count AND any budget, including budget 0 (spilling disabled).

#ifndef ISA_RRSET_TIERED_STORE_H_
#define ISA_RRSET_TIERED_STORE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "rrset/rr_store.h"
#include "rrset/spill_file.h"

namespace isa {
class ThreadPool;
}

namespace isa::rrset {

struct TieredStoreOptions {
  /// Resident-byte target for the store (its RrStore::MemoryBytes). 0
  /// disables spilling entirely — the tier is then a no-op and the run is
  /// byte-identical to one without a tier.
  uint64_t rr_memory_budget_bytes = 0;
  /// Chunk payload target for the spill file (see SpillOptions).
  uint64_t chunk_target_bytes = 4ull << 20;
  /// Directory for the chunk file (empty = system temp directory). The
  /// file is removed when the store dies.
  std::string spill_directory;
};

/// Budget policy over one RrStore (see file comment). Not thread-safe;
/// called from the single round-loop thread at barrier rounds.
class TieredRrStore {
 public:
  TieredRrStore(std::shared_ptr<RrStore> store, TieredStoreOptions options);

  /// Barrier hook. `max_evictable` is the store's fully-adopted frontier —
  /// min θ_j over every view of this store; only ids below it may go cold.
  /// Evicts oldest-first until the estimated resident footprint fits the
  /// budget, then records the resident bytes in resident_peak_bytes().
  /// No-op when the budget is 0 or already satisfied.
  void MaybeSpill(uint64_t max_evictable, ThreadPool* pool = nullptr);

  bool enabled() const { return options_.rr_memory_budget_bytes > 0; }
  /// MaybeSpill calls that actually evicted something.
  uint64_t spill_events() const { return spill_events_; }

  /// True after a permanent spill-write failure (ENOSPC after retries):
  /// the cold tier can no longer absorb evictions, so MaybeSpill becomes
  /// a no-op and the run finishes resident. The round loop additionally
  /// engages the admission policy — θ-growth is capped while
  /// the resident footprint exceeds the budget — instead of aborting.
  bool eviction_disabled() const { return eviction_disabled_; }
  /// Write-side degradations: transitions into eviction_disabled (0 or 1).
  uint64_t degradation_events() const { return degradation_events_; }

  /// Peak of the store's resident bytes (RrStore::MemoryBytes) as observed
  /// after each barrier's eviction — the honest Table 3 number. Spilled
  /// bytes (RrStore::SpilledBytes) never feed it: they are exactly what
  /// the budget pushed out of the working set.
  uint64_t resident_peak_bytes() const { return resident_peak_bytes_; }

  const std::shared_ptr<RrStore>& store() const { return store_; }
  const TieredStoreOptions& options() const { return options_; }

 private:
  std::shared_ptr<RrStore> store_;
  TieredStoreOptions options_;
  SpillOptions spill_options_;
  uint64_t resident_peak_bytes_ = 0;
  uint64_t spill_events_ = 0;
  bool eviction_disabled_ = false;
  uint64_t degradation_events_ = 0;
};

}  // namespace isa::rrset

#endif  // ISA_RRSET_TIERED_STORE_H_
