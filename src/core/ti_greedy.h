// TI-CARM and TI-CSRM (paper §4.2, Algorithm 2) and the PageRank baselines
// of §5, unified in one scalable driver.
//
// The driver follows Algorithm 2: every advertiser j keeps its own RR-set
// collection R_j (sampled under its Eq.-1 probabilities) with sample size
// θ_j = L(s̃_j, ε) (Eq. 8) — one KPT pilot per store fixes the OPT lower
// bound, and a per-ad monotone ThetaSchedule memoizes the resulting θ
// table (see rrset/sample_sizer.h) — where the latent seed-set size s̃_j
// starts at 1 and is revised by Eq. 10 whenever |S_j| reaches it; newly
// drawn RR sets are folded into the running spread estimates (Algorithm 3). Each round,
// a candidate node is chosen per advertiser (line 7) and one (node,
// advertiser) pair is committed (line 9):
//
//   algorithm      candidate rule (line 7)             selection rule (line 9)
//   TI-CARM        argmax coverage        (Alg. 4)     max marginal revenue
//   TI-CSRM        argmax coverage/cost   (Alg. 5,     max marginal-revenue /
//                  over a top-w coverage window)         marginal-payment rate
//   PageRank-GR    next in ad-specific PageRank order  max marginal revenue
//   PageRank-RR    next in ad-specific PageRank order  round-robin over ads
//
// Performance notes (beyond the pseudocode, behaviour-preserving):
//   - per-ad lazy max-heaps over coverage with incremental repair: valid
//     because coverage only decreases between sample growths; when a
//     sample grows, only the nodes in the adoption's coverage-delta set
//     are re-keyed instead of rescanning all n nodes (see
//     core/advertiser_engine.h);
//   - per-ad candidate caching: ad j's candidate can only change when j
//     received a seed, j's sample grew, or the cached node was taken by
//     another ad / found infeasible — so most rounds recompute one ad.
//
// Per-advertiser state lives in core::AdvertiserEngine. RunTiGreedy
// validates options, builds one group per physical RR store (its store,
// its out-of-core tier and the ads viewing it), runs the parallel per-store
// init, runs the round loop, and assembles the TiResult.

#ifndef ISA_CORE_TI_GREEDY_H_
#define ISA_CORE_TI_GREEDY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/problem.h"
#include "rrset/sample_sizer.h"

namespace isa::core {

/// Line-7 rule: how each advertiser proposes its next candidate node.
enum class CandidateRule {
  kCoverage,           // Algorithm 4 (cost-agnostic)
  kCoverageCostRatio,  // Algorithm 5 (cost-sensitive), window-restricted
  kPageRank,           // baseline: ad-specific PageRank order
};

/// Line-9 rule: how the winning (node, advertiser) pair is committed.
enum class SelectionRule {
  kMaxMarginalRevenue,  // TI-CARM, PageRank-GR
  kMaxRate,             // TI-CSRM: marginal revenue per marginal payment
  kRoundRobin,          // PageRank-RR
};

struct TiOptions {
  CandidateRule candidate_rule = CandidateRule::kCoverageCostRatio;
  SelectionRule selection_rule = SelectionRule::kMaxRate;
  /// ε of Eq. 8 (0.1 in the paper's quality runs, 0.3 in scalability runs).
  /// ℓ is 1, and one KPT pilot per RR store fixes the OPT lower bound (see
  /// rrset/sample_sizer.h).
  double epsilon = 0.1;
  /// TI-CSRM window size w (paper Fig. 4): the cost-sensitive candidate is
  /// chosen among the w nodes of highest marginal coverage. 0 means full
  /// window (w = n). With w = 1 the candidate rule degenerates to TI-CARM's.
  uint32_t window = 0;
  /// Master seed; all per-ad samplers derive substreams from it.
  uint64_t seed = 42;
  /// Worker threads for the driver's parallel engine. One common::ThreadPool
  /// of this size is created per RunTiGreedy invocation and shared by every
  /// parallel stage: per-advertiser initialization (KPT pilot, initial θ_j
  /// sampling, PageRank/heap build — advertisers are independent), RR-set
  /// sampling, the inverted-index build, and coverage adoption. 0 = use
  /// hardware concurrency; 1 = legacy single-threaded execution (no worker
  /// pool). Every stage derives per-item Rng substreams from `seed` (see
  /// rrset/parallel_sampler.h, rrset/sample_sizer.h) or merges integer
  /// counts in fixed order, so the full TiResult — allocations, revenue,
  /// payments — is bit-identical for a fixed seed at ANY thread count; the
  /// knob only changes wall-clock.
  uint32_t num_threads = 0;
  /// Upper bound on θ per advertiser. Eq. 8 with small ε on large graphs can
  /// demand tens of millions of RR sets (the paper's runs used a 264 GB
  /// server); this valve keeps laptop-scale runs bounded while preserving
  /// the estimator (a smaller sample only loosens the accuracy guarantee).
  /// Must be in [1, 2^32 - 1]: the RR store indexes set ids as uint32_t.
  uint64_t theta_cap = 2'000'000;
  /// Propagation model the RR sets are drawn under. The paper uses TIC
  /// (topic-aware IC); Linear Threshold is supported because RR-set theory
  /// covers all triggering models — under LT the arc values are interpreted
  /// as LT weights (Σ in-weights ≤ 1; weighted-cascade satisfies this).
  rrset::DiffusionModel propagation =
      rrset::DiffusionModel::kIndependentCascade;
  /// Share one physical RR sample among advertisers with identical Eq. 1
  /// probabilities (pure-competition ads). Each advertiser keeps its own
  /// θ_j, covered flags and coverage counts, so allocations are unchanged
  /// in distribution; only the memory footprint drops (our answer to the
  /// paper's open problem (i) on TI-CSRM memory). Off by default — the
  /// paper's Algorithm 2 keeps one sample per advertiser.
  bool share_samples = false;
  /// Resident-byte target per physical RR store (0 = unbudgeted, fully
  /// resident — the pre-spill behavior, byte for byte). When a store's
  /// resident footprint exceeds the budget at a barrier round, its oldest
  /// fully-adopted sets are evicted to an on-disk columnar chunk file and
  /// later coverage removals over them read back only the spilled sets
  /// that contain the committed seed (see rrset/tiered_store.h). Spill
  /// decisions happen only at the round loop's deterministic barrier (the
  /// top of every round) and never change any computed value, so a fixed
  /// seed still yields a bit-identical TiResult (allocations, revenue, θ,
  /// growth counters) at ANY thread count and ANY budget — only the
  /// memory/spill statistics differ. The budget is a target:
  /// a hot (not yet fully adopted) tail larger than the budget stays
  /// resident.
  uint64_t rr_memory_budget_bytes = 0;
  /// Directory for spill chunk files (empty = the system temp directory).
  /// Files are removed when the run's stores are destroyed.
  std::string spill_directory;
  /// Chunk member-bytes target for spill files (see SpillOptions).
  /// Smaller chunks have tighter node envelopes to skip by; every chunk
  /// pays one postings index over its envelope on disk. Never affects
  /// computed results, only the on-disk layout and the chunk counters.
  uint64_t spill_chunk_bytes = 4ull << 20;
};

/// Per-advertiser diagnostics of a TI run.
struct TiAdStats {
  uint64_t theta = 0;          // final |R_j|
  uint64_t latent_seed_size = 0;  // final s̃_j
  uint64_t seeds = 0;          // |S_j|
  double revenue = 0.0;        // π_j(S_j) (RR estimate)
  double seeding_cost = 0.0;   // c_j(S_j)
  double payment = 0.0;        // ρ_j(S_j)
  /// Honest working-set bytes for this ad: the RR store (charged to the
  /// store's leader, the first ad viewing it), the coverage view, and the
  /// driver's per-ad buffers (candidate heap, eligibility bitmap, PageRank
  /// order).
  uint64_t rr_memory_bytes = 0;
  /// Inverted-index share of the store bytes (charged like the store).
  uint64_t rr_index_bytes = 0;
  /// Out-of-core tier (rr_memory_budget_bytes > 0; charged to the store's
  /// leader, like the store bytes; 0 on every other ad): bytes of the store
  /// evicted to disk, chunks in its spill file, cold-tier lookups
  /// (commits that had to consult the cold tier), chunks that yielded
  /// covered sets vs chunks skipped (node envelope, postings miss, or no
  /// alive hit) across those lookups, and the store's peak RESIDENT
  /// bytes as observed at the spill barrier checks (0 when unbudgeted —
  /// use rr_memory_bytes, which is then also the final resident figure).
  uint64_t spilled_bytes = 0;
  uint64_t spill_chunks = 0;
  uint64_t scan_reloads = 0;
  uint64_t chunks_read = 0;
  uint64_t chunks_skipped = 0;
  uint64_t rr_resident_peak_bytes = 0;
  /// Failure handling (store counters charged to the store's leader, like
  /// the store bytes; growth_admission_caps is per-ad).
  /// spill_retries counts transient cold-tier I/O attempts that were
  /// retried; spill_retry_successes the retries that then succeeded.
  /// degradation_events counts permanent-fault degradations survived:
  /// cold chunks rebuilt by re-sampling (read side) plus eviction
  /// shutdowns after a spill-write failure (write side, via the tier).
  /// recovered_sets is the number of RR sets re-sampled from recorded
  /// substream seeds. growth_admission_caps counts θ-growth requests the
  /// round loop vetoed while the ad's store ran degraded over budget. All
  /// 0 on a fault-free run.
  uint64_t spill_retries = 0;
  uint64_t spill_retry_successes = 0;
  uint64_t degradation_events = 0;
  uint64_t recovered_sets = 0;
  uint64_t growth_admission_caps = 0;
  /// θ-schedule observability (see rrset/sample_sizer.h). Growth engaged =
  /// sample_growth_events > 0; idle Eq. 10 revisions mean the schedule was
  /// already satisfied (flat θ or cap saturation) when s̃ rose.
  uint64_t sample_growth_events = 0;
  uint64_t idle_growth_revisions = 0;
  /// Schedule queries that saturated at TiOptions::theta_cap.
  uint64_t theta_cap_hits = 0;
  /// The store's KPT pilot: its OPT lower bound, drawn set count, and
  /// whether the doubling loop converged (shared-store ads report the
  /// group's single pilot).
  double kpt_lower_bound = 0.0;
  uint64_t pilot_sets = 0;
  bool pilot_converged = false;
};

struct TiResult {
  Allocation allocation;
  std::vector<TiAdStats> ad_stats;
  double total_revenue = 0.0;      // Σ_j π_j, RR estimate
  double total_seeding_cost = 0.0;
  uint64_t total_seeds = 0;
  uint64_t total_theta = 0;
  uint64_t total_rr_memory_bytes = 0;
  uint64_t total_rr_index_bytes = 0;
  /// Out-of-core tier totals across stores (all 0 when unbudgeted).
  uint64_t total_spilled_bytes = 0;
  uint64_t total_spill_chunks = 0;
  uint64_t total_scan_reloads = 0;
  uint64_t total_chunks_read = 0;
  uint64_t total_chunks_skipped = 0;
  /// Failure-handling totals (see TiAdStats; all 0 on a fault-free run).
  /// degradation/recovery never change the computed fields above — a
  /// fixed seed yields the same allocation/revenue/θ with or without
  /// injected cold-tier faults; only these counters differ.
  uint64_t total_spill_retries = 0;
  uint64_t total_spill_retry_successes = 0;
  uint64_t total_degradation_events = 0;
  uint64_t total_recovered_sets = 0;
  uint64_t total_growth_admission_caps = 0;
  /// Aggregate θ-growth observability: total adoptions, how many ads ever
  /// grew their sample past θ(1), and how many never did.
  uint64_t total_growth_events = 0;
  uint32_t ads_growth_engaged = 0;
  uint32_t ads_growth_idle = 0;
  uint64_t total_theta_cap_hits = 0;
  double elapsed_seconds = 0.0;
};

/// Runs the TI driver on `instance` with the given rules. Deterministic in
/// options.seed.
Result<TiResult> RunTiGreedy(const RmInstance& instance,
                             const TiOptions& options);

/// Convenience wrappers matching the paper's algorithm names.
Result<TiResult> RunTiCarm(const RmInstance& instance, TiOptions options = {});
Result<TiResult> RunTiCsrm(const RmInstance& instance, TiOptions options = {});
Result<TiResult> RunPageRankGr(const RmInstance& instance,
                               TiOptions options = {});
Result<TiResult> RunPageRankRr(const RmInstance& instance,
                               TiOptions options = {});

}  // namespace isa::core

#endif  // ISA_CORE_TI_GREEDY_H_
