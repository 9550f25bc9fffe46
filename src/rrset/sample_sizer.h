// TIM-style sample-size determination (Tang et al., adapted in paper §4.2).
//
// Equation (8): for seed-set size s and accuracy ε,
//   L(s, ε) = (8 + 2ε) · n · (ℓ·log n + log C(n, s) + log 2) / (OPT · ε²)
// RR samples of size θ ≥ L(s, ε) estimate the spread of *any* seed set of
// size ≤ s within ±(ε/2)·OPT_s w.h.p. — the oracle property TI-CARM /
// TI-CSRM rely on (IMM/SSA tune their samples only for the greedy solution
// and cannot serve as spread oracles; see paper §4.1).
//
// The machinery is split in two, matching the paper's contract:
//
//   SampleSizer   — the KPT pilot, run ONCE per RR store (TIM Algorithm 2
//                   with k = 1). Its product is a single scalar lower bound
//                   on OPT: max(1, KPT), where KPT = n/2 · mean(w(R)/m)
//                   over the pilot sets of the converged doubling round,
//                   w(R) being the in-degree sum of R's nodes — the arcs
//                   a reverse BFS over R examines.
//                   KPT ≤ OPT_1 ≤ OPT_s for every s (monotonicity), so one
//                   pilot serves the whole schedule. SampleSizer::ThetaFor
//                   is the raw Eq. 8 evaluator over that fixed denominator.
//                   Under IC it also builds and holds the store's one
//                   coin column (rr_sampler.h), the only one with arc
//                   codes, which the pilot and the store's samplers
//                   share.
//   ThetaSchedule — the per-s sample-size table L(s, ε) consumed by the
//                   selection engine: a lazily memoized, monotone
//                   (running-max) view of ThetaFor. Adopted samples never
//                   shrink (Algorithm 2 line 19 only appends), so the
//                   schedule is non-decreasing in s by construction even
//                   where raw Eq. 8 dips (log C(n, s) peaks at s = n/2).
//
// Earlier revisions re-evaluated the KPT bound per s from the retained
// pilot widths and floored it with OPT_s ≥ s. Both inflate the denominator
// as s grows: the per-s re-evaluation has no concentration guarantee (the
// doubling-loop threshold was crossed for k = 1 only), and the combined
// bound grew at least as fast as the λ(s) numerator — so θ(s̃) was
// non-increasing, the θ-growth machinery idled, and the whole sample was
// (over-)drawn up front. Eq. 8's faithful reading keeps the denominator
// fixed at the pilot estimate; a smaller lower bound only enlarges θ,
// which is the safe direction for the oracle guarantee.
//
// Determinism contract: the pilot draws its sets through one
// rrset::ParallelSampler over HashSeed(seed, 0x4b7), so pilot set `id` —
// its position in the doubling loop's concatenated draw sequence — is the
// same RR set RrSampler::SampleIds draws for that id anywhere else, and
// the pilot widths, hence θ, are bit-identical with or without a pool, at
// any worker count.

#ifndef ISA_RRSET_SAMPLE_SIZER_H_
#define ISA_RRSET_SAMPLE_SIZER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "graph/graph.h"
#include "rrset/rr_sampler.h"

namespace isa {
class ThreadPool;
}

namespace isa::rrset {

struct SampleSizerOptions {
  double epsilon = 0.1;   // ε of Eq. 8
  bool run_kpt_pilot = true;
  uint64_t theta_cap = 20'000'000;  // safety valve on θ per advertiser
  uint64_t seed = 7;
  /// Read by nothing; kept only because perfbench sets it (ROADMAP item 2).
  DiffusionModel model = DiffusionModel::kIndependentCascade;
  /// Borrowed pool the pilot's sampler runs on (not owned; must outlive
  /// the constructor call). Null = a single-threaded pilot; widths are
  /// bit-identical either way (see determinism contract above).
  ThreadPool* pool = nullptr;
};

/// The once-per-store KPT pilot plus the raw Eq. 8 evaluator.
///
/// Invariants:
///   - the pilot runs at most once (in the constructor) and its products
///     (KPT estimate, convergence flag, set count) never change after;
///   - OptLowerBound() is constant in s — KPT ≤ OPT_1 ≤ OPT_s — so one
///     pilot serves every seed-set size and every ad sharing the store;
///   - ThetaFor is a pure function of (s, the pilot, the options),
///     clamped to [1, theta_cap]; it is bit-identical at any worker
///     count because the pilot draws from per-set-id substreams.
///
/// Immutable after construction, so the ads sharing a store may query one
/// sizer concurrently.
class SampleSizer {
 public:
  /// Builds the store's coin column with arc codes, then runs the KPT pilot
  /// (unless disabled) through a ParallelSampler over `probs` that shares
  /// it; retains only the pilot's scalar products (KPT estimate,
  /// convergence flag, set count), not the sets.
  SampleSizer(const graph::Graph& g, std::span<const double> probs,
              const SampleSizerOptions& options);

  /// Raw Eq. 8 for seed-set size `s` over the fixed pilot denominator,
  /// clamped to [1, theta_cap]. Out-of-range `s` (0 or > n) is clamped to
  /// [1, n]. Selection engines consume the monotone ThetaSchedule, which
  /// counts both clamps and cap hits, instead of calling this per round.
  uint64_t ThetaFor(uint64_t s) const;

  /// The fixed OPT lower bound ThetaFor divides by: max(1, KPT). Constant
  /// in s — KPT ≤ OPT_1 ≤ OPT_s (see file comment).
  double OptLowerBound() const;

  /// The pilot's KPT estimate (0 when the pilot was disabled or skipped).
  double kpt() const { return kpt_; }

  /// False when the doubling loop fell off its last round without the mean
  /// κ crossing the 1/2^i threshold (the estimate is then taken from the
  /// final round anyway — a valid but weakly concentrated lower bound) or
  /// when the pilot never ran. isa_cli shows it as the per-ad `weak`
  /// column.
  bool pilot_converged() const { return pilot_converged_; }

  /// Number of pilot RR sets drawn (0 if the pilot was disabled).
  uint64_t pilot_sets() const { return pilot_sets_; }
  /// Mean members per set over the pilot's last round (0 without a
  /// pilot): what RunTiGreedy sizes a budgeted store's batches by.
  double pilot_mean_set_size() const { return pilot_mean_set_size_; }

  uint64_t n() const { return n_; }
  const SampleSizerOptions& options() const { return options_; }

  /// BuildCoinColumn(g, probs, /*arc_codes=*/true), never null. The
  /// pilot sampled with it; the store's ParallelSamplers (θ sample, growth
  /// batches) and its cold-chunk re-sampler take it too, so one column,
  /// arc codes included, is built per store per solve.
  const std::shared_ptr<const CoinColumn>& coins() const { return coins_; }

 private:
  void RunPilot(const graph::Graph& g, std::span<const double> probs);

  SampleSizerOptions options_;
  uint64_t n_ = 0;
  uint64_t m_ = 0;
  std::shared_ptr<const CoinColumn> coins_;
  double kpt_ = 0.0;
  bool pilot_converged_ = false;
  uint64_t pilot_sets_ = 0;
  double pilot_mean_set_size_ = 0.0;
};

/// The per-s sample-size table θ(s) = running max of SampleSizer::ThetaFor
/// over s' ≤ s, lazily memoized. One schedule per advertiser (its memo and
/// counters are per-ad state) over a SampleSizer that may be shared by
/// every advertiser on the same RR store.
///
/// Invariants:
///   - θ(s) is monotone non-decreasing in s (running max), matching
///     Algorithm 2 line 19: adopted samples never shrink;
///   - query order never changes the values — θ(s) is determined by the
///     pilot alone, so two ads sharing a sizer can interleave queries
///     arbitrarily and read identical tables;
///   - out-of-range s is clamped to [1, n] and counted, never silent.
class ThetaSchedule {
 public:
  ThetaSchedule() = default;
  explicit ThetaSchedule(std::shared_ptr<const SampleSizer> sizer);

  /// θ for latent seed-set size `s`; non-decreasing in s. Out-of-range `s`
  /// is clamped to [1, n] and counted in clamped_queries().
  uint64_t ThetaFor(uint64_t s);

  /// Queries whose scheduled θ saturated at theta_cap.
  uint64_t cap_hits() const { return cap_hits_; }

  /// Queries with s outside [1, n].
  uint64_t clamped_queries() const { return clamped_queries_; }

  const SampleSizer& sizer() const { return *sizer_; }

 private:
  std::shared_ptr<const SampleSizer> sizer_;
  std::vector<uint64_t> memo_;  // memo_[s-1] = max_{s' <= s} ThetaFor(s')
  uint64_t cap_hits_ = 0;
  uint64_t clamped_queries_ = 0;
};

}  // namespace isa::rrset

#endif  // ISA_RRSET_SAMPLE_SIZER_H_
