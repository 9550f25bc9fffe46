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
//                   over the pilot widths of the converged doubling round.
//                   KPT ≤ OPT_1 ≤ OPT_s for every s (monotonicity), so one
//                   pilot serves the whole schedule. SampleSizer::ThetaFor
//                   is the raw Eq. 8 evaluator over that fixed denominator.
//                   Under IC it also holds the store's one coin column
//                   (rr_sampler.h), which the pilot and the store's
//                   samplers share.
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
// Determinism contract (same as rrset::ParallelSampler): every pilot set
// has an absolute id — its position in the doubling loop's concatenated
// draw sequence — and is sampled from the Rng substream
// HashSeed(pilot_stream, id). The serial path walks the same ids, so the
// pilot widths, and hence θ, are bit-identical with or without a pool, at
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
  double ell = 1.0;       // ℓ (failure prob n^-ℓ)
  bool run_kpt_pilot = true;
  /// Doubling-loop cap. TIM runs to log2(n)−1 rounds; under low-probability
  /// models (weighted cascade) the mean κ rarely crosses its threshold and
  /// the full loop costs ~2^(log2 n) pilot sets per advertiser. Capping at 8
  /// bounds the pilot at a few tens of thousands of sets; the retained
  /// widths still give an unbiased (if less tightly concentrated) KPT
  /// estimate. Raise for guarantee-faithful runs.
  uint32_t max_pilot_rounds = 8;
  uint64_t theta_cap = 20'000'000;  // safety valve on θ per advertiser
  uint64_t seed = 7;
  /// Propagation model the pilot samples under (must match the main
  /// sample's model).
  DiffusionModel model = DiffusionModel::kIndependentCascade;
  /// Borrowed pool the pilot rounds run on (not owned; must outlive the
  /// constructor call). Null = serial pilot; widths are bit-identical
  /// either way (see determinism contract above).
  ThreadPool* pool = nullptr;
  /// Below this many pilot sets per would-be task, fewer tasks are used
  /// (down to the serial loop).
  uint64_t min_pilot_sets_per_task = 256;
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
/// Not thread-safe after construction: the diagnostic counters mutate on
/// (const) ThetaFor calls, so concurrent readers must hold distinct sizers
/// or serialize externally — the TI driver queries only from the group's
/// init task and then the single scheduler thread.
class SampleSizer {
 public:
  /// Under IC builds the store's coin column, then runs the KPT pilot
  /// (unless disabled) using private samplers over `probs` that share it;
  /// retains only the pilot's scalar products (KPT estimate, convergence
  /// flag, set count), not the widths.
  SampleSizer(const graph::Graph& g, std::span<const double> probs,
              const SampleSizerOptions& options);

  /// Raw Eq. 8 for seed-set size `s` over the fixed pilot denominator,
  /// clamped to [1, theta_cap]. Out-of-range `s` (0 or > n) is clamped to
  /// [1, n]; both the clamp and a theta_cap saturation are counted (and
  /// warned about once) rather than silent — see clamped_s_queries() /
  /// theta_cap_hits(). Selection engines should consume the monotone
  /// ThetaSchedule instead of calling this per round.
  uint64_t ThetaFor(uint64_t s) const;

  /// The fixed OPT lower bound ThetaFor divides by: max(1, KPT). Constant
  /// in s — KPT ≤ OPT_1 ≤ OPT_s (see file comment).
  double OptLowerBound() const;

  /// The pilot's KPT estimate (0 when the pilot was disabled or skipped).
  double kpt() const { return kpt_; }

  /// False when the doubling loop fell off its last round without the mean
  /// κ crossing the 1/2^i threshold (the estimate is then taken from the
  /// final round anyway — a valid but weakly concentrated lower bound) or
  /// when the pilot never ran. Logged once at pilot time.
  bool pilot_converged() const { return pilot_converged_; }

  /// Number of pilot RR sets drawn (0 if the pilot was disabled).
  uint64_t pilot_sets() const { return pilot_sets_; }

  /// Doubling rounds actually run.
  uint32_t pilot_rounds() const { return pilot_rounds_; }

  /// Times ThetaFor saturated at options.theta_cap.
  uint64_t theta_cap_hits() const { return theta_cap_hits_; }

  /// Times ThetaFor was queried with s outside [1, n].
  uint64_t clamped_s_queries() const { return clamped_s_queries_; }

  uint64_t n() const { return n_; }
  const SampleSizerOptions& options() const { return options_; }

  /// BuildCoinColumn(g, probs), null under LT. The pilot sampled with it;
  /// the store's ParallelSamplers take it too, so one column is built per
  /// store per solve.
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
  uint32_t pilot_rounds_ = 0;

  // Diagnostics (see class comment for the thread-safety contract); the
  // warn flags keep the log to one line per sizer per condition.
  mutable uint64_t theta_cap_hits_ = 0;
  mutable uint64_t clamped_s_queries_ = 0;
  mutable bool warned_cap_ = false;
  mutable bool warned_clamp_ = false;
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

  /// Largest s the memo table has been extended to.
  uint64_t max_s_evaluated() const { return memo_.size(); }

  const SampleSizer& sizer() const { return *sizer_; }

 private:
  std::shared_ptr<const SampleSizer> sizer_;
  std::vector<uint64_t> memo_;  // memo_[s-1] = max_{s' <= s} ThetaFor(s')
  uint64_t cap_hits_ = 0;
  uint64_t clamped_queries_ = 0;
};

}  // namespace isa::rrset

#endif  // ISA_RRSET_SAMPLE_SIZER_H_
