#include "rrset/sample_sizer.h"

#include <algorithm>
#include <cmath>

#include "common/math_util.h"
#include "rrset/parallel_sampler.h"

namespace isa::rrset {

SampleSizer::SampleSizer(const graph::Graph& g, std::span<const double> probs,
                         const SampleSizerOptions& options)
    : options_(options),
      n_(g.num_nodes()),
      m_(g.num_edges()),
      coins_(options.model == DiffusionModel::kIndependentCascade
                 ? BuildCoinColumn(g, probs, /*arc_codes=*/true)
                 : nullptr) {
  if (options_.run_kpt_pilot && n_ > 1 && m_ > 0) RunPilot(g, probs);
}

namespace {

// ℓ of Eq. 8 and of the pilot: the failure probability is n^-ℓ.
constexpr double kEll = 1.0;

// Doubling-loop cap. TIM runs to log2(n)−1 rounds; under low-probability
// models (weighted cascade) the mean κ rarely crosses its threshold and the
// full loop costs ~2^(log2 n) pilot sets per advertiser. Capping at 8
// bounds the pilot at a few tens of thousands of sets; the last round
// still gives an unbiased (if less tightly concentrated) KPT estimate.
constexpr uint32_t kMaxPilotRounds = 8;

}  // namespace

void SampleSizer::RunPilot(const graph::Graph& g,
                           std::span<const double> probs) {
  // TIM Algorithm 2 doubling loop for k = 1: round i draws
  // c_i = (6 ℓ ln n + 6 ln log2 n) · 2^i sets; if the mean of
  // κ(R) = w(R)/m crosses 1/2^i, KPT = n/2 · mean(κ) is retained.
  //
  // Pilot set `id` counts across rounds, so each round continues the
  // sampler's id sequence where the last one stopped.
  ParallelSamplerOptions po;
  po.num_threads = options_.pool == nullptr ? 1 : 0;
  po.pool = options_.pool;
  ParallelSampler sampler(g, probs, options_.model,
                          HashSeed(options_.seed, 0x4b7), po, coins_);
  const double log_n = std::log(static_cast<double>(n_));
  const double log_log_n =
      std::log(std::max(2.0, std::log2(static_cast<double>(n_))));
  const uint32_t rounds = std::min<uint32_t>(
      kMaxPilotRounds,
      n_ > 2 ? static_cast<uint32_t>(std::log2(static_cast<double>(n_)))
             : 1);
  std::vector<graph::NodeId> nodes;
  std::vector<uint32_t> sizes;

  for (uint32_t i = 1; i <= rounds; ++i) {
    const uint64_t ci = static_cast<uint64_t>(
        std::ceil((6.0 * kEll * log_n + 6.0 * log_log_n) *
                  std::pow(2.0, i)));
    sampler.SampleToBuffer(pilot_sets_, ci, &nodes, &sizes);
    pilot_sets_ += ci;  // total drawn across rounds, not just this one

    // κ summed in id order — thread count never changes the value.
    double kappa_sum = 0.0;
    const graph::NodeId* member = nodes.data();
    for (const uint32_t size : sizes) {
      uint64_t width = 0;
      for (uint32_t k = 0; k < size; ++k) width += g.InDegree(*member++);
      kappa_sum += static_cast<double>(width) / static_cast<double>(m_);
    }
    kpt_ = static_cast<double>(n_) * kappa_sum /
           (2.0 * static_cast<double>(ci));
    if (kappa_sum / static_cast<double>(ci) > 1.0 / std::pow(2.0, i)) {
      pilot_converged_ = true;  // keep this round's estimate
      return;
    }
  }
  // No round crossed its threshold: the last (largest) round's estimate is
  // retained anyway — a valid lower bound in expectation, but without the
  // doubling-loop concentration argument. pilot_converged() stays false so
  // callers can tell a guaranteed bound from a best-effort one.
}

double SampleSizer::OptLowerBound() const {
  // OPT_1 >= 1 always (a seed engages itself), and the pilot's KPT is a
  // lower bound on OPT_1 <= OPT_s for every s — so the denominator is one
  // scalar, fixed at pilot time. Do NOT floor by s: OPT_s >= s is a valid
  // bound, but coupling the denominator to s makes θ(s̃) non-increasing
  // and idles the growth machinery (see file comment in the header).
  return std::max(1.0, kpt_);
}

uint64_t SampleSizer::ThetaFor(uint64_t s) const {
  if (n_ == 0) return 1;
  s = std::clamp<uint64_t>(s, 1, n_);
  const double eps = options_.epsilon;
  const double numerator =
      (8.0 + 2.0 * eps) * static_cast<double>(n_) *
      (kEll * std::log(static_cast<double>(n_)) +
       LogBinomial(n_, s) + std::log(2.0));
  const double theta = numerator / (OptLowerBound() * eps * eps);
  if (!(theta > 0.0)) return 1;
  // Compared before the cast: a θ beyond uint64_t range saturates too.
  if (theta >= static_cast<double>(options_.theta_cap)) {
    return options_.theta_cap;
  }
  return static_cast<uint64_t>(std::ceil(theta));
}

// ------------------------------------------------------------ ThetaSchedule

ThetaSchedule::ThetaSchedule(std::shared_ptr<const SampleSizer> sizer)
    : sizer_(std::move(sizer)) {}

uint64_t ThetaSchedule::ThetaFor(uint64_t s) {
  const uint64_t n = sizer_->n();
  if (n == 0) return 1;
  const uint64_t clamped = std::clamp<uint64_t>(s, 1, n);
  if (clamped != s) ++clamped_queries_;
  s = clamped;
  // Extend the running-max memo up to s. Each s' is evaluated exactly once
  // over the schedule's lifetime, so the total cost is O(max s̃) lgamma
  // calls per advertiser.
  while (memo_.size() < s) {
    const uint64_t next_s = memo_.size() + 1;
    const uint64_t raw = sizer_->ThetaFor(next_s);
    memo_.push_back(memo_.empty() ? raw : std::max(memo_.back(), raw));
  }
  const uint64_t theta = memo_[s - 1];
  if (theta >= sizer_->options().theta_cap) ++cap_hits_;
  return theta;
}

}  // namespace isa::rrset
