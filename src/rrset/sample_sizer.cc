#include "rrset/sample_sizer.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/math_util.h"
#include "common/thread_pool.h"

namespace isa::rrset {

SampleSizer::SampleSizer(const graph::Graph& g, std::span<const double> probs,
                         const SampleSizerOptions& options)
    : options_(options),
      n_(g.num_nodes()),
      m_(g.num_edges()),
      coins_(options.model == DiffusionModel::kIndependentCascade
                 ? BuildCoinColumn(g, probs)
                 : nullptr) {
  if (options_.run_kpt_pilot && n_ > 1 && m_ > 0) RunPilot(g, probs);
}

void SampleSizer::RunPilot(const graph::Graph& g,
                           std::span<const double> probs) {
  // TIM Algorithm 2 doubling loop for k = 1: round i draws
  // c_i = (6 ℓ ln n + 6 ln log2 n) · 2^i sets; if the mean of
  // κ(R) = w(R)/m crosses 1/2^i, KPT = n/2 · mean(κ) is retained.
  //
  // Pilot set `id` (counting across rounds) draws from the substream
  // HashSeed(stream, id); rounds are partitioned into contiguous id chunks
  // across the pool, each task with a private sampler, and the widths land
  // in id-indexed slots — so serial and parallel pilots are bit-identical.
  const uint64_t stream = HashSeed(options_.seed, 0x4b7);
  const double log_n = std::log(static_cast<double>(n_));
  const double log_log_n =
      std::log(std::max(2.0, std::log2(static_cast<double>(n_))));
  const uint32_t rounds = std::min<uint32_t>(
      options_.max_pilot_rounds,
      n_ > 2 ? static_cast<uint32_t>(std::log2(static_cast<double>(n_)))
             : 1);

  // Task-indexed samplers (O(n) epoch arrays), created lazily and reused
  // across the doubling rounds; slot 0 doubles as the serial sampler. All
  // share the store's coin column.
  std::vector<std::unique_ptr<RrSampler>> samplers(
      options_.pool == nullptr ? 1 : options_.pool->concurrency());
  auto sampler_for = [&](uint64_t t) -> RrSampler& {
    if (samplers[t] == nullptr) {
      samplers[t] =
          std::make_unique<RrSampler>(g, probs, options_.model, coins_);
    }
    return *samplers[t];
  };
  std::vector<graph::NodeId> scratch;
  std::vector<uint64_t> widths;

  uint64_t next_id = 0;
  for (uint32_t i = 1; i <= rounds; ++i) {
    pilot_rounds_ = i;
    const uint64_t ci = static_cast<uint64_t>(
        std::ceil((6.0 * options_.ell * log_n + 6.0 * log_log_n) *
                  std::pow(2.0, i)));
    const uint64_t first_id = next_id;
    next_id += ci;

    widths.assign(ci, 0);
    const uint32_t tasks =
        options_.pool == nullptr
            ? 1
            : options_.pool->WorkersFor(
                  ci, std::max<uint64_t>(1, options_.min_pilot_sets_per_task));
    if (tasks <= 1) {
      RrSampler& sampler = sampler_for(0);
      for (uint64_t k = 0; k < ci; ++k) {
        Rng rng(HashSeed(stream, first_id + k));
        sampler.SampleInto(rng, &scratch);
        widths[k] = sampler.last_width();
      }
    } else {
      options_.pool->Run(tasks, [&](uint64_t t) {
        RrSampler& sampler = sampler_for(t);
        std::vector<graph::NodeId> local_scratch;
        const uint64_t lo = ci * t / tasks;
        const uint64_t hi = ci * (t + 1) / tasks;
        for (uint64_t k = lo; k < hi; ++k) {
          Rng rng(HashSeed(stream, first_id + k));
          sampler.SampleInto(rng, &local_scratch);
          widths[k] = sampler.last_width();
        }
      });
    }

    // κ summed in id order — thread count never changes the value.
    double kappa_sum = 0.0;
    for (uint64_t w : widths) {
      kappa_sum += static_cast<double>(w) / static_cast<double>(m_);
    }
    pilot_sets_ = next_id;  // total drawn across rounds, not just this one
    kpt_ = static_cast<double>(n_) * kappa_sum /
           (2.0 * static_cast<double>(ci));
    if (kappa_sum / static_cast<double>(ci) > 1.0 / std::pow(2.0, i)) {
      pilot_converged_ = true;  // keep this round's estimate
      return;
    }
  }
  // No round crossed its threshold: the last (largest) round's estimate is
  // retained anyway — a valid lower bound in expectation, but without the
  // doubling-loop concentration argument. Surfaced so callers can tell a
  // guaranteed bound from a best-effort one.
  ISA_LOG("SampleSizer: KPT pilot did not converge after %u rounds "
          "(n=%llu, kpt=%.3g); θ schedule uses the weakly concentrated "
          "last-round estimate",
          pilot_rounds_, (unsigned long long)n_, kpt_);
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
  const uint64_t clamped = std::clamp<uint64_t>(s, 1, n_);
  if (clamped != s) {
    ++clamped_s_queries_;
    if (!warned_clamp_) {
      warned_clamp_ = true;
      ISA_LOG("SampleSizer: ThetaFor(s=%llu) outside [1, %llu]; clamping "
              "(further clamps counted silently)",
              (unsigned long long)s, (unsigned long long)n_);
    }
  }
  s = clamped;
  const double eps = options_.epsilon;
  const double numerator =
      (8.0 + 2.0 * eps) * static_cast<double>(n_) *
      (options_.ell * std::log(static_cast<double>(n_)) +
       LogBinomial(n_, s) + std::log(2.0));
  const double theta = numerator / (OptLowerBound() * eps * eps);
  if (!(theta > 0.0)) return 1;
  // Saturation is judged on the integer θ actually returned, so this
  // counter agrees with ThetaSchedule's (which can only see the returned
  // value): a θ that ceils exactly to the cap counts as a hit.
  const uint64_t ceiled =
      theta >= static_cast<double>(options_.theta_cap)
          ? options_.theta_cap
          : static_cast<uint64_t>(std::ceil(theta));
  const uint64_t result =
      std::min(options_.theta_cap, std::max<uint64_t>(1, ceiled));
  if (result >= options_.theta_cap) {
    ++theta_cap_hits_;
    if (!warned_cap_) {
      warned_cap_ = true;
      ISA_LOG("SampleSizer: Eq. 8 wants θ=%.3g for s=%llu; saturating at "
              "theta_cap=%llu (further cap hits counted silently)",
              theta, (unsigned long long)s,
              (unsigned long long)options_.theta_cap);
    }
  }
  return result;
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
