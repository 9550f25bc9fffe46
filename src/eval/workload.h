// Advertiser workload generation and full experiment assembly.
//
// Reproduces the paper's §5 setup: h advertisers whose budgets and CPE
// values are drawn from the ranges of Table 2, topic distributions forming
// the pure-competition marketplace (FLIXSTER, L = 10) or all-identical
// (L = 1 datasets), and seed incentives computed from ad-specific singleton
// spreads under one of the four incentive models.

#ifndef ISA_EVAL_WORKLOAD_H_
#define ISA_EVAL_WORKLOAD_H_

#include <memory>
#include <vector>

#include "common/status.h"
#include "core/incentives.h"
#include "core/problem.h"
#include "eval/datasets.h"

namespace isa::eval {

/// How σ_i({u}) is obtained for incentive assignment.
enum class SpreadSource {
  /// Batch RR-set estimate (scalable stand-in for the paper's 5K-run
  /// Monte-Carlo on the quality datasets).
  kRrEstimate,
  /// Per-node Monte-Carlo (the paper's quality-dataset method; slow).
  kMonteCarlo,
  /// 1 + out-degree (the paper's DBLP / LIVEJOURNAL proxy).
  kOutDegreeProxy,
};

struct WorkloadOptions {
  uint32_t num_advertisers = 10;
  /// Budget range (paper Table 2: FLIXSTER [6K, 20K], EPINIONS [6K, 12K]).
  double budget_min = 6'000.0;
  double budget_max = 20'000.0;
  /// CPE range (paper Table 2: [1, 2]).
  double cpe_min = 1.0;
  double cpe_max = 2.0;
  core::IncentiveModel incentive_model = core::IncentiveModel::kLinear;
  double alpha = 0.2;
  SpreadSource spread_source = SpreadSource::kRrEstimate;
  /// RR sets per ad (kRrEstimate) or cascades per node (kMonteCarlo).
  uint32_t spread_effort = 50'000;
  uint64_t seed = 99;
};

/// Owns everything an experiment needs, with stable addresses:
/// the dataset (graph + topic probabilities), the advertiser specs, the
/// per-ad singleton-spread estimates, and the assembled RmInstance.
struct ExperimentSetup {
  std::unique_ptr<Dataset> dataset;
  std::vector<core::AdvertiserSpec> ads;
  /// singleton_spreads[i][u] = σ_i({u}) estimate used for incentives.
  std::vector<std::vector<double>> singleton_spreads;
  std::unique_ptr<core::RmInstance> instance;
};

/// Draws advertiser specs (budgets, CPEs, topic distributions) for the
/// dataset. FLIXSTER*-style multi-topic datasets get the pure-competition
/// marketplace; single-topic datasets give every ad the same distribution
/// (full competition), matching §5.
Result<std::vector<core::AdvertiserSpec>> MakeAdvertisers(
    const Dataset& dataset, const WorkloadOptions& options);

/// Computes σ_i({u}) estimates for every ad under the configured source.
/// kRrEstimate samples every ad on one pool at hardware concurrency.
Result<std::vector<std::vector<double>>> ComputeSingletonSpreads(
    const Dataset& dataset, const std::vector<core::AdvertiserSpec>& ads,
    const WorkloadOptions& options);

/// End-to-end assembly: dataset must outlive the returned setup (it is
/// moved into it). Recomputes incentives from the singleton spreads with
/// the options' model and alpha.
Result<ExperimentSetup> BuildExperiment(std::unique_ptr<Dataset> dataset,
                                        const WorkloadOptions& options);

/// Rebuilds only the RmInstance of `setup` with a new incentive model/alpha,
/// reusing the cached singleton spreads — the Fig. 2/3 α-sweeps use this to
/// avoid re-estimating spreads per sweep point.
Status RebuildInstanceWithIncentives(ExperimentSetup& setup,
                                     core::IncentiveModel model, double alpha);

}  // namespace isa::eval

#endif  // ISA_EVAL_WORKLOAD_H_
