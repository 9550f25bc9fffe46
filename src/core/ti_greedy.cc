#include "core/ti_greedy.h"

#include <algorithm>
#include <bit>
#include <memory>
#include <new>
#include <unordered_map>
#include <utility>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "core/advertiser_engine.h"
#include "rrset/rr_collection.h"
#include "rrset/rr_sampler.h"
#include "rrset/spill_file.h"
#include "rrset/tiered_store.h"

namespace isa::core {

namespace {

// Content hash of an ad's Eq.-1 probability vector. -0.0 is canonicalized
// to +0.0 so vectors equal under operator== (the old pairwise-std::equal
// grouping criterion) always land in the same bucket; equality is still
// re-verified on hash match.
uint64_t HashProbVector(std::span<const double> probs) {
  uint64_t h = 0x9e3779b97f4a7c15ULL ^ probs.size();
  for (double x : probs) {
    if (x == 0.0) x = 0.0;
    h = SplitMix64(h ^ std::bit_cast<uint64_t>(x)).Next();
  }
  return h;
}

// One physical RR store, its out-of-core tier and the advertisers that
// view it, in ad order. ads.front() is the leader: its probabilities and
// seed drive the store's KPT pilot, resampler and θ(1) sample, and the
// result charges the store to it. Without a memory budget the tier is a
// no-op.
struct StoreGroup {
  std::shared_ptr<rrset::RrStore> store;
  rrset::TieredRrStore tier;
  std::vector<uint32_t> ads;
  // Sets per batch of the streamed θ(1) sample (FirstSampleBatch); 0 draws
  // it in one batch.
  uint64_t batch = 0;
};

// Fewest sets per streamed batch: each batch pays O(n) passes in its
// append, adoption and eviction, so a budget of a few sets must not mean
// batches of a few sets.
constexpr uint64_t kMinFirstSampleBatch = 1024;

// Sets per batch when a budgeted store streams its θ(1) sample through the
// tier: about the budget's worth of resident bytes, at an offset plus a
// member and an index posting per member at the pilot's mean set size. A
// batch is the most the budget can hold, and with budgets of a chunk or
// more each eviction writes at least about one chunk. 0, one batch, when
// unbudgeted or when the whole sample fits the budget.
uint64_t FirstSampleBatch(const TiOptions& options,
                          const rrset::SampleSizer& sizer) {
  const uint64_t budget = options.rr_memory_budget_bytes;
  const uint64_t theta = sizer.ThetaFor(1);
  const double set_bytes = sizeof(uint64_t) + 2 * sizeof(graph::NodeId) *
                                                  sizer.pilot_mean_set_size();
  if (budget == 0 || budget >= set_bytes * static_cast<double>(theta)) {
    return 0;
  }
  const uint64_t batch =
      std::max(kMinFirstSampleBatch,
               static_cast<uint64_t>(static_cast<double>(budget) / set_bytes));
  return batch < theta ? batch : 0;
}

// Stage 0 for the stores that stream θ(1) (batch > 0): batch k of every
// such store is drawn by its leader's sampler, appended, and adopted by
// each view in ad order. Before batch k + 1 is appended, the store's tier
// evicts all of it (the next batch fills the budget), so a store holds one
// batch plus the next one's shards, never the whole sample. Per step one
// task evicts every store, in group order, while the other tasks draw each
// store's next batch into shards: spill writes, and so the spill.*
// failpoint hits, keep one order at any thread count. In the step after
// its last batch a group builds its candidate orders instead, and its tier
// evicts down to the budget. The ids and their substreams are those of one
// big batch, so every set, and everything computed, is bit-identical to
// the one-batch path; only chunk boundaries and memory counters move.
void StreamFirstSample(ThreadPool& pool, std::span<StoreGroup* const> streamed,
                       std::span<const std::unique_ptr<AdvertiserEngine>> ads,
                       std::span<Status> init_status) {
  uint64_t steps = 0;
  for (const StoreGroup* g : streamed) {
    const uint64_t theta = ads[g->ads.front()]->initial_theta();
    steps = std::max(steps, (theta + g->batch - 1) / g->batch);
  }
  std::vector<std::vector<rrset::RrSetColumns>> shards(streamed.size());
  for (uint64_t step = 0; step <= steps; ++step) {
    pool.Run(streamed.size() + 1, [&](uint64_t t) {
      if (t == 0) {
        for (StoreGroup* g : streamed) {
          const bool more =
              step * g->batch < ads[g->ads.front()]->initial_theta();
          g->tier.MaybeSpill(
              g->store->num_sets(), &pool,
              more ? g->tier.options().rr_memory_budget_bytes : 0);
        }
        return;
      }
      const StoreGroup& g = *streamed[t - 1];
      AdvertiserEngine& leader = *ads[g.ads.front()];
      const uint64_t lo = step * g.batch;
      const uint64_t theta = leader.initial_theta();
      if (lo < theta) {
        shards[t - 1] =
            leader.sampler().SampleShards(lo, std::min(g.batch, theta - lo));
      } else if (lo - theta < g.batch) {
        for (uint32_t j : g.ads) {
          init_status[j] = ads[j]->BuildCandidateOrder();
          if (!init_status[j].ok()) return;
        }
      }
    });
    if (step == steps) return;
    pool.Run(streamed.size(), [&](uint64_t i) {
      if (shards[i].empty()) return;
      const StoreGroup& g = *streamed[i];
      ads[g.ads.front()]->sampler().AppendShards(*g.store,
                                                 std::exchange(shards[i], {}));
      for (uint32_t j : g.ads) ads[j]->AdoptUpTo(g.store->num_sets());
    });
  }
}

// With share_samples, advertisers whose Eq. 1 probabilities are bitwise
// identical (pure-competition ads) are grouped onto one RR store. A single
// hash-of-contents pass replaces an O(h²·n) pairwise sweep; equality is
// re-verified within a hash bucket, so a hash collision can only cost a
// comparison, never a wrong grouping. Without sharing every ad is its own
// group.
std::vector<StoreGroup> GroupAdsByStore(const RmInstance& instance,
                                        const TiOptions& options) {
  const uint32_t h = instance.num_ads();
  const graph::NodeId n = instance.num_nodes();
  rrset::TieredStoreOptions to;
  to.rr_memory_budget_bytes = options.rr_memory_budget_bytes;
  to.spill_directory = options.spill_directory;
  to.chunk_target_bytes = options.spill_chunk_bytes;
  std::vector<StoreGroup> groups;
  groups.reserve(h);
  std::unordered_map<uint64_t, std::vector<size_t>> groups_by_hash;
  for (uint32_t j = 0; j < h; ++j) {
    if (options.share_samples) {
      const auto probs_j = instance.ad_probs(j);
      auto& bucket = groups_by_hash[HashProbVector(probs_j)];
      auto same = std::find_if(bucket.begin(), bucket.end(), [&](size_t gi) {
        const auto probs_l = instance.ad_probs(groups[gi].ads.front());
        return std::equal(probs_j.begin(), probs_j.end(), probs_l.begin(),
                          probs_l.end());
      });
      if (same != bucket.end()) {
        groups[*same].ads.push_back(j);
        continue;
      }
      bucket.push_back(groups.size());
    }
    auto store = std::make_shared<rrset::RrStore>(n);
    groups.push_back({store, rrset::TieredRrStore(store, to), {j}});
  }
  return groups;
}

// Line 9: the committed advertiser under the selection rule, or h when
// every advertiser is exhausted this round.
uint32_t SelectAd(SelectionRule rule,
                  std::span<const std::unique_ptr<AdvertiserEngine>> ads,
                  std::span<const double> budget, uint32_t round_robin_next) {
  const uint32_t h = static_cast<uint32_t>(ads.size());
  const bool round_robin = rule == SelectionRule::kRoundRobin;
  uint32_t chosen = h;
  double best_key_num = -1.0, best_key_den = 1.0;
  for (uint32_t step = 0; step < h; ++step) {
    const uint32_t j = round_robin ? (round_robin_next + step) % h : step;
    const AdvertiserEngine& ad = *ads[j];
    if (!ad.CandidateFeasible(budget[j])) {
      continue;  // infeasible this round; revisited if state changes
    }
    if (round_robin) return j;
    const double num = ad.cand_marg_rev();
    const double den =
        rule == SelectionRule::kMaxRate ? ad.cand_marg_pay() : 1.0;
    if (chosen == h || RatioGreater(num, den, best_key_num, best_key_den)) {
      chosen = j;
      best_key_num = num;
      best_key_den = den;
    }
  }
  return chosen;
}

// The round loop of Algorithm 2 (lines 5-22). Each round:
//   1. spill     — each store's tier may evict its oldest fully-adopted
//                  sets (ids below min θ_j over the store's views), in
//                  store order; a streamed first sample left the store
//                  within its budget, so this spills only θ-growth;
//   2. candidate — every advertiser settles a budget-feasible candidate
//                  (line 7 + the Algorithm 1 line-12 retirement);
//   3. commit    — the selection rule picks one (node, advertiser) pair
//                  (line 9); the node leaves every ground set and the
//                  winner's covered RR sets are removed (lines 10-15);
//   4. growth    — if the winner's seed count reached s̃_j, Eq. 10 revises
//                  it and the ad's ThetaSchedule decides whether θ_j grows
//                  (lines 17-21).
// Every stage depends only on selection state, never on timing, and
// spilling never changes a computed value, so a fixed seed yields a
// bit-identical TiResult at any thread count and any budget. Exceptions
// from pool stages (realistically std::bad_alloc) propagate.
void RunRounds(const TiOptions& options, ThreadPool& pool,
               std::span<StoreGroup> groups,
               std::span<const std::unique_ptr<AdvertiserEngine>> ads,
               std::span<const double> budget, Allocation* allocation) {
  const uint32_t h = static_cast<uint32_t>(ads.size());
  std::vector<StoreGroup*> group_of_ad(h);
  for (StoreGroup& g : groups) {
    for (uint32_t j : g.ads) group_of_ad[j] = &g;
  }
  uint32_t round_robin_next = 0;
  while (true) {
    for (StoreGroup& g : groups) {
      // Only ids every view of the store has adopted may go cold.
      uint64_t min_theta = UINT64_MAX;
      for (uint32_t j : g.ads) min_theta = std::min(min_theta, ads[j]->theta());
      g.tier.MaybeSpill(min_theta, &pool);
    }

    for (uint32_t j = 0; j < h; ++j) ads[j]->EnsureFeasibleCandidate(budget[j]);

    const uint32_t chosen =
        SelectAd(options.selection_rule, ads, budget, round_robin_next);
    if (chosen == h) return;  // line 16
    round_robin_next = (chosen + 1) % h;

    const graph::NodeId v = ads[chosen]->candidate();
    for (uint32_t k = 0; k < h; ++k) ads[k]->MarkNodeTaken(v);
    ads[chosen]->CommitSeed(v);
    allocation->seed_sets[chosen].push_back(v);

    const uint64_t want = ads[chosen]->MaybeReviseLatentSize(budget[chosen]);
    if (want == 0) continue;
    // Admission policy: once a permanent spill-write failure disabled
    // eviction and the store already exceeds its budget, cap θ-growth
    // instead of growing a footprint nothing can reclaim. Never engages on
    // a healthy tier, so it cannot break the budget bit-identity above.
    const rrset::TieredRrStore& tier = group_of_ad[chosen]->tier;
    if (tier.eviction_disabled() &&
        tier.store()->MemoryBytes() > tier.options().rr_memory_budget_bytes) {
      ads[chosen]->CountGrowthAdmissionCap();
    } else {
      ads[chosen]->GrowNow(want);
    }
  }
}

}  // namespace

Result<TiResult> RunTiGreedy(const RmInstance& instance,
                             const TiOptions& options) {
  const uint32_t h = instance.num_ads();
  const uint32_t n = instance.num_nodes();
  if (n == 0) return Status::InvalidArgument("RunTiGreedy: empty graph");
  if (instance.graph().num_edges() == 0) {
    return Status::InvalidArgument("RunTiGreedy: graph has no edges");
  }
  if (!(options.epsilon > 0.0 && options.epsilon < 1.0)) {  // NaN too
    return Status::InvalidArgument("RunTiGreedy: epsilon must be in (0,1)");
  }
  // Above 2^32 - 1 the hot index's uint32_t set ids would wrap.
  if (options.theta_cap == 0 || options.theta_cap > UINT32_MAX) {
    return Status::InvalidArgument(
        "RunTiGreedy: theta_cap must be in [1, 2^32 - 1]");
  }
  Stopwatch watch;
  std::vector<double> budget(h);
  for (uint32_t j = 0; j < h; ++j) budget[j] = instance.budget(j);

  // One worker pool per invocation, shared by every parallel stage below
  // (declared before `ads` so the engines that borrow it die first).
  ThreadPool pool(options.num_threads);

  // ---- Stage 0: store grouping + parallel per-store init. ----
  std::vector<StoreGroup> groups = GroupAdsByStore(instance, options);
  TiResult result;
  result.allocation.seed_sets.assign(h, {});
  std::vector<std::unique_ptr<AdvertiserEngine>> ads(h);
  std::vector<Status> init_status(h);
  try {
    // KPT pilot + initial θ_j sample + PageRank/heap build per advertiser,
    // independent across stores (ads sharing a store must adopt its prefix
    // in ad order, so each group is one task that handles its ads in
    // sequence). The pilot runs ONCE per store: ads in a group have
    // bitwise-identical Eq. 1 probabilities, so one SampleSizer — seeded by
    // the group leader — serves every member's ThetaSchedule, and its coin
    // column every member's sampler and the store's resampler. Each group
    // draws only from its own HashSeed(seed, leader) substreams, so results
    // are bit-identical at any worker count. Tasks themselves reenter the
    // pool for sampling (see common/thread_pool.h). A budgeted store whose
    // θ(1) would not fit its budget gets only its pilot and engines here:
    // StreamFirstSample then draws its θ(1) through the tier in batches.
    pool.Run(groups.size(), [&](uint64_t gi) {
      StoreGroup& group = groups[gi];
      const uint32_t leader = group.ads.front();
      rrset::SampleSizerOptions so;
      so.epsilon = options.epsilon;
      so.theta_cap = options.theta_cap;
      so.seed = HashSeed(options.seed, 1000 + leader);
      // When the group tasks alone saturate the pool, a nested parallel
      // pilot buys no wall-clock but allocates O(concurrency) worker
      // samplers (O(n) epoch arrays) per concurrent pilot; run those
      // pilots single-threaded instead — the widths are bit-identical
      // either way.
      so.pool = groups.size() >= pool.concurrency() ? nullptr : &pool;
      auto sizer = std::make_shared<const rrset::SampleSizer>(
          instance.graph(), instance.ad_probs(leader), so);
      // Self-healing hook: an unreadable cold chunk is regenerated from its
      // recorded per-batch seed through RrSampler::SampleIds, the per-id
      // loop that sampled it, so the rebuilt sets are bit-identical. The
      // per-range seed carries each ad's substream; the probabilities are
      // the whole group's.
      group.store->SetResampler(
          [&graph = instance.graph(), probs = instance.ad_probs(leader),
           coins = sizer->coins()](
              uint64_t seed, uint64_t lo, uint64_t hi,
              std::vector<uint32_t>* sizes,
              std::vector<graph::NodeId>* nodes) {
            rrset::RrSampler sampler(graph, probs, coins);
            sampler.SampleIds(seed, lo, hi - lo, sizes, nodes);
          });
      group.batch = FirstSampleBatch(options, *sizer);
      for (uint32_t j : group.ads) {
        AdvertiserEngineOptions eo;
        eo.candidate_rule = options.candidate_rule;
        eo.window = options.window;
        eo.sampler_seed = HashSeed(options.seed, j);
        eo.sizer = sizer;
        eo.sampler.pool = &pool;
        ads[j] = std::make_unique<AdvertiserEngine>(j, instance, group.store,
                                                    eo);
        if (group.batch != 0) continue;  // streamed below
        init_status[j] = ads[j]->Init();
        if (!init_status[j].ok()) return;
      }
    });
    std::vector<StoreGroup*> streamed;
    for (StoreGroup& g : groups) {
      if (g.batch != 0) streamed.push_back(&g);
    }
    if (!streamed.empty()) StreamFirstSample(pool, streamed, ads, init_status);
    for (uint32_t j = 0; j < h; ++j) {
      if (!init_status[j].ok()) return init_status[j];
    }

    // ---- Stages 1-4 per round (Alg. 2 l. 5-22). ----
    RunRounds(options, pool, groups, ads, budget, &result.allocation);
  } catch (const std::bad_alloc&) {
    // Marshaled through ThreadPool::Run from a sampling or adoption task
    // (or thrown inline): surface as a Status instead of terminating the
    // process.
    return Status::ResourceExhausted(
        "RunTiGreedy: out of memory in a sampling/adoption stage");
  } catch (const rrset::SpillIoError& e) {
    // Disk exhaustion in the cold tier is the same recoverable condition
    // as heap exhaustion in the hot one (pool reads marshal through the
    // same exception barrier).
    return Status::ResourceExhausted(std::string("RunTiGreedy: ") + e.what());
  }

  // ---- Assemble result. ----
  // Each physical store is charged to its group's leader, so shared-sample
  // runs report the true (deduplicated) footprint.
  result.ad_stats.resize(h);
  for (const StoreGroup& g : groups) {
    TiAdStats& st = result.ad_stats[g.ads.front()];
    const rrset::RrStore& store = *g.store;
    st.rr_memory_bytes = store.MemoryBytes();
    st.rr_index_bytes = store.IndexBytes();
    st.spilled_bytes = store.SpilledBytes();
    st.spill_chunks = store.SpillChunks();
    if (store.spill_file() != nullptr) {
      for (const auto& c : store.spill_file()->chunks()) {
        st.spill_chunk_ranges.emplace_back(c.set_lo, c.set_hi);
      }
    }
    st.scan_reloads = store.scan_reloads();
    st.chunks_read = store.chunks_read();
    st.chunks_skipped = store.chunks_skipped();
    st.spill_retries = store.spill_retries();
    st.spill_retry_successes = store.spill_retry_successes();
    st.degradation_events =
        store.degradation_events() + g.tier.degradation_events();
    st.recovered_sets = store.recovered_sets();
    st.rr_resident_peak_bytes = g.tier.resident_peak_bytes();
  }
  for (uint32_t j = 0; j < h; ++j) {
    const AdvertiserEngine& ad = *ads[j];
    TiAdStats& st = result.ad_stats[j];
    st.theta = ad.theta();
    st.latent_seed_size = ad.latent_size();
    st.seeds = ad.seeds().size();
    st.revenue = ad.revenue();
    st.seeding_cost = ad.seeding_cost();
    st.payment = ad.payment();
    st.rr_memory_bytes += ad.collection().MemoryBytes(/*include_store=*/false) +
                          ad.WorkingBufferBytes();
    st.growth_admission_caps = ad.growth_admission_caps();
    st.sample_growth_events = ad.growth_events();
    st.idle_growth_revisions = ad.idle_revisions();
    st.theta_cap_hits = ad.schedule().cap_hits();
    const rrset::SampleSizer& sizer = ad.schedule().sizer();
    st.kpt_lower_bound = sizer.OptLowerBound();
    st.pilot_sets = sizer.pilot_sets();
    st.pilot_converged = sizer.pilot_converged();
    result.total_revenue += ad.revenue();
    result.total_seeding_cost += ad.seeding_cost();
    result.total_seeds += st.seeds;
    result.total_theta += st.theta;
    result.total_rr_memory_bytes += st.rr_memory_bytes;
    result.total_rr_index_bytes += st.rr_index_bytes;
    result.total_spilled_bytes += st.spilled_bytes;
    result.total_spill_chunks += st.spill_chunks;
    result.total_scan_reloads += st.scan_reloads;
    result.total_chunks_read += st.chunks_read;
    result.total_chunks_skipped += st.chunks_skipped;
    result.total_spill_retries += st.spill_retries;
    result.total_spill_retry_successes += st.spill_retry_successes;
    result.total_degradation_events += st.degradation_events;
    result.total_recovered_sets += st.recovered_sets;
    result.total_growth_admission_caps += st.growth_admission_caps;
    result.total_growth_events += st.sample_growth_events;
    result.total_theta_cap_hits += st.theta_cap_hits;
    if (st.sample_growth_events > 0) {
      ++result.ads_growth_engaged;
    } else {
      ++result.ads_growth_idle;
    }
  }
  result.elapsed_seconds = watch.ElapsedSeconds();
  return result;
}

Result<TiResult> RunTiCarm(const RmInstance& instance, TiOptions options) {
  options.candidate_rule = CandidateRule::kCoverage;
  options.selection_rule = SelectionRule::kMaxMarginalRevenue;
  return RunTiGreedy(instance, options);
}

Result<TiResult> RunTiCsrm(const RmInstance& instance, TiOptions options) {
  options.candidate_rule = CandidateRule::kCoverageCostRatio;
  options.selection_rule = SelectionRule::kMaxRate;
  return RunTiGreedy(instance, options);
}

Result<TiResult> RunPageRankGr(const RmInstance& instance,
                               TiOptions options) {
  options.candidate_rule = CandidateRule::kPageRank;
  options.selection_rule = SelectionRule::kMaxMarginalRevenue;
  return RunTiGreedy(instance, options);
}

Result<TiResult> RunPageRankRr(const RmInstance& instance,
                               TiOptions options) {
  options.candidate_rule = CandidateRule::kPageRank;
  options.selection_rule = SelectionRule::kRoundRobin;
  return RunTiGreedy(instance, options);
}

}  // namespace isa::core
