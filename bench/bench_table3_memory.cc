// Table 3: memory usage of TI-CARM vs TI-CSRM (window 5000) as the number
// of advertisers h grows, on DBLP* and LIVEJOURNAL*.
// Paper headline: memory grows linearly in h; TI-CSRM needs more memory
// than TI-CARM (20–40% more on LIVEJOURNAL) because it selects more seeds
// and therefore maintains larger RR samples. Paper also reports total seed
// counts at h = 20 (DBLP: 4676 vs 7276; LIVEJOURNAL: 4327 vs 6123).

// Each row also lands in BENCH_table3.json with the inverted-index share
// of the bytes (TiResult::total_rr_index_bytes, both algorithms' stores).
//
// Budget sweep (out-of-core spill tier): the bench then re-runs TI-CSRM on
// the DBLP* fixture with TiOptions::rr_memory_budget_bytes at 50% and 25%
// of the unbudgeted per-store footprint (and the 50% run additionally at 1
// thread). Every budgeted run must reproduce the unbudgeted allocation,
// revenue and θ bit for bit — spilling moves bytes, never results — and
// the bench EXITS NON-ZERO on any mismatch (CI runs it as a gate, like the
// fig5 determinism gate) or when the tight 25% row skipped no chunks
// (chunks_skipped == 0 would mean the per-chunk envelope/postings lookup
// stopped skipping). Every sweep row, the unbudgeted reference included,
// runs kRepeats times: the row records the median wall-clock, the ratio of
// its median to the unbudgeted median (the cost of the budget;
// annotate-only, never gated), and fields every repeat must agree on —
// the bench exits non-zero when two repeats differ in anything but time
// (repeat_determinism_ok). The resident-vs-spill rows land in
// BENCH_table3.json under "budget_rows" with the chunks_read /
// chunks_skipped split.

#include <cstdio>
#include <iostream>

#include "bench/bench_util.h"
#include "common/failpoint.h"
#include "common/table_writer.h"

namespace {

// Every budget-sweep row runs this often; it records the median wall-clock.
constexpr int kRepeats = 5;

// The computed outcome only — memory/spill stats legitimately differ
// across budgets.
bool SameComputedResult(const isa::core::TiResult& a,
                        const isa::core::TiResult& b) {
  return a.allocation.seed_sets == b.allocation.seed_sets &&
         a.total_revenue == b.total_revenue &&
         a.total_seeding_cost == b.total_seeding_cost &&
         a.total_seeds == b.total_seeds && a.total_theta == b.total_theta &&
         a.total_growth_events == b.total_growth_events;
}

uint64_t SumResidentPeak(const isa::core::TiResult& r) {
  uint64_t sum = 0;
  for (const auto& st : r.ad_stats) sum += st.rr_resident_peak_bytes;
  return sum;
}

}  // namespace

int main() {
  const double scale = isa::bench::EffectiveScale(0.12);
  std::printf("=== Table 3: RR-set memory usage vs number of advertisers "
              "(scale %.2f) ===\n\n",
              scale);

  std::vector<std::string> json_rows;
  isa::TableWriter table({"dataset", "h", "TI-CARM bytes", "TI-CSRM bytes",
                          "CSRM/CARM", "CARM seeds", "CSRM seeds"});

  const struct {
    std::string name;  // catalog name
    double budget;
  } plans[] = {
      {"com-dblp", 1'500},
      {"soc-livejournal1", 3'000},
  };

  for (const auto& plan : plans) {
    const std::string& name = plan.name;
    // LIVEJOURNAL* stops at h = 10 for runtime (same reason as Figure 5).
    const uint32_t max_h = name == "soc-livejournal1" ? 10u : 20u;
    for (uint32_t h : {1u, 5u, 10u, 15u, 20u}) {
      if (h > max_h) break;
      isa::eval::WorkloadOptions opt;
      opt.num_advertisers = h;
      opt.budget_min = opt.budget_max = plan.budget * scale;
      opt.cpe_min = opt.cpe_max = 1.0;
      opt.incentive_model = isa::core::IncentiveModel::kLinear;
      opt.alpha = 0.2;
      opt.spread_source = isa::eval::SpreadSource::kOutDegreeProxy;
      auto setup = isa::bench::MustValue(
          isa::eval::BuildExperiment(isa::bench::LoadDataset(name, scale),
                                     opt),
          "BuildExperiment");

      auto ti = isa::bench::QualityTiOptions();
      ti.theta_cap = 80'000;
      auto carm = isa::core::RunTiCarm(*setup.instance, ti);
      isa::bench::Check(carm.status(), "TI-CARM");
      ti.window = 5000;
      auto csrm = isa::core::RunTiCsrm(*setup.instance, ti);
      isa::bench::Check(csrm.status(), "TI-CSRM");

      const uint64_t index_bytes = carm.value().total_rr_index_bytes +
                                   csrm.value().total_rr_index_bytes;

      table.AddCell(name);
      table.AddCell(uint64_t{h});
      table.AddCell(isa::HumanBytes(carm.value().total_rr_memory_bytes));
      table.AddCell(isa::HumanBytes(csrm.value().total_rr_memory_bytes));
      table.AddCell(
          static_cast<double>(csrm.value().total_rr_memory_bytes) /
              std::max<uint64_t>(1, carm.value().total_rr_memory_bytes),
          2);
      table.AddCell(carm.value().total_seeds);
      table.AddCell(csrm.value().total_seeds);
      isa::bench::Check(table.EndRow(), "row");
      std::fprintf(stderr, "  [%s h=%u] done\n", name.c_str(), h);

      json_rows.push_back(
          isa::bench::JsonObject()
              .Add("dataset", name)
              .Add("h", uint64_t{h})
              .Add("carm_bytes", carm.value().total_rr_memory_bytes)
              .Add("csrm_bytes", csrm.value().total_rr_memory_bytes)
              .Add("carm_seeds", carm.value().total_seeds)
              .Add("csrm_seeds", csrm.value().total_seeds)
              .Add("index_bytes", index_bytes)
              .str());
    }
  }
  table.Print(std::cout);

  // ---- Budget sweep: the out-of-core spill tier at paper-scale θ. ----
  std::printf("\n=== Budget sweep: TI-CSRM resident vs spill (DBLP*, h=5, "
              "median of %d runs) ===\n\n",
              kRepeats);
  bool budget_mismatch = false;
  bool filters_dead = false;  // 25% row skipped nothing — see gate below
  bool recovery_ok = false;   // faulted-run row — see gate below
  bool repeats_agree = true;  // every repeat of every row — see gate below
  std::vector<std::string> budget_rows;
  {
    auto ds = isa::bench::LoadDataset("com-dblp", scale);
    isa::eval::WorkloadOptions opt;
    opt.num_advertisers = 5;
    opt.budget_min = opt.budget_max = 1'500 * scale;
    opt.cpe_min = opt.cpe_max = 1.0;
    opt.incentive_model = isa::core::IncentiveModel::kLinear;
    opt.alpha = 0.2;
    opt.spread_source = isa::eval::SpreadSource::kOutDegreeProxy;
    auto setup = isa::bench::MustValue(
        isa::eval::BuildExperiment(std::move(ds), opt), "BuildExperiment");

    auto ti = isa::bench::QualityTiOptions();
    ti.theta_cap = 80'000;
    ti.window = 5000;
    // Small chunks give the per-chunk envelope test something to skip at
    // bench scale (the 4 MiB default would put the whole cold
    // tier in one or two chunks); results are chunk-size independent.
    ti.spill_chunk_bytes = 128ull << 10;

    // Runs TI-CSRM kRepeats times under `options`, arming `failpoints`
    // (when non-empty) for each run. `fields(result)` is the run's JSON
    // row without its times; a repeat whose computed result or row differs
    // from the first run's clears repeats_agree. Returns the first run's
    // result with elapsed_seconds replaced by the median over the repeats.
    const auto run_repeated = [&](const isa::core::TiOptions& options,
                                  const char* failpoints,
                                  const auto& fields) {
      isa::core::TiResult first;
      std::vector<double> seconds;
      for (int i = 0; i < kRepeats; ++i) {
        if (*failpoints != '\0') {
          isa::bench::Check(isa::FailPoints::Arm(failpoints),
                            "arm failpoints");
        }
        auto run = isa::core::RunTiCsrm(*setup.instance, options);
        isa::FailPoints::Clear();
        isa::bench::Check(run.status(), "TI-CSRM");
        const isa::core::TiResult& r = run.value();
        seconds.push_back(r.elapsed_seconds);
        if (i == 0) {
          first = r;
        } else if (!SameComputedResult(first, r) ||
                   fields(first).str() != fields(r).str()) {
          repeats_agree = false;
        }
      }
      first.elapsed_seconds = isa::bench::Median(seconds);
      return first;
    };

    // A budget row's JSON fields but its times and its match flag.
    const auto row_fields = [](uint64_t budget, uint32_t threads) {
      return [budget, threads](const isa::core::TiResult& r) {
        isa::bench::JsonObject row;
        row.Add("budget_bytes", budget)
            .Add("threads", uint64_t{threads})
            .Add("resident_final_bytes", r.total_rr_memory_bytes)
            .Add("resident_peak_bytes", SumResidentPeak(r))
            .Add("spilled_bytes", r.total_spilled_bytes)
            .Add("spill_chunks", r.total_spill_chunks)
            .Add("scan_reloads", r.total_scan_reloads)
            .Add("chunks_read", r.total_chunks_read)
            .Add("chunks_skipped", r.total_chunks_skipped)
            .Add("seeds", r.total_seeds);
        return row;
      };
    };
    const isa::core::TiResult reference =
        run_repeated(ti, "", row_fields(0, ti.num_threads));
    // Per-store budget base: the largest charged per-ad footprint (the
    // store is charged to the first ad using it, so this is ~the biggest
    // store plus one view).
    uint64_t store_bytes = 0;
    for (const auto& st : reference.ad_stats) {
      store_bytes = std::max(store_bytes, st.rr_memory_bytes);
    }

    // Median wall-clock relative to the unbudgeted run's median: what the
    // budget costs.
    const auto vs_unbudgeted = [&](const isa::core::TiResult& r) {
      return r.elapsed_seconds / std::max(reference.elapsed_seconds, 1e-9);
    };
    isa::TableWriter sweep({"budget/store", "threads", "resident final",
                            "resident peak", "spilled", "chunks", "lookups",
                            "read", "skipped", "seconds", "vs unbudgeted",
                            "match"});
    const auto add_cells = [&](const std::string& budget, uint32_t threads,
                               const isa::core::TiResult& r,
                               const std::string& resident_peak,
                               bool match) {
      sweep.AddCell(budget);
      sweep.AddCell(uint64_t{threads});
      sweep.AddCell(isa::HumanBytes(r.total_rr_memory_bytes));
      sweep.AddCell(resident_peak);
      sweep.AddCell(isa::HumanBytes(r.total_spilled_bytes));
      sweep.AddCell(r.total_spill_chunks);
      sweep.AddCell(r.total_scan_reloads);
      sweep.AddCell(r.total_chunks_read);
      sweep.AddCell(r.total_chunks_skipped);
      sweep.AddCell(r.elapsed_seconds, 2);
      sweep.AddCell(vs_unbudgeted(r), 2);
      sweep.AddCell(std::string(match ? "yes" : "MISMATCH"));
      isa::bench::Check(sweep.EndRow(), "sweep row");
    };
    const auto add_row = [&](uint64_t budget, uint32_t threads,
                             const isa::core::TiResult& r) {
      const bool match = SameComputedResult(reference, r);
      add_cells(budget == 0 ? std::string("unbudgeted")
                            : isa::HumanBytes(budget),
                threads, r,
                budget == 0 ? std::string("-")
                            : isa::HumanBytes(SumResidentPeak(r)),
                match);
      budget_rows.push_back(row_fields(budget, threads)(r)
                                .Add("matches_unbudgeted", match)
                                .Add("elapsed_seconds", r.elapsed_seconds)
                                .Add("solve_ratio_vs_unbudgeted",
                                     vs_unbudgeted(r))
                                .str());
    };
    add_row(0, ti.num_threads, reference);

    struct Run {
      double fraction;
      uint32_t threads;
    };
    // The tight 25% budget doubles as the CI gate's "tight budget" row;
    // the 1-thread run re-proves budget determinism is thread-independent.
    for (const Run run : {Run{0.5, 0}, Run{0.5, 1}, Run{0.25, 0}}) {
      auto budgeted_ti = ti;
      budgeted_ti.rr_memory_budget_bytes =
          static_cast<uint64_t>(store_bytes * run.fraction);
      budgeted_ti.num_threads = run.threads;
      const isa::core::TiResult budgeted = run_repeated(
          budgeted_ti, "",
          row_fields(budgeted_ti.rr_memory_budget_bytes, run.threads));
      if (!SameComputedResult(reference, budgeted)) budget_mismatch = true;
      // The tight-budget row must show the chunk lookups skipping: plenty
      // spilled, and at least one chunk skipped.
      if (run.fraction == 0.25 && budgeted.total_chunks_skipped == 0) {
        filters_dead = true;
      }
      add_row(budgeted_ti.rr_memory_budget_bytes, run.threads, budgeted);
      std::fprintf(stderr, "  [budget %.0f%% threads=%u] done\n",
                   run.fraction * 100, run.threads);
    }

    // Faulted run: the tight 25% budget again, with a permanent EIO
    // injected on EVERY cold-chunk read. The self-healing tier must
    // rebuild each consulted chunk by re-sampling it from its recorded
    // substream seed and still reproduce the unbudgeted result bit for
    // bit — the recovery gate next to the budget-determinism gate above.
    {
      auto faulted_ti = ti;
      faulted_ti.rr_memory_budget_bytes =
          static_cast<uint64_t>(store_bytes * 0.25);
      const char* const failpoints = "spill.read.eio@every:1";
      const auto faulted_fields = [&](const isa::core::TiResult& r) {
        isa::bench::JsonObject row;
        row.Add("budget_bytes", faulted_ti.rr_memory_budget_bytes)
            .Add("threads", uint64_t{faulted_ti.num_threads})
            .Add("failpoints", failpoints)
            .Add("degradation_events", r.total_degradation_events)
            .Add("recovered_sets", r.total_recovered_sets)
            .Add("spill_retries", r.total_spill_retries);
        return row;
      };
      const isa::core::TiResult r =
          run_repeated(faulted_ti, failpoints, faulted_fields);
      recovery_ok = SameComputedResult(reference, r) &&
                    r.total_degradation_events > 0 &&
                    r.total_recovered_sets > 0;
      add_cells(isa::HumanBytes(faulted_ti.rr_memory_budget_bytes) + " +EIO",
                faulted_ti.num_threads, r,
                isa::HumanBytes(SumResidentPeak(r)), recovery_ok);
      budget_rows.push_back(faulted_fields(r)
                                .Add("recovery_ok", recovery_ok)
                                .Add("elapsed_seconds", r.elapsed_seconds)
                                .Add("solve_ratio_vs_unbudgeted",
                                     vs_unbudgeted(r))
                                .str());
      std::fprintf(stderr, "  [budget 25%% + injected EIO] done\n");
    }
    sweep.Print(std::cout);
  }

  isa::bench::WriteBenchJson(
      "BENCH_table3.json",
      isa::bench::JsonObject()
          .Add("bench", "table3_memory")
          .Add("scale", scale)
          .Add("budget_determinism_ok", !budget_mismatch)
          .Add("chunk_filters_ok", !filters_dead)
          .Add("recovery_ok", recovery_ok)
          .Add("repeats", kRepeats)
          .Add("repeat_determinism_ok", repeats_agree)
          .AddRaw("rows", isa::bench::JsonArray(json_rows))
          .AddRaw("budget_rows", isa::bench::JsonArray(budget_rows))
          .str());
  if (budget_mismatch) {
    std::fprintf(stderr,
                 "[bench] FAIL: budgeted TI-CSRM diverged from the "
                 "unbudgeted run — spilling must never change results\n");
    return 2;
  }
  if (filters_dead) {
    std::fprintf(stderr,
                 "[bench] FAIL: the 25%%-budget run skipped no cold "
                 "chunks — the envelope/postings chunk skips are not "
                 "engaging\n");
    return 2;
  }
  if (!repeats_agree) {
    std::fprintf(stderr,
                 "[bench] FAIL: repeats of one budget-sweep row disagreed "
                 "on a field other than the time — runs must be "
                 "deterministic\n");
    return 2;
  }
  if (!recovery_ok) {
    std::fprintf(stderr,
                 "[bench] FAIL: the injected-EIO run did not recover "
                 "bit-identically (or never exercised recovery) — the "
                 "self-healing cold tier is broken\n");
    return 2;
  }
  return 0;
}
