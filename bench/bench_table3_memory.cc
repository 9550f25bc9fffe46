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
// stopped skipping). Every solve of the sweep runs in a forked child that
// reports its peak RSS (ru_maxrss), so one row's peak is its own:
// process_peak_mib is the largest over the row's repeats, and
// peak_bounded_ok holds when every budget row's peak is below the
// unbudgeted row's. The sweep runs kRepeats rounds, each solving every
// row once (round-robin, so host drift hits every row alike): a row
// records the median wall-clock, the median over rounds of its time over
// the unbudgeted time of the same round (the cost of the budget;
// annotate-only, never gated), and fields every repeat must agree on —
// the bench exits non-zero when two repeats differ in anything but time
// and peak (repeat_determinism_ok). The resident-vs-spill rows land in
// BENCH_table3.json under "budget_rows" with the chunks_read /
// chunks_skipped split.

#include <malloc.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <functional>
#include <iostream>
#include <sstream>

#include "bench/bench_util.h"
#include "common/failpoint.h"
#include "common/table_writer.h"

namespace {

// Rounds of the budget sweep; each solves every row once.
constexpr int kRepeats = 5;

// The computed outcome only — memory/spill stats legitimately differ
// across budgets — as a string: equal strings, bitwise-equal results.
std::string ComputedKey(const isa::core::TiResult& r) {
  std::ostringstream key;
  key << std::hexfloat << r.total_revenue << ' ' << r.total_seeding_cost
      << ' ' << r.total_seeds << ' ' << r.total_theta << ' '
      << r.total_growth_events;
  for (const auto& seeds : r.allocation.seed_sets) {
    key << " |";
    for (const auto v : seeds) key << ' ' << v;
  }
  return key.str();
}

uint64_t SumResidentPeak(const isa::core::TiResult& r) {
  uint64_t sum = 0;
  for (const auto& st : r.ad_stats) sum += st.rr_resident_peak_bytes;
  return sum;
}

// What a forked child reports of one solve.
struct ChildSolve {
  std::string computed;  // ComputedKey
  std::string fields;    // the row's JSON fields but its times and peak
  double seconds = 0.0;
  double peak_mib = 0.0;  // the child's ru_maxrss
  uint64_t store_bytes = 0;  // largest per-ad footprint: the budget base
  // The sweep table's counters.
  uint64_t resident_final = 0;
  uint64_t resident_peak = 0;
  uint64_t spilled = 0;
  uint64_t chunks = 0;
  uint64_t lookups = 0;
  uint64_t read = 0;
  uint64_t skipped = 0;
  bool recovered = false;  // degradation events and recovered sets > 0
};

constexpr uint64_t ChildSolve::*kCounters[] = {
    &ChildSolve::store_bytes, &ChildSolve::resident_final,
    &ChildSolve::resident_peak, &ChildSolve::spilled, &ChildSolve::chunks,
    &ChildSolve::lookups, &ChildSolve::read, &ChildSolve::skipped};

ChildSolve Summarize(const isa::core::TiResult& r, std::string fields) {
  ChildSolve s;
  s.computed = ComputedKey(r);
  s.fields = std::move(fields);
  s.seconds = r.elapsed_seconds;
  for (const auto& st : r.ad_stats) {
    s.store_bytes = std::max(s.store_bytes, st.rr_memory_bytes);
  }
  s.resident_final = r.total_rr_memory_bytes;
  s.resident_peak = SumResidentPeak(r);
  s.spilled = r.total_spilled_bytes;
  s.chunks = r.total_spill_chunks;
  s.lookups = r.total_scan_reloads;
  s.read = r.total_chunks_read;
  s.skipped = r.total_chunks_skipped;
  s.recovered = r.total_degradation_events > 0 && r.total_recovered_sets > 0;
  return s;
}

[[noreturn]] void Die(const char* what) {
  std::perror(what);
  std::exit(1);
}

// Runs `solve` in a forked child and returns its report, with the child's
// peak RSS as peak_mib. The parent first hands its free heap back to the
// kernel, so each child starts from the same footprint and rows compare by
// their own solves; the child allocates blocks above 128 KiB from fresh
// pages and returns freed heap, as a new process does (glibc would
// otherwise raise its mmap threshold as the parent freed large blocks).
ChildSolve SolveInChild(const std::function<ChildSolve()>& solve) {
  std::fflush(nullptr);
  malloc_trim(0);
  int fds[2];
  if (pipe(fds) != 0) Die("pipe");
  const pid_t pid = fork();
  if (pid < 0) Die("fork");
  if (pid == 0) {
    close(fds[0]);
    mallopt(M_MMAP_THRESHOLD, 128 << 10);
    mallopt(M_TRIM_THRESHOLD, 128 << 10);
    ChildSolve s = solve();
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    std::ostringstream out;
    out << std::hexfloat << s.seconds << ' '
        << static_cast<double>(usage.ru_maxrss) / 1024.0 << ' '
        << s.recovered;
    for (const auto counter : kCounters) out << ' ' << s.*counter;
    out << '\n' << s.computed << '\n' << s.fields << '\n';
    const std::string msg = out.str();
    for (size_t done = 0; done < msg.size();) {
      const ssize_t n = write(fds[1], msg.data() + done, msg.size() - done);
      if (n <= 0) _exit(1);
      done += static_cast<size_t>(n);
    }
    _exit(0);
  }
  close(fds[1]);
  std::string msg;
  char buf[4096];
  for (ssize_t n; (n = read(fds[0], buf, sizeof(buf))) > 0;) msg.append(buf, n);
  close(fds[0]);
  int status = 0;
  if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    std::fprintf(stderr, "[bench] a budget-sweep solve's child failed\n");
    std::exit(1);
  }
  ChildSolve s;
  std::istringstream in(msg);
  std::string seconds, peak;
  in >> seconds >> peak >> s.recovered;
  s.seconds = std::strtod(seconds.c_str(), nullptr);
  s.peak_mib = std::strtod(peak.c_str(), nullptr);
  for (const auto counter : kCounters) in >> s.*counter;
  in.ignore();
  std::getline(in, s.computed);
  std::getline(in, s.fields);
  if (!in) {
    std::fprintf(stderr, "[bench] a budget-sweep child's report is cut\n");
    std::exit(1);
  }
  return s;
}

}  // namespace

int main() {
  const double scale = isa::bench::EffectiveScale(0.12);
  // ---- Budget sweep: the out-of-core spill tier at paper-scale θ. It
  // runs first, so that the children it forks start from a parent that has
  // built one instance and solved nothing. ----
  std::printf("=== Budget sweep: TI-CSRM resident vs spill (DBLP*, h=5, "
              "median of %d rounds) ===\n\n",
              kRepeats);
  bool budget_mismatch = false;
  bool filters_dead = false;  // 25% row skipped nothing — see gate below
  bool recovery_ok = false;   // faulted-run row — see gate below
  bool repeats_agree = true;  // every repeat of every row — see gate below
  bool peak_bounded = true;   // every budget row's process peak — see above
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

    // The unbudgeted reference, the 50% budget at the default and at 1
    // thread (budget determinism is thread-independent), the tight 25%
    // budget (the CI gate's "tight budget" row), and the 25% budget again
    // with a permanent EIO injected on EVERY cold-chunk read: the
    // self-healing tier must rebuild each consulted chunk by re-sampling it
    // from its recorded substream seed and still reproduce the unbudgeted
    // result bit for bit — the recovery gate next to the budget-determinism
    // gate.
    struct Row {
      double fraction;  // of the unbudgeted store; 0 = unbudgeted
      uint32_t threads;
      const char* failpoints;
      std::vector<ChildSolve> solves;  // one per round
    };
    std::vector<Row> rows = {
        {0.0, ti.num_threads, "", {}},
        {0.5, 0, "", {}},
        {0.5, 1, "", {}},
        {0.25, 0, "", {}},
        {0.25, ti.num_threads, "spill.read.eio@every:1", {}}};
    const auto options_of = [&](const Row& row) {
      auto o = ti;
      o.num_threads = row.threads;
      // Per-store budget base: the largest charged per-ad footprint (the
      // store is charged to the first ad using it, so this is ~the
      // biggest store plus one view).
      if (row.fraction > 0) {
        o.rr_memory_budget_bytes = static_cast<uint64_t>(
            rows[0].solves.front().store_bytes * row.fraction);
      }
      return o;
    };
    const auto fields_of = [](const isa::core::TiOptions& o, const Row& row,
                              const isa::core::TiResult& r) {
      isa::bench::JsonObject fields;
      fields.Add("budget_bytes", o.rr_memory_budget_bytes)
          .Add("threads", uint64_t{o.num_threads});
      if (*row.failpoints != '\0') {
        return fields.Add("failpoints", row.failpoints)
            .Add("degradation_events", r.total_degradation_events)
            .Add("recovered_sets", r.total_recovered_sets)
            .Add("spill_retries", r.total_spill_retries);
      }
      return fields.Add("resident_final_bytes", r.total_rr_memory_bytes)
          .Add("resident_peak_bytes", SumResidentPeak(r))
          .Add("spilled_bytes", r.total_spilled_bytes)
          .Add("spill_chunks", r.total_spill_chunks)
          .Add("scan_reloads", r.total_scan_reloads)
          .Add("chunks_read", r.total_chunks_read)
          .Add("chunks_skipped", r.total_chunks_skipped)
          .Add("seeds", r.total_seeds);
    };
    for (int round = 0; round < kRepeats; ++round) {
      for (Row& row : rows) {
        const isa::core::TiOptions o = options_of(row);
        row.solves.push_back(SolveInChild([&] {
          if (*row.failpoints != '\0') {
            isa::bench::Check(isa::FailPoints::Arm(row.failpoints),
                              "arm failpoints");
          }
          auto run = isa::core::RunTiCsrm(*setup.instance, o);
          isa::FailPoints::Clear();
          isa::bench::Check(run.status(), "TI-CSRM");
          return Summarize(run.value(), fields_of(o, row, run.value()).str());
        }));
      }
      std::fprintf(stderr, "  [budget sweep round %d] done\n", round + 1);
    }

    isa::TableWriter sweep({"budget/store", "threads", "resident final",
                            "resident peak", "process peak", "spilled",
                            "chunks", "lookups", "read", "skipped",
                            "seconds", "vs unbudgeted", "match"});
    const Row& reference = rows[0];
    double reference_peak = 0.0;
    for (const ChildSolve& s : reference.solves) {
      reference_peak = std::max(reference_peak, s.peak_mib);
    }
    for (const Row& row : rows) {
      const ChildSolve& first = row.solves.front();
      std::vector<double> seconds, ratios;
      double peak_mib = 0.0;
      for (int round = 0; round < kRepeats; ++round) {
        const ChildSolve& s = row.solves[round];
        if (s.computed != first.computed || s.fields != first.fields) {
          repeats_agree = false;
        }
        seconds.push_back(s.seconds);
        ratios.push_back(s.seconds /
                         std::max(reference.solves[round].seconds, 1e-9));
        peak_mib = std::max(peak_mib, s.peak_mib);
      }
      const bool faulted = *row.failpoints != '\0';
      const bool match = first.computed == reference.solves[0].computed;
      if (faulted) {
        recovery_ok = match && first.recovered;
      } else if (!match) {
        budget_mismatch = true;
      }
      // The tight-budget row must show the chunk lookups skipping: plenty
      // spilled, and at least one chunk skipped.
      if (!faulted && row.fraction == 0.25 && first.skipped == 0) {
        filters_dead = true;
      }
      if (row.fraction > 0 && !(peak_mib < reference_peak)) {
        peak_bounded = false;
      }
      const isa::core::TiOptions o = options_of(row);
      std::string budget = row.fraction == 0
                               ? std::string("unbudgeted")
                               : isa::HumanBytes(o.rr_memory_budget_bytes);
      if (faulted) budget += " +EIO";
      sweep.AddCell(budget);
      sweep.AddCell(uint64_t{row.threads});
      sweep.AddCell(isa::HumanBytes(first.resident_final));
      sweep.AddCell(row.fraction == 0 ? std::string("-")
                                      : isa::HumanBytes(first.resident_peak));
      sweep.AddCell(peak_mib, 1);
      sweep.AddCell(isa::HumanBytes(first.spilled));
      sweep.AddCell(first.chunks);
      sweep.AddCell(first.lookups);
      sweep.AddCell(first.read);
      sweep.AddCell(first.skipped);
      sweep.AddCell(isa::bench::Median(seconds), 2);
      sweep.AddCell(isa::bench::Median(ratios), 2);
      sweep.AddCell(std::string(
          (faulted ? recovery_ok : match) ? "yes" : "MISMATCH"));
      isa::bench::Check(sweep.EndRow(), "sweep row");
      // The fields' closing brace gives way to the per-row measurements.
      std::string json = first.fields;
      json.pop_back();
      json += ", " + isa::bench::JsonObject()
                         .Add(faulted ? "recovery_ok" : "matches_unbudgeted",
                              faulted ? recovery_ok : match)
                         .Add("elapsed_seconds", isa::bench::Median(seconds))
                         .Add("solve_ratio_vs_unbudgeted",
                              isa::bench::Median(ratios))
                         .Add("process_peak_mib", peak_mib)
                         .str()
                         .substr(1);
      budget_rows.push_back(json);
    }
    sweep.Print(std::cout);
  }

  std::printf("\n=== Table 3: RR-set memory usage vs number of advertisers "
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
          .Add("peak_bounded_ok", peak_bounded)
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
  if (!peak_bounded) {
    std::fprintf(stderr,
                 "[bench] FAIL: a budgeted row's process peak did not fall "
                 "below the unbudgeted row's — the budget no longer bounds "
                 "what stays resident\n");
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
