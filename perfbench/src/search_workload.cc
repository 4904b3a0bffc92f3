// default-plan-serial and joint-plan-pool4: repeated whole searches on
// seeded tables, timed from outside through VolcanoML::Prepare and
// PlanExecutor::Step, then checked and replayed layer by layer.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "daemon_probe.h"
#include "data/csv.h"
#include "data/synthetic.h"
#include "replay.h"
#include "workloads.h"

namespace perfbench {

using volcanoml::Dataset;
using volcanoml::VolcanoMlOptions;

namespace {

/// The tables are seeded samples of one fixed MakeClassification
/// population: every seed draws a fresh table of the same task.
constexpr uint64_t kPopulationSeed = 20210817;
constexpr size_t kPoolWorkers = 4;

struct Spec {
  volcanoml::PlanKind plan = volcanoml::PlanKind::kConditioningAlternating;
  size_t batch_size = 1;
  bool pool = false;
  double budget = 30.0;
  /// Search seeds per pass: a run attempts whole passes, one search per
  /// seed.
  size_t search_seeds = 4;
};

struct Sizes {
  size_t population_rows = 20000;
  size_t train_rows = 1000;
  size_t test_rows = 300;
};

struct Table {
  std::string csv;
  Dataset train;  ///< Parsed back from `csv`: what the program sees.
  Dataset test;   ///< Held out; only the benchmark scores on it.
};

std::unique_ptr<Table> MakeTable(const Dataset& population, const Sizes& sizes,
                                 uint64_t seed, size_t round,
                                 double* parse_seconds) {
  std::vector<size_t> order =
      Permutation(population.NumSamples(), Mix(seed, round));
  std::vector<size_t> train_rows(order.begin(),
                                 order.begin() + sizes.train_rows);
  std::vector<size_t> test_rows(
      order.begin() + sizes.train_rows,
      order.begin() + sizes.train_rows + sizes.test_rows);
  auto table = std::make_unique<Table>();
  table->csv = ToCsv(population.Subset(train_rows));
  table->test = population.Subset(test_rows);
  const double t0 = Now();
  volcanoml::Result<Dataset> parsed = [&] {
    ScopedSpan span("data.csv_parse");
    return volcanoml::ParseCsvDataset(table->csv,
                                      volcanoml::TaskType::kClassification,
                                      "table", "perfbench table");
  }();
  if (parse_seconds != nullptr) *parse_seconds = Now() - t0;
  if (parsed.ok()) table->train = std::move(parsed.value());
  return table;
}

VolcanoMlOptions OptionsFor(const Spec& spec, size_t round, const Args& args) {
  VolcanoMlOptions options;
  options.space.preset = volcanoml::SpacePreset::kLarge;
  options.plan = spec.plan;
  options.optimizer = volcanoml::JointOptimizerKind::kSmac;
  options.budget = spec.budget;
  options.batch_size = spec.batch_size;
  // Search seeds cycle through a fixed set, so every run spends its
  // window on the same mix of searches over freshly drawn tables.
  options.seed = round % spec.search_seeds + 1;
  if (spec.pool) {
    options.eval.backend = volcanoml::EvalBackendKind::kProcessPool;
    options.eval.worker_pool_size = kPoolWorkers;
    options.eval.worker_binary = args.worker_binary;
  }
  return options;
}

/// One stderr line per search: its wall time and step latencies.
void LogRound(size_t round, const SearchRecord& r) {
  std::string steps;
  for (double s : r.step_seconds) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), " %.0f", s * 1e3);
    steps += buf;
  }
  std::fprintf(stderr,
               "perfbench: round %zu search %.3f s, %zu evals, steps ms:%s "
               "commits:",
               round, r.search_seconds, r.evaluations, steps.c_str());
  for (size_t end : r.batch_ends) std::fprintf(stderr, " %zu", end);
  std::fprintf(stderr, "\n");
}

}  // namespace

void RunSearchWorkload(const Args& args, Outcome* out) {
  Spec spec;
  Sizes sizes;
  if (args.workload == "joint-plan-pool4") {
    spec.plan = volcanoml::PlanKind::kJoint;
    spec.batch_size = 4;
    spec.pool = true;
    // Two batches: SMAC's random initial design. Longer joint searches
    // follow their utilities chaotically, and their wall time moved by
    // 20-45% from seed to seed (README).
    spec.budget = 8.0;
    // Sixteen random designs per pass, so that no single slow trial
    // decides the step-latency tail.
    spec.search_seeds = 16;
  }
  if (args.smoke) {
    spec.budget = spec.pool ? 8.0 : 14.0;
    sizes = Sizes{3000, 300, 100};
  }

  volcanoml::ClassificationOptions generator;
  generator.num_samples = sizes.population_rows;
  generator.num_features = 10;
  generator.num_informative = 5;
  generator.num_redundant = 2;
  generator.num_classes = 2;
  generator.class_sep = 1.0;
  generator.flip_y = 0.01;
  const Dataset population =
      volcanoml::MakeClassification(generator, kPopulationSeed, "population");

  // -- set-up: parse the table, build and prepare the search (and, on the
  //    pool, start the workers with one request); median of several, half
  //    timed before the window and half after it.
  std::vector<double> setup_s;
  std::vector<double> parse_ms;
  std::vector<double> worker_start_ms;
  const int setup_reps = args.smoke ? 2 : (spec.pool ? 11 : 25);
  auto time_setups = [&](int reps) {
    for (int rep = 0; rep < reps; ++rep) {
      ScopedSpan span("setup");
      double parse_seconds = 0.0;
      std::unique_ptr<Table> table =
          MakeTable(population, sizes, args.seed, 0, &parse_seconds);
      const double t1 = Now();
      VolcanoMlOptions options = OptionsFor(spec, 0, args);
      volcanoml::VolcanoML automl(options);
      {
        ScopedSpan prepare("core.prepare");
        if (!automl.Prepare(table->train).ok()) {
          out->Fail("set-up Prepare failed");
        }
      }
      if (spec.pool) {
        worker_start_ms.push_back(TimeWorkerStart(
            options, table->train, kPoolWorkers, args.worker_binary, out));
      }
      // Generating and printing the table is the benchmark's work; parsing
      // it is the program's.
      setup_s.push_back(parse_seconds + (Now() - t1));
      parse_ms.push_back(parse_seconds * 1e3);
    }
  };
  time_setups((setup_reps + 1) / 2);

  // -- the measured window: whole searches until the time is up.
  std::vector<std::unique_ptr<Table>> tables;
  std::vector<SearchRecord> untraced;
  std::vector<SearchRecord> traced;
  const double window_start = Now();
  for (size_t round = 0;; ++round) {
    // Whole passes only, ending at the pass boundary nearest the window's
    // end: a pass takes seconds, so the first boundary past it would
    // overshoot by half a pass on average.
    if (round > 0 && round % spec.search_seeds == 0) {
      const double elapsed = Now() - window_start;
      const double pass =
          elapsed / static_cast<double>(round / spec.search_seeds);
      if (elapsed + 0.5 * pass >= args.seconds) break;
    }
    tables.push_back(MakeTable(population, sizes, args.seed, round, nullptr));
    SearchInput input{OptionsFor(spec, round, args), &tables.back()->train,
                      &tables.back()->test};
    if (!args.trace) {
      untraced.push_back(RunSearch(input, out));
      LogRound(round, untraced.back());
      continue;
    }
    Tracer::Disable();
    untraced.push_back(RunSearch(input, out));
    Tracer::Enable();
    traced.push_back(RunSearch(input, out));
    // Replayed at once, so the replay runs under the search's conditions.
    traced.back().replay_seconds = VerifyAgainstReplay(traced.back(), out);
    if (!SameTrajectory(untraced.back().trajectory, traced.back().trajectory)) {
      out->Fail("traced and untraced trajectories differ in round " +
                std::to_string(round));
    }
  }
  const double window = Now() - window_start;
  time_setups(setup_reps / 2);

  // -- operation counts.
  for (const auto* records : {&untraced, &traced}) {
    for (const SearchRecord& r : *records) {
      out->attempted += r.evaluations + r.telemetry.worker_deaths;
      out->failed += r.hard_failures + r.telemetry.worker_deaths;
      if (r.telemetry.degraded) out->failed += r.evaluations;
      if (r.test_bal_acc <
          1.0 / static_cast<double>(r.train->NumClasses()) + kChanceMargin) {
        out->Fail("final pipeline's test balanced accuracy " +
                  std::to_string(r.test_bal_acc) + " does not clear chance");
      }
    }
  }

  if (!args.trace) {
    const size_t threads =
        std::max<size_t>(1, std::min<size_t>(4, AffinityCpus()));
    std::vector<const SearchRecord*> all;
    for (const SearchRecord& r : untraced) all.push_back(&r);
    (void)VerifyAgainstReplay(all, threads, out);
    std::vector<double> search_s, evals_per_s, best, test, step_ms;
    // Every pass runs the same mix of configurations; its slowest step is
    // the tail, whatever the number of passes in the window.
    std::vector<double> pass_tail_ms(untraced.size() / spec.search_seeds, 0.0);
    for (size_t round = 0; round < untraced.size(); ++round) {
      const SearchRecord& r = untraced[round];
      search_s.push_back(r.search_seconds);
      evals_per_s.push_back(static_cast<double>(r.evaluations) /
                            r.search_seconds);
      best.push_back(r.best_utility);
      test.push_back(r.test_bal_acc);
      double& pass_tail = pass_tail_ms[round / spec.search_seeds];
      for (double s : r.step_seconds) {
        step_ms.push_back(s * 1e3);
        pass_tail = std::max(pass_tail, s * 1e3);
      }
    }
    Metrics& m = out->end_to_end;
    m.Set("search_s", GeoMean(search_s), "s");
    m.Set("evals_per_s", GeoMean(evals_per_s), "evals/s");
    m.Set("best_val_utility", Median(best), "bal_acc");
    m.Set("test_bal_acc", Median(test), "bal_acc");
    m.Set("sessions_per_s", 1.0 / GeoMean(search_s), "sessions/s");
    m.Set("request_p50_ms", Median(step_ms), "ms");
    m.Set("request_tail_ms", Median(pass_tail_ms), "ms");
    std::fprintf(stderr, "perfbench: %zu searches, %zu steps in %.3f s\n",
                 untraced.size(), step_ms.size(), window);
    m.Set("setup_s", Median(setup_s), "s");
    m.Set("peak_rss_mb", PeakRssMb(), "MiB");
    return;
  }

  // -- traced run: replay the traced searches layer by layer.
  SetLayerMetrics(traced, traced.size(), args.worker_binary,
                  std::move(worker_start_ms), out);
  std::vector<double> untraced_s, traced_s;
  for (const SearchRecord& r : untraced) untraced_s.push_back(r.search_seconds);
  for (const SearchRecord& r : traced) traced_s.push_back(r.search_seconds);

  const SnapshotTimes snapshot = TimeSnapshots(traced.front(), out);
  const DaemonProbe probe = ProbeDaemon(args, tables.front()->csv, out);

  Metrics& m = out->per_layer;
  SetDaemonMetrics(probe, &m);
  m.Set("snapshot.save_ms", snapshot.save_ms, "ms");
  m.Set("snapshot.load_ms", snapshot.load_ms, "ms");
  m.Set("snapshot.bytes", snapshot.bytes, "bytes");
  m.Set("data.csv_parse_ms", Median(parse_ms), "ms");
  m.Set("trace.overhead_s", Median(traced_s) - Median(untraced_s), "s");
}

}  // namespace perfbench
