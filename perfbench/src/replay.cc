#include "replay.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <thread>

#include "bo/smac.h"
#include "bo/surrogate.h"
#include "data/splits.h"
#include "eval/eval_context.h"
#include "fe/pipeline.h"
#include "fe/registry.h"
#include "ml/algorithms.h"
#include "ml/metrics.h"
#include "util/rng.h"

namespace perfbench {

using volcanoml::Assignment;
using volcanoml::Dataset;
using volcanoml::EvalContext;
using volcanoml::EvalOutcome;
using volcanoml::EvalRequest;
using volcanoml::SearchSpace;

namespace {

/// Algorithms built on the shared DecisionTree (the tree family).
bool IsTreeFamily(const std::string& algorithm) {
  return algorithm == "decision_tree" || algorithm == "random_forest" ||
         algorithm == "extra_trees" || algorithm == "gradient_boosting" ||
         algorithm == "adaboost";
}

std::string AlgorithmOf(const SearchSpace& space, const Assignment& a) {
  const volcanoml::ConfigurationSpace& joint = space.joint();
  return joint.GetChoiceName(joint.FromAssignment(a), "algorithm");
}

/// The sub-assignment under `prefix`, with the prefix stripped.
Assignment Local(const Assignment& a, const std::string& prefix) {
  Assignment local;
  for (const auto& [name, value] : a) {
    if (name.rfind(prefix, 0) == 0) local[name.substr(prefix.size())] = value;
  }
  return local;
}

}  // namespace

bool SameTrajectory(const std::vector<volcanoml::TrajectoryPoint>& a,
                    const std::vector<volcanoml::TrajectoryPoint>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!SameBits(a[i].budget, b[i].budget) ||
        !SameBits(a[i].utility, b[i].utility)) {
      return false;
    }
  }
  return true;
}

SearchRecord RunSearch(const SearchInput& input, Outcome* outcome) {
  SearchRecord rec;
  rec.options = input.options;
  rec.train = input.train;
  ScopedSpan search_span("search");
  volcanoml::VolcanoML automl(input.options);
  {
    ScopedSpan span("core.prepare");
    volcanoml::Status prepared = automl.Prepare(*input.train);
    if (!prepared.ok()) {
      outcome->Fail("Prepare: " + prepared.ToString());
      return rec;
    }
  }
  rec.eval_options = automl.evaluator()->context().options();
  volcanoml::PlanExecutor* executor = automl.executor();
  const volcanoml::EvalEngine& engine = automl.evaluator()->engine();
  const double start = Now();
  while (true) {
    const double t0 = Now();
    bool progressed = false;
    {
      ScopedSpan span("core.step");
      progressed = executor->Step();
    }
    if (!progressed) break;
    rec.step_seconds.push_back(Now() - t0);
    rec.batch_ends.push_back(engine.num_evaluations());
  }
  rec.search_seconds = Now() - start;

  volcanoml::AutoMlResult result = automl.Finish();
  rec.best_utility = result.best_utility;
  rec.best_assignment = result.best_assignment;
  rec.trajectory = result.trajectory;
  rec.evaluations = engine.num_evaluations();
  rec.cache_hits = engine.cache_hits();
  rec.hard_failures =
      engine.outcome_count(volcanoml::TrialOutcome::kTimedOut) +
      engine.outcome_count(volcanoml::TrialOutcome::kFaultInjected) +
      engine.outcome_count(volcanoml::TrialOutcome::kWorkerDied);
  rec.telemetry = engine.dispatch_telemetry();
  rec.observations = engine.observations();

  // The trajectory is monotone and ends at the full budget with the
  // incumbent's utility.
  const auto& t = rec.trajectory;
  if (t.empty()) {
    outcome->Fail("empty trajectory");
  } else {
    for (size_t i = 1; i < t.size(); ++i) {
      if (t[i].utility < t[i - 1].utility || t[i].budget < t[i - 1].budget) {
        outcome->Fail("trajectory not monotone at point " + std::to_string(i));
        break;
      }
    }
    if (t.back().budget != input.options.budget) {
      outcome->Fail("trajectory ends at budget " +
                    std::to_string(t.back().budget) + ", not " +
                    std::to_string(input.options.budget));
    }
    if (!SameBits(t.back().utility, rec.best_utility)) {
      outcome->Fail("trajectory does not end at the incumbent utility");
    }
  }
  // Every plan here evaluates at full fidelity, so every commit (memo hits
  // included) is one observation.
  if (rec.observations.size() != rec.evaluations) {
    outcome->Fail("observations (" + std::to_string(rec.observations.size()) +
                  ") differ from committed evaluations (" +
                  std::to_string(rec.evaluations) + ")");
  }

  if (input.test != nullptr) {
    ScopedSpan span("final_pipeline");
    volcanoml::Result<volcanoml::FittedPipeline> fitted =
        automl.FitFinalPipeline();
    if (!fitted.ok()) {
      outcome->Fail("FitFinalPipeline: " + fitted.status().ToString());
    } else {
      rec.test_bal_acc = BalancedAccuracy(
          input.test->y(), fitted.value().Predict(input.test->x()));
    }
  }
  return rec;
}

std::vector<bool> FirstOccurrences(const SearchRecord& record) {
  SearchSpace space(record.options.space);
  EvalContext context(&space, record.train, record.eval_options);
  std::map<std::string, size_t> seen;
  std::vector<bool> first(record.observations.size(), false);
  for (size_t i = 0; i < record.observations.size(); ++i) {
    first[i] = seen.emplace(context.CacheKey(record.observations[i].first, 1.0),
                            i)
                   .second;
  }
  return first;
}

std::vector<std::vector<double>> VerifyAgainstReplay(
    const std::vector<const SearchRecord*>& records, size_t threads,
    Outcome* outcome) {
  // One fresh context per search; the distinct requests of every search
  // form one queue, so the threads stay busy across searches.
  struct Replay {
    std::unique_ptr<SearchSpace> space;
    std::unique_ptr<EvalContext> context;
    std::vector<bool> first;
    std::vector<EvalOutcome> outcomes;
    std::vector<double> seconds;
  };
  std::vector<Replay> replays(records.size());
  std::vector<std::pair<size_t, size_t>> todo;  // (search, commit)
  for (size_t r = 0; r < records.size(); ++r) {
    const SearchRecord& record = *records[r];
    replays[r].space = std::make_unique<SearchSpace>(record.options.space);
    replays[r].context = std::make_unique<EvalContext>(
        replays[r].space.get(), record.train, record.eval_options);
    replays[r].outcomes.resize(record.observations.size());
    replays[r].seconds.assign(record.observations.size(), 0.0);
    replays[r].first = FirstOccurrences(record);
    for (size_t i = 0; i < replays[r].first.size(); ++i) {
      if (replays[r].first[i]) todo.emplace_back(r, i);
    }
  }
  std::atomic<size_t> next{0};
  auto work = [&] {
    for (size_t k = next++; k < todo.size(); k = next++) {
      const auto [r, i] = todo[k];
      ScopedSpan span("eval.evaluate_once");
      const double t0 = Now();
      replays[r].outcomes[i] = replays[r].context->EvaluateOnce(
          records[r]->observations[i].first, 1.0);
      replays[r].seconds[i] = Now() - t0;
    }
  };
  if (threads <= 1) {
    work();
  } else {
    std::vector<std::thread> pool;
    for (size_t t = 0; t < threads; ++t) pool.emplace_back(work);
    for (std::thread& t : pool) t.join();
  }

  std::vector<std::vector<double>> seconds;
  for (size_t r = 0; r < records.size(); ++r) {
    const SearchRecord& record = *records[r];
    const EvalContext& context = *replays[r].context;
    const auto& obs = record.observations;
    std::map<std::string, double> utility_of;
    for (size_t i = 0; i < obs.size(); ++i) {
      if (!replays[r].first[i]) continue;
      utility_of[context.CacheKey(obs[i].first, 1.0)] =
          replays[r].outcomes[i].utility;
      if (replays[r].outcomes[i].hard_failure()) {
        outcome->Fail(
            std::string("replayed request ended ") +
            volcanoml::TrialOutcomeName(replays[r].outcomes[i].outcome));
      }
    }
    size_t mismatches = 0;
    double best = -1e300;
    for (const auto& [assignment, utility] : obs) {
      const double fresh = utility_of[context.CacheKey(assignment, 1.0)];
      if (!SameBits(fresh, utility)) ++mismatches;
      best = std::max(best, fresh);
    }
    if (mismatches > 0) {
      outcome->Fail(std::to_string(mismatches) + " of " +
                    std::to_string(obs.size()) +
                    " committed utilities differ from a fresh EvaluateOnce");
    }
    if (!obs.empty() && !SameBits(best, record.best_utility)) {
      outcome->Fail("incumbent utility differs from the best replayed utility");
    }
    seconds.push_back(std::move(replays[r].seconds));
  }
  return seconds;
}

std::vector<double> VerifyAgainstReplay(const SearchRecord& record,
                                        Outcome* outcome) {
  return VerifyAgainstReplay({&record}, 1, outcome).front();
}

LayerTimes ReplayLayers(const SearchRecord& record, Outcome* outcome) {
  LayerTimes times;
  SearchSpace space(record.options.space);
  const volcanoml::ConfigurationSpace& joint = space.joint();
  const volcanoml::EvaluatorOptions& eval = record.eval_options;
  const Dataset& data = *record.train;
  const volcanoml::TaskType task = space.task();

  // The validation splits, drawn exactly as the evaluator draws them.
  std::vector<volcanoml::Split> splits;
  {
    volcanoml::Rng rng(eval.seed);
    if (eval.cv_folds > 1) {
      splits = volcanoml::KFoldSplits(data, eval.cv_folds, &rng);
    } else {
      splits = {volcanoml::TrainTestSplit(data, eval.validation_fraction,
                                          &rng)};
    }
  }

  const std::vector<bool> first = FirstOccurrences(record);
  size_t differing = 0;
  for (size_t i = 0; i < record.observations.size(); ++i) {
    if (!first[i]) continue;
    const Assignment& a = record.observations[i].first;
    const volcanoml::Configuration config = joint.FromAssignment(a);
    const uint64_t seed = EvalContext::RequestHash(a) ^ eval.seed;
    const uint64_t fe_seed = EvalContext::FeRequestHash(a) ^ eval.seed;
    const std::string algorithm = AlgorithmOf(space, a);
    double utility_sum = 0.0;
    bool ok = true;
    for (const volcanoml::Split& split : splits) {
      volcanoml::FePipeline fe;
      volcanoml::Rng fe_rng(fe_seed);
      for (volcanoml::FeStage stage : space.stages()) {
        const std::string stage_param =
            std::string("fe:") + volcanoml::FeStageName(stage);
        const std::string op_name = joint.GetChoiceName(config, stage_param);
        volcanoml::FeOperatorInfo op = volcanoml::FindFeOperator(op_name);
        volcanoml::Configuration op_config = op.hp_space.FromAssignment(
            Local(a, stage_param + ":" + op_name + ":"));
        std::unique_ptr<volcanoml::FeOperator> fe_op =
            op.create(op.hp_space, op_config, fe_rng.Fork());
        fe_op->SetPrecision(eval.precision);
        fe.Add(std::move(fe_op));
      }
      double t0 = Now();
      volcanoml::Result<Dataset> engineered = [&] {
        ScopedSpan span("fe.fit_transform");
        return fe.FitTransform(data.Subset(split.train));
      }();
      times.fe_fit_transform += Now() - t0;
      if (!engineered.ok()) {
        ok = false;
        break;
      }
      Dataset valid = data.Subset(split.test);
      t0 = Now();
      {
        ScopedSpan span("fe.transform");
        valid.ReplaceFeatures(fe.Transform(valid.x()));
      }
      times.fe_transform += Now() - t0;

      const volcanoml::Algorithm& algo =
          volcanoml::FindAlgorithm(algorithm, task);
      volcanoml::Configuration model_config = algo.hp_space.FromAssignment(
          Local(a, "alg:" + algorithm + ":"));
      volcanoml::Rng model_rng(seed);
      std::unique_ptr<volcanoml::Model> model =
          algo.create(algo.hp_space, model_config, model_rng.Fork());
      model->SetPrecision(eval.precision);
      t0 = Now();
      volcanoml::Status fit = [&] {
        ScopedSpan span("ml.fit");
        return model->Fit(engineered.value());
      }();
      const double fit_seconds = Now() - t0;
      if (algorithm == "mlp") {
        times.fit_mlp += fit_seconds;
      } else if (IsTreeFamily(algorithm)) {
        times.fit_tree += fit_seconds;
      } else {
        times.fit_other += fit_seconds;
      }
      if (!fit.ok()) {
        ok = false;
        break;
      }
      t0 = Now();
      std::vector<double> predicted = [&] {
        ScopedSpan span("ml.predict");
        return model->Predict(valid.x());
      }();
      times.predict += Now() - t0;
      utility_sum += volcanoml::Utility(valid, predicted);
    }
    const double utility =
        ok ? utility_sum / static_cast<double>(splits.size())
           : volcanoml::FailureUtility(task);
    if (!SameBits(utility, record.observations[i].second)) ++differing;
  }
  if (differing > 0) {
    // Not a program fault: the factory replay re-derives the evaluator's
    // seeding, so a change there shows up here first.
    std::fprintf(stderr,
                 "perfbench: note: %zu factory replays differ from the "
                 "committed utility\n",
                 differing);
  }

  // Optimizer replay: the history the search's busiest SMAC block saw.
  std::string busiest;
  const bool joint_plan = record.options.plan == volcanoml::PlanKind::kJoint;
  if (!joint_plan) {
    std::map<std::string, size_t> per_arm;
    for (const auto& [a, u] : record.observations) {
      ++per_arm[AlgorithmOf(space, a)];
    }
    size_t most = 0;
    for (const auto& [name, count] : per_arm) {
      if (count > most) {
        most = count;
        busiest = name;
      }
    }
  }
  const volcanoml::ConfigurationSpace subspace =
      joint_plan ? joint : space.HpSubspaceFor(busiest);
  const volcanoml::SmacOptimizer::Options smac_options;
  volcanoml::SmacOptimizer smac(&subspace, smac_options, eval.seed);
  std::vector<std::vector<double>> encoded;
  std::vector<double> utilities;
  // Times one proposal of `n` configurations on the history so far, and a
  // surrogate fit on the same history.
  auto time_proposal = [&](size_t n) {
    const double t0 = Now();
    {
      ScopedSpan span("bo.suggest");
      if (smac.SuggestBatch(n).empty()) {
        outcome->Fail("SuggestBatch proposed nothing");
      }
    }
    times.suggest_ms.push_back((Now() - t0) * 1e3);
    if (utilities.size() < 2) return;
    volcanoml::RandomForestSurrogate surrogate(smac_options.surrogate,
                                               eval.seed);
    const double t1 = Now();
    {
      ScopedSpan span("bo.surrogate_fit");
      surrogate.Fit(encoded, utilities);
    }
    times.surrogate_fit_ms.push_back((Now() - t1) * 1e3);
  };
  auto observe = [&](size_t i) {
    const auto& [a, u] = record.observations[i];
    volcanoml::Configuration c = subspace.FromAssignment(a);
    smac.Observe(c, u);
    encoded.push_back(subspace.Encode(c));
    utilities.push_back(u);
  };
  size_t begin = 0;
  size_t last_batch = 1;
  for (size_t end : record.batch_ends) {
    std::vector<size_t> members;
    for (size_t i = begin; i < end && i < record.observations.size(); ++i) {
      if (joint_plan ||
          AlgorithmOf(space, record.observations[i].first) == busiest) {
        members.push_back(i);
      }
    }
    begin = end;
    if (members.empty()) continue;
    if (joint_plan) {
      // One batched proposal per step.
      time_proposal(members.size());
      for (size_t i : members) observe(i);
      last_batch = members.size();
    } else {
      // A serial block proposes one configuration per commit.
      for (size_t i : members) {
        time_proposal(1);
        observe(i);
      }
    }
  }
  // The proposal the search would make next, on its whole history.
  time_proposal(last_batch);
  return times;
}

namespace {

volcanoml::EvaluatorOptions PoolOptions(const volcanoml::EvaluatorOptions& base,
                                        size_t workers,
                                        const std::string& worker_binary) {
  volcanoml::EvaluatorOptions options = base;
  options.backend = volcanoml::EvalBackendKind::kProcessPool;
  options.worker_pool_size = workers;
  options.worker_binary = worker_binary;
  return options;
}

/// Starts the backend and sends one request; returns the elapsed ms.
double StartBackend(const EvalContext& context,
                    std::unique_ptr<volcanoml::DispatchBackend>* backend,
                    Outcome* outcome) {
  ScopedSpan span("worker.start");
  const double t0 = Now();
  *backend = volcanoml::CreateDispatchBackend(&context);
  std::vector<EvalRequest> first = {
      EvalRequest{context.space().DefaultAssignment(), 1.0}};
  std::vector<EvalOutcome> out(1);
  (*backend)->Dispatch(first, &out);
  const double ms = (Now() - t0) * 1e3;
  if (!out[0].ok()) outcome->Fail("first pool request did not end ok");
  return ms;
}

}  // namespace

double TimeWorkerStart(const volcanoml::VolcanoMlOptions& options,
                       const Dataset& train, size_t workers,
                       const std::string& worker_binary, Outcome* outcome) {
  SearchSpace space(options.space);
  EvalContext context(&space, &train,
                      PoolOptions(options.eval, workers, worker_binary));
  std::unique_ptr<volcanoml::DispatchBackend> backend;
  double ms = StartBackend(context, &backend, outcome);
  if (backend->telemetry().degraded) {
    outcome->Fail("worker pool degraded at start");
  }
  return ms;
}

PoolReplay ReplayOnPool(const SearchRecord& record,
                        const std::vector<double>& replay_seconds,
                        size_t workers, size_t group,
                        const std::string& worker_binary, Outcome* outcome) {
  PoolReplay replay;
  SearchSpace space(record.options.space);
  EvalContext context(&space, record.train,
                      PoolOptions(record.eval_options, workers, worker_binary));
  std::unique_ptr<volcanoml::DispatchBackend> backend;
  replay.start_ms = StartBackend(context, &backend, outcome);

  // Batches as the search committed them; a serial search's computed
  // requests are grouped `group` at a time in commit order.
  const std::vector<bool> first = FirstOccurrences(record);
  std::vector<std::vector<size_t>> batches;
  size_t begin = 0;
  for (size_t end : record.batch_ends) {
    bool step_opened = false;
    for (size_t i = begin; i < end && i < first.size(); ++i) {
      if (!first[i]) continue;
      const bool new_batch =
          record.options.batch_size > 1
              ? !step_opened
              : batches.empty() || batches.back().size() >= group;
      if (new_batch) batches.emplace_back();
      step_opened = true;
      batches.back().push_back(i);
    }
    begin = end;
  }
  size_t mismatches = 0;
  for (const std::vector<size_t>& batch : batches) {
    std::vector<EvalRequest> requests;
    double slowest = 0.0;
    double busy = 0.0;
    for (size_t i : batch) {
      requests.push_back(EvalRequest{record.observations[i].first, 1.0});
      slowest = std::max(slowest, replay_seconds[i]);
      busy += replay_seconds[i];
    }
    std::vector<EvalOutcome> out(requests.size());
    const double t0 = Now();
    {
      ScopedSpan span("worker.batch");
      backend->Dispatch(requests, &out);
    }
    replay.batch_ms.push_back((Now() - t0) * 1e3);
    replay.batch_slowest_s.push_back(slowest);
    replay.batch_busy_s.push_back(busy);
    replay.batch_sizes.push_back(batch.size());
    for (size_t k = 0; k < batch.size(); ++k) {
      if (!SameBits(out[k].utility, record.observations[batch[k]].second)) {
        ++mismatches;
      }
    }
  }
  replay.telemetry = backend->telemetry();
  if (mismatches > 0) {
    outcome->Fail(std::to_string(mismatches) +
                  " pool-replayed utilities differ from the committed ones");
  }
  return replay;
}

SnapshotTimes TimeSnapshots(const SearchRecord& record, Outcome* outcome) {
  SnapshotTimes times;
  volcanoml::VolcanoMlOptions options = record.options;
  options.eval.backend = volcanoml::EvalBackendKind::kInProcess;
  volcanoml::VolcanoML twin(options);
  if (!twin.Prepare(*record.train).ok()) {
    outcome->Fail("snapshot twin: Prepare failed");
    return times;
  }
  const size_t half = std::max<size_t>(1, record.step_seconds.size() / 2);
  for (size_t i = 0; i < half && twin.executor()->Step(); ++i) {
  }
  std::string snapshot;
  std::vector<double> save_ms;
  for (int rep = 0; rep < 9; ++rep) {
    ScopedSpan span("snapshot.save");
    const double t0 = Now();
    snapshot = twin.executor()->SaveSnapshot();
    save_ms.push_back((Now() - t0) * 1e3);
  }
  std::vector<double> load_ms;
  for (int rep = 0; rep < 5; ++rep) {
    volcanoml::VolcanoML restored(options);
    if (!restored.Prepare(*record.train).ok()) {
      outcome->Fail("snapshot restore: Prepare failed");
      return times;
    }
    const double t0 = Now();
    volcanoml::Status loaded = [&] {
      ScopedSpan span("snapshot.load");
      return restored.executor()->LoadSnapshot(snapshot);
    }();
    load_ms.push_back((Now() - t0) * 1e3);
    if (!loaded.ok()) {
      outcome->Fail("LoadSnapshot: " + loaded.ToString());
      return times;
    }
    if (rep == 0 && restored.executor()->SaveSnapshot() != snapshot) {
      outcome->Fail("a restored twin does not re-save the same snapshot");
    }
  }
  times.save_ms = Median(save_ms);
  times.load_ms = Median(load_ms);
  times.bytes = static_cast<double>(snapshot.size());
  return times;
}

namespace {

/// Evaluation time on the search's blocking path: every computed request
/// for a serial search, the slowest trial of each batch for a batched one.
double BlockingEvalSeconds(const SearchRecord& record,
                           const std::vector<double>& replay_seconds) {
  if (record.options.batch_size <= 1) return Sum(replay_seconds);
  double total = 0.0;
  size_t begin = 0;
  for (size_t end : record.batch_ends) {
    double slowest = 0.0;
    for (size_t i = begin; i < end && i < replay_seconds.size(); ++i) {
      slowest = std::max(slowest, replay_seconds[i]);
    }
    total += slowest;
    begin = end;
  }
  return total;
}

}  // namespace

void SetLayerMetrics(const std::vector<SearchRecord>& records,
                     size_t max_replayed, const std::string& worker_binary,
                     std::vector<double> worker_start_ms, Outcome* out) {
  constexpr size_t kWorkers = 4;
  const bool timed_starts = !worker_start_ms.empty();
  std::vector<double> step_ms, overhead_s, evaluate_ms, busy_s;
  std::vector<double> fe_fit, fe_transform, fit_tree, fit_mlp, fit_other,
      predict, suggest_ms, surrogate_ms;
  std::vector<double> batch_ms, critical_s, idle_s, efficiency, dispatch_s;
  double evaluations = 0.0, cache_hits = 0.0, deaths = 0.0, respawns = 0.0;
  for (size_t n = 0; n < records.size() && n < max_replayed; ++n) {
    const SearchRecord& r = records[n];
    const bool pool_search =
        r.eval_options.backend == volcanoml::EvalBackendKind::kProcessPool;
    const std::vector<double> replay_seconds =
        r.replay_seconds.empty() ? VerifyAgainstReplay(r, out)
                                 : r.replay_seconds;
    for (double s : r.step_seconds) step_ms.push_back(s * 1e3);
    const std::vector<bool> first = FirstOccurrences(r);
    for (size_t i = 0; i < first.size(); ++i) {
      if (first[i]) evaluate_ms.push_back(replay_seconds[i] * 1e3);
    }
    busy_s.push_back(Sum(replay_seconds));
    overhead_s.push_back(r.search_seconds -
                         BlockingEvalSeconds(r, replay_seconds));
    evaluations += static_cast<double>(r.evaluations);
    cache_hits += static_cast<double>(r.cache_hits);
    deaths += static_cast<double>(r.telemetry.worker_deaths);
    respawns += static_cast<double>(r.telemetry.worker_respawns);

    LayerTimes layers = ReplayLayers(r, out);
    fe_fit.push_back(layers.fe_fit_transform);
    fe_transform.push_back(layers.fe_transform);
    fit_tree.push_back(layers.fit_tree);
    fit_mlp.push_back(layers.fit_mlp);
    fit_other.push_back(layers.fit_other);
    predict.push_back(layers.predict);
    suggest_ms.insert(suggest_ms.end(), layers.suggest_ms.begin(),
                      layers.suggest_ms.end());
    surrogate_ms.insert(surrogate_ms.end(), layers.surrogate_fit_ms.begin(),
                        layers.surrogate_fit_ms.end());

    // The worker layer: the search's own batches on a fresh pool, or, for
    // a serial search, its requests grouped as a 4-wide batch takes them.
    PoolReplay pool =
        ReplayOnPool(r, replay_seconds, kWorkers, kWorkers, worker_binary, out);
    if (!timed_starts) worker_start_ms.push_back(pool.start_ms);
    batch_ms.insert(batch_ms.end(), pool.batch_ms.begin(), pool.batch_ms.end());
    // Barrier idle: worker-seconds each batch's trials spend waiting for
    // the batch's slowest trial.
    double critical = 0.0, idle = 0.0, dispatch = 0.0, replay_wall = 0.0;
    for (size_t b = 0; b < pool.batch_ms.size(); ++b) {
      critical += pool.batch_slowest_s[b];
      idle += static_cast<double>(pool.batch_sizes[b]) *
                  pool.batch_slowest_s[b] -
              pool.batch_busy_s[b];
      dispatch += pool.batch_ms[b] / 1e3 - pool.batch_slowest_s[b];
      replay_wall += pool.batch_ms[b] / 1e3;
    }
    critical_s.push_back(critical);
    idle_s.push_back(idle);
    dispatch_s.push_back(dispatch);
    const double wall = pool_search ? r.search_seconds : replay_wall;
    efficiency.push_back(Sum(replay_seconds) /
                         (static_cast<double>(kWorkers) * wall));
    deaths += static_cast<double>(pool.telemetry.worker_deaths);
    respawns += static_cast<double>(pool.telemetry.worker_respawns);
    if (pool.telemetry.degraded) out->Fail("replay pool degraded");
  }

  Metrics& m = out->per_layer;
  m.Set("core.step_ms", Median(step_ms), "ms");
  m.Set("core.step_tail_ms", Tail(step_ms), "ms");
  m.Set("core.overhead_s", Mean(overhead_s), "s");
  m.Set("bo.suggest_ms", Mean(suggest_ms), "ms");
  m.Set("bo.surrogate_fit_ms", Mean(surrogate_ms), "ms");
  m.Set("eval.evaluations", evaluations, "count");
  m.Set("eval.cache_hits", cache_hits, "count");
  m.Set("eval.evaluate_ms", Median(evaluate_ms), "ms");
  m.Set("eval.evaluate_tail_ms", Tail(evaluate_ms), "ms");
  m.Set("eval.busy_s", Mean(busy_s), "s");
  m.Set("fe.fit_transform_s", Mean(fe_fit), "s");
  m.Set("fe.transform_s", Mean(fe_transform), "s");
  m.Set("ml.fit_s.tree", Mean(fit_tree), "s");
  m.Set("ml.fit_s.mlp", Mean(fit_mlp), "s");
  m.Set("ml.fit_s.other", Mean(fit_other), "s");
  m.Set("ml.predict_s", Mean(predict), "s");
  m.Set("worker.start_ms", Median(worker_start_ms), "ms");
  m.Set("worker.batch_ms", Median(batch_ms), "ms");
  m.Set("worker.critical_path_s", Mean(critical_s), "s");
  m.Set("worker.barrier_idle_s", Mean(idle_s), "s");
  m.Set("worker.parallel_efficiency", Mean(efficiency), "frac");
  m.Set("worker.dispatch_overhead_s", Mean(dispatch_s), "s");
  m.Set("worker.deaths", deaths, "count");
  m.Set("worker.respawns", respawns, "count");
}

}  // namespace perfbench
