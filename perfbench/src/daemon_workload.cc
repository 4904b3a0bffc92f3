// daemon-churn: three closed-loop DaemonClient threads against one
// in-process Daemon whose residency cap is below the live session count,
// and the in-process twins that check every session bit for bit.

#include <sys/inotify.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <thread>

#include "daemon/client.h"
#include "daemon/daemon.h"
#include "daemon/session.h"
#include "daemon_probe.h"
#include "data/csv.h"
#include "data/synthetic.h"
#include "replay.h"
#include "workloads.h"

namespace perfbench {

using volcanoml::DaemonClient;

namespace {


/// Counts snapshot writes and reads in the spool directory.
class SpoolWatch {
 public:
  explicit SpoolWatch(const std::string& dir) {
    fd_ = inotify_init1(IN_NONBLOCK | IN_CLOEXEC);
    if (fd_ >= 0) {
      inotify_add_watch(fd_, dir.c_str(), IN_CLOSE_WRITE | IN_CLOSE_NOWRITE);
    }
  }
  ~SpoolWatch() {
    if (fd_ >= 0) close(fd_);
  }
  SpoolWatch(const SpoolWatch&) = delete;
  SpoolWatch& operator=(const SpoolWatch&) = delete;

  /// Drains pending events into the counters.
  void Drain(uint64_t* writes, uint64_t* reads) {
    if (fd_ < 0) return;
    alignas(struct inotify_event) char buf[1 << 16];
    while (true) {
      ssize_t n = read(fd_, buf, sizeof(buf));
      if (n <= 0) return;
      for (ssize_t off = 0; off < n;) {
        auto* event = reinterpret_cast<struct inotify_event*>(buf + off);
        std::string name = event->len > 0 ? event->name : "";
        const std::string suffix = ".snapshot";
        if (name.size() > suffix.size() &&
            name.compare(name.size() - suffix.size(), suffix.size(),
                         suffix) == 0) {
          if (event->mask & IN_CLOSE_WRITE) ++*writes;
          if (event->mask & IN_CLOSE_NOWRITE) ++*reads;
        }
        off += static_cast<ssize_t>(sizeof(struct inotify_event) + event->len);
      }
    }
  }

 private:
  int fd_ = -1;
};

/// A daemon serving on its own thread until Shutdown.
class ServedDaemon {
 public:
  ServedDaemon(const std::string& socket, const std::string& spool,
               size_t max_resident)
      : socket_(socket) {
    volcanoml::DaemonOptions options;
    options.socket_path = socket;
    options.spool_dir = spool;
    options.max_resident = max_resident;
    daemon_ = std::make_unique<volcanoml::Daemon>(options);
    thread_ = std::thread([this] { status_ = daemon_->Serve(); });
  }
  ~ServedDaemon() { Stop(); }
  ServedDaemon(const ServedDaemon&) = delete;
  ServedDaemon& operator=(const ServedDaemon&) = delete;

  /// Waits until the daemon answers; false when it never does.
  bool WaitReady() {
    DaemonClient probe(socket_, 2000);
    for (int i = 0; i < 50000; ++i) {
      if (probe.ListSessions().ok()) return true;
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
    return false;
  }

  void Stop() {
    if (!thread_.joinable()) return;
    if (!DaemonClient(socket_).Shutdown().ok()) daemon_->RequestStop();
    thread_.join();
  }

  [[nodiscard]] const volcanoml::Status& status() const { return status_; }

 private:
  std::string socket_;
  std::unique_ptr<volcanoml::Daemon> daemon_;
  volcanoml::Status status_ = volcanoml::Status::Ok();
  std::thread thread_;
};

/// Latencies and results one client collected; merged after the join.
struct ClientLog {
  std::map<std::string, std::vector<double>> latency_ms;
  std::vector<std::pair<double, double>> timeline_ms;
  std::vector<SessionResult> sessions;
  uint64_t requests = 0;
  uint64_t failed = 0;
};

template <typename Call>
auto Timed(ClientLog* log, const char* type, Call&& call) {
  ScopedSpan span(type);
  const double t0 = Now();
  auto result = call();
  const double ms = (Now() - t0) * 1e3;
  log->latency_ms[type].push_back(ms);
  log->timeline_ms.emplace_back(t0, ms);
  ++log->requests;
  if (!result.ok()) ++log->failed;
  return result;
}

void RunClient(const DaemonLoadSpec& spec, const std::string& socket,
               size_t client_index, double window_start, ClientLog* log) {
  DaemonClient client(socket);
  for (size_t index = 0; index < spec.sessions_per_client &&
                         (index == 0 || Now() - window_start < spec.seconds);
       ++index) {
    SessionInput input = spec.make_session(client_index, index);
    ScopedSpan session_span("ipc.session");
    const uint64_t failed_before = log->failed;
    SessionResult result;
    result.client = client_index;
    result.index = index;
    const double t0 = Now();
    auto created = Timed(log, "ipc.create",
                         [&] { return client.CreateSession(input.request); });
    if (!created.ok()) {
      log->sessions.push_back(result);
      continue;
    }
    const uint64_t id = created.value();
    bool evict = spec.evict_every > 0 && index % spec.evict_every == 0;
    bool failed = false;
    bool done = false;
    while (!done && !failed) {
      auto stepped =
          Timed(log, "ipc.step", [&] { return client.StepSession(id, 2); });
      if (!stepped.ok()) {
        failed = true;
        break;
      }
      if (evict) {
        evict = false;
        if (!Timed(log, "ipc.evict", [&] { return client.EvictSession(id); })
                 .ok()) {
          failed = true;
          break;
        }
      }
      while (true) {
        volcanoml::QuerySessionRequest query;
        query.session_id = id;
        auto polled =
            Timed(log, "ipc.query", [&] { return client.QuerySession(query); });
        if (!polled.ok() ||
            polled.value().status.state == volcanoml::SessionState::kFailed) {
          failed = true;
          break;
        }
        const volcanoml::SessionStatus& status = polled.value().status;
        if (status.done) done = true;
        if (status.done || status.pending_credit == 0) break;
      }
    }
    if (!failed) {
      volcanoml::QuerySessionRequest query;
      query.session_id = id;
      query.include_trajectory = true;
      query.include_assignment = true;
      auto final_reply =
          Timed(log, "ipc.query", [&] { return client.QuerySession(query); });
      auto listed =
          Timed(log, "ipc.list", [&] { return client.ListSessions(); });
      if (final_reply.ok() && listed.ok() &&
          final_reply.value().status.state !=
              volcanoml::SessionState::kFailed) {
        const volcanoml::SessionStatus& status = final_reply.value().status;
        result.ok = true;
        result.evaluations = status.telemetry.num_evaluations;
        result.best_utility = status.best_utility;
        result.trajectory = final_reply.value().trajectory;
        result.best_assignment = final_reply.value().best_assignment;
      }
    }
    result.seconds = Now() - t0;
    // A session that ended kFailed with every request answered.
    if (!result.ok && log->failed == failed_before) ++log->failed;
    log->sessions.push_back(std::move(result));
  }
}

std::string DaemonDir(const Args& args, const char* tag) {
  static std::atomic<int> counter{0};
  std::string dir = args.work_dir + "/" + tag + "-" + std::to_string(getpid()) +
                    "-" + std::to_string(counter++);
  mkdir(dir.c_str(), 0755);
  return dir;
}

}  // namespace

DaemonProbe RunDaemonLoad(const Args& args, const DaemonLoadSpec& spec,
                          Outcome* outcome) {
  DaemonProbe probe;
  // Set-up: start a daemon and register each client's first session.
  // Half the set-ups are timed before the load and half after it, so
  // their median does not hang on the host's state at one instant.
  std::vector<SessionInput> first_sessions;
  for (size_t c = 0; c < spec.clients; ++c) {
    first_sessions.push_back(spec.make_session(c, 0));
  }
  std::vector<double> setup;
  auto time_setups = [&](int reps) {
    for (int rep = 0; rep < reps; ++rep) {
      const std::string dir = DaemonDir(args, "setup");
      ScopedSpan span("daemon.setup");
      const double t0 = Now();
      ServedDaemon daemon(dir + "/d.sock", dir, spec.max_resident);
      if (!daemon.WaitReady()) outcome->Fail("daemon did not come up");
      DaemonClient client(dir + "/d.sock");
      for (const SessionInput& input : first_sessions) {
        if (!client.CreateSession(input.request).ok()) {
          outcome->Fail("set-up CreateSession failed");
        }
      }
      setup.push_back(Now() - t0);
      daemon.Stop();
    }
  };
  time_setups((spec.setup_reps + 1) / 2);

  const std::string dir = DaemonDir(args, "daemon");
  const std::string socket = dir + "/d.sock";
  SpoolWatch watch(dir);
  ServedDaemon daemon(socket, dir, spec.max_resident);
  if (!daemon.WaitReady()) {
    outcome->Fail("daemon did not come up");
    return probe;
  }
  std::vector<ClientLog> logs(spec.clients);
  const double window_start = Now();
  {
    std::vector<std::thread> clients;
    for (size_t c = 0; c < spec.clients; ++c) {
      clients.emplace_back(RunClient, std::cref(spec), std::cref(socket), c,
                           window_start, &logs[c]);
    }
    for (std::thread& t : clients) t.join();
  }
  probe.window_s = Now() - window_start;
  daemon.Stop();
  if (!daemon.status().ok()) {
    outcome->Fail("daemon serve loop: " + daemon.status().ToString());
  }
  time_setups(spec.setup_reps / 2);
  probe.setup_s = Median(setup);
  watch.Drain(&probe.evictions, &probe.restores);
  for (ClientLog& log : logs) {
    for (auto& [type, samples] : log.latency_ms) {
      auto& all = probe.latency_ms[type];
      all.insert(all.end(), samples.begin(), samples.end());
    }
    for (const auto& [start, ms] : log.timeline_ms) {
      probe.timeline_ms.emplace_back(start - window_start, ms);
    }
    probe.sessions.insert(probe.sessions.end(), log.sessions.begin(),
                          log.sessions.end());
    probe.requests += log.requests;
    probe.failed += log.failed;
  }
  return probe;
}

DaemonProbe ProbeDaemon(const Args& args, const std::string& csv,
                        Outcome* outcome) {
  DaemonLoadSpec spec;
  spec.clients = 1;
  spec.max_resident = 1;
  spec.sessions_per_client = 2;
  spec.evict_every = 1;
  spec.setup_reps = 3;
  spec.seconds = 0.0;
  spec.make_session = [&](size_t, size_t index) {
    SessionInput input;
    input.request.tenant = "probe";
    input.request.csv = csv;
    input.request.config.preset = 0;
    input.request.config.budget = 6.0;
    input.request.config.seed = index + 1;
    input.request.step_credit = 0;
    return input;
  };
  DaemonProbe probe = RunDaemonLoad(args, spec, outcome);
  outcome->attempted += probe.requests;
  outcome->failed += probe.failed;
  return probe;
}

void SetDaemonMetrics(const DaemonProbe& probe, Metrics* m) {
  for (const char* type :
       {"ipc.create", "ipc.step", "ipc.query", "ipc.evict", "ipc.list"}) {
    auto it = probe.latency_ms.find(type);
    std::vector<double> samples =
        it == probe.latency_ms.end() ? std::vector<double>{} : it->second;
    m->Set(std::string(type) + "_ms", Median(samples), "ms");
    m->Set(std::string(type) + "_tail_ms", Tail(samples), "ms");
  }
  m->Set("daemon.evictions", static_cast<double>(probe.evictions), "count");
  m->Set("daemon.restores", static_cast<double>(probe.restores), "count");
}

namespace {

/// Blob tables are seeded samples of one fixed MakeBlobs population.
constexpr uint64_t kBlobPopulationSeed = 20210818;

/// The request tail: the median over five equal spans of the load of
/// each span's tail, so that a slow spell of a shared host within the run
/// decides at most one span of it.
double SpanTail(const DaemonProbe& probe) {
  constexpr size_t kSpans = 5;
  std::vector<std::vector<double>> spans(kSpans);
  for (const auto& [start, ms] : probe.timeline_ms) {
    const double at = std::max(0.0, start / probe.window_s);
    spans[std::min(kSpans - 1, static_cast<size_t>(at * kSpans))].push_back(
        ms);
  }
  std::vector<double> tails;
  for (const std::vector<double>& span : spans) {
    if (!span.empty()) tails.push_back(Tail(span));
  }
  return Median(tails);
}

/// An in-process twin of one daemon session, built from the same
/// SessionConfig and CSV.
struct Twin {
  volcanoml::Dataset train;
  SearchRecord record;
  double parse_ms = 0.0;
};

std::unique_ptr<Twin> RunTwin(const SessionInput& input,
                              const SessionResult& session, Outcome* out) {
  auto twin = std::make_unique<Twin>();
  const double t0 = Now();
  volcanoml::Result<volcanoml::Dataset> parsed = [&] {
    ScopedSpan span("data.csv_parse");
    return volcanoml::ParseCsvDataset(input.request.csv,
                                      volcanoml::TaskType::kClassification,
                                      input.request.dataset_name, "twin");
  }();
  twin->parse_ms = (Now() - t0) * 1e3;
  volcanoml::Result<volcanoml::VolcanoMlOptions> options =
      volcanoml::SessionConfigToOptions(input.request.config);
  if (!parsed.ok() || !options.ok()) {
    out->Fail("twin of session " + std::to_string(session.client) + "/" +
              std::to_string(session.index) + " cannot be built");
    return twin;
  }
  twin->train = std::move(parsed.value());
  twin->record =
      RunSearch(SearchInput{options.value(), &twin->train, &input.test}, out);
  twin->record.replay_seconds = VerifyAgainstReplay(twin->record, out);
  if (!SameTrajectory(twin->record.trajectory, session.trajectory) ||
      twin->record.best_assignment != session.best_assignment) {
    out->Fail("daemon session " + std::to_string(session.client) + "/" +
              std::to_string(session.index) +
              " differs from its in-process twin");
  }
  if (twin->record.test_bal_acc <
      1.0 / static_cast<double>(twin->train.NumClasses()) + kChanceMargin) {
    out->Fail("twin's test balanced accuracy " +
              std::to_string(twin->record.test_bal_acc) +
              " does not clear chance");
  }
  return twin;
}

}  // namespace

void RunDaemonChurn(const Args& args, Outcome* out) {
  const size_t train_rows = args.smoke ? 120 : 240;
  const size_t test_rows = 80;
  const double budget = args.smoke ? 6.0 : 10.0;
  const volcanoml::Dataset population = volcanoml::MakeBlobs(
      args.smoke ? 2000 : 20000, 6, 3, 6.0, kBlobPopulationSeed, "blobs");

  DaemonLoadSpec spec;
  spec.clients = 3;
  spec.max_resident = 2;  // below the three live sessions: forces churn
  spec.seconds = args.seconds;
  spec.evict_every = 2;
  spec.setup_reps = args.smoke ? 2 : 25;
  spec.make_session = [&](size_t client, size_t index) {
    const uint64_t seed = Mix(Mix(args.seed, client), index);
    std::vector<size_t> order = Permutation(population.NumSamples(), seed);
    SessionInput input;
    input.request.tenant = "tenant-" + std::to_string((client + index) % 4);
    input.request.dataset_name = "blobs";
    input.request.csv = ToCsv(population.Subset(
        std::vector<size_t>(order.begin(), order.begin() + train_rows)));
    input.test = population.Subset(std::vector<size_t>(
        order.begin() + train_rows, order.begin() + train_rows + test_rows));
    volcanoml::SessionConfig& config = input.request.config;
    config.preset = 0;
    config.plan = index % 2 == 0 ? "cond(alg)+alt(fe,hp)" : "joint";
    config.optimizer = "smac";
    config.budget = budget;
    // Search seeds follow the session's slot, as in the search workloads.
    config.seed = 1 + client * 1000 + index;
    input.request.step_credit = 0;
    return input;
  };

  const DaemonProbe probe = RunDaemonLoad(args, spec, out);
  out->attempted += probe.requests;
  out->failed += probe.failed;

  // Twins: every finished session rebuilt in-process from its config.
  std::vector<const SessionResult*> finished;
  for (const SessionResult& s : probe.sessions) {
    if (s.ok) finished.push_back(&s);
  }
  if (finished.empty()) out->Fail("no daemon session finished");
  std::vector<std::unique_ptr<Twin>> twins(finished.size());
  std::vector<SessionInput> inputs;
  for (const SessionResult* s : finished) {
    inputs.push_back(spec.make_session(s->client, s->index));
  }
  // The check runs untraced, four twins at a time.
  const size_t threads =
      std::max<size_t>(1, std::min<size_t>(4, AffinityCpus()));
  Tracer* tracer = Tracer::Active();
  Tracer::Disable();
  std::vector<Outcome> checks(threads);
  std::atomic<size_t> next{0};
  auto work = [&](size_t t) {
    for (size_t i = next++; i < finished.size(); i = next++) {
      twins[i] = RunTwin(inputs[i], *finished[i], &checks[t]);
    }
  };
  {
    std::vector<std::thread> pool;
    for (size_t t = 0; t < threads; ++t) pool.emplace_back(work, t);
    for (std::thread& t : pool) t.join();
  }
  for (const Outcome& c : checks) {
    if (!c.correct) out->correct = false;
  }
  if (tracer != nullptr) Tracer::Enable();

  std::vector<double> session_s, best, test, latencies;
  double evaluations = 0.0;
  for (size_t i = 0; i < finished.size(); ++i) {
    session_s.push_back(finished[i]->seconds);
    best.push_back(finished[i]->best_utility);
    evaluations += static_cast<double>(finished[i]->evaluations);
    if (twins[i] != nullptr) test.push_back(twins[i]->record.test_bal_acc);
  }
  for (const auto& [type, samples] : probe.latency_ms) {
    latencies.insert(latencies.end(), samples.begin(), samples.end());
  }

  if (!args.trace) {
    Metrics& m = out->end_to_end;
    m.Set("search_s", Median(session_s), "s");
    m.Set("evals_per_s", evaluations / probe.window_s, "evals/s");
    m.Set("best_val_utility", Median(best), "bal_acc");
    m.Set("test_bal_acc", Median(test), "bal_acc");
    m.Set("sessions_per_s",
          static_cast<double>(finished.size()) / probe.window_s, "sessions/s");
    m.Set("request_p50_ms", Median(latencies), "ms");
    m.Set("request_tail_ms", SpanTail(probe), "ms");
    m.Set("setup_s", probe.setup_s, "s");
    m.Set("peak_rss_mb", PeakRssMb(), "MiB");
    return;
  }

  // Traced run: serial twins of the first sessions stand in for the
  // sessions' inner layers; each is also run untraced for the overhead.
  std::vector<SearchRecord> records;
  std::vector<std::unique_ptr<Twin>> traced_twins;
  std::vector<double> traced_s, untraced_s, parse_ms;
  const size_t replayed =
      std::min<size_t>(finished.size(), args.smoke ? 2 : 24);
  for (size_t i = 0; i < replayed; ++i) {
    Tracer::Disable();
    Outcome plain_check;
    const SearchRecord plain = RunSearch(
        SearchInput{twins[i]->record.options, &twins[i]->train, nullptr},
        &plain_check);
    Tracer::Enable();
    traced_twins.push_back(RunTwin(inputs[i], *finished[i], out));
    const SearchRecord& traced = traced_twins.back()->record;
    if (!plain_check.correct ||
        !SameTrajectory(plain.trajectory, traced.trajectory)) {
      out->Fail("traced and untraced twins differ");
    }
    untraced_s.push_back(plain.search_seconds);
    traced_s.push_back(traced.search_seconds);
    parse_ms.push_back(traced_twins.back()->parse_ms);
    records.push_back(traced);
  }
  SetLayerMetrics(records, replayed, args.worker_binary, {}, out);
  const SnapshotTimes snapshot = TimeSnapshots(records.front(), out);
  Metrics& m = out->per_layer;
  SetDaemonMetrics(probe, &m);
  m.Set("snapshot.save_ms", snapshot.save_ms, "ms");
  m.Set("snapshot.load_ms", snapshot.load_ms, "ms");
  m.Set("snapshot.bytes", snapshot.bytes, "bytes");
  m.Set("data.csv_parse_ms", Median(parse_ms), "ms");
  m.Set("trace.overhead_s", Median(traced_s) - Median(untraced_s), "s");
}

}  // namespace perfbench
