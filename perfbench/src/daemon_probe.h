// Closed-loop load against one in-process Daemon over a Unix socket:
// client threads each loop Create -> Step/Query until done -> result.
// daemon-churn is this load; the traced search workloads run a small
// instance of it on their own table to time the IPC layer.

#ifndef PERFBENCH_DAEMON_PROBE_H_
#define PERFBENCH_DAEMON_PROBE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "core/trajectory.h"
#include "cs/configuration.h"
#include "ipc/messages.h"

namespace perfbench {

/// One session a client creates: the request it ships and the rows held
/// out for scoring the session's final pipeline.
struct SessionInput {
  volcanoml::CreateSessionRequest request;
  volcanoml::Dataset test;
};

struct DaemonLoadSpec {
  size_t clients = 3;
  size_t max_resident = 2;
  /// Clients start sessions until this many seconds have passed...
  double seconds = 1.0;
  /// ...or until each has run this many.
  size_t sessions_per_client = SIZE_MAX;
  /// Every `evict_every`-th session of a client is evicted explicitly
  /// after its first step grant (0 = never).
  size_t evict_every = 2;
  /// Set-ups timed, half before the load and half after it (median
  /// reported): start a daemon and create each client's first session.
  int setup_reps = 5;
  std::function<SessionInput(size_t client, size_t index)> make_session;
};

/// What one session ended with, as the client saw it.
struct SessionResult {
  size_t client = 0;
  size_t index = 0;
  bool ok = false;
  double seconds = 0.0;
  uint64_t evaluations = 0;
  double best_utility = 0.0;
  std::vector<volcanoml::TrajectoryPoint> trajectory;
  volcanoml::Assignment best_assignment;
};

struct DaemonProbe {
  double setup_s = 0.0;
  double window_s = 0.0;
  /// Client-observed latency per request type: create, step, query,
  /// evict, list.
  std::map<std::string, std::vector<double>> latency_ms;
  /// Every request's start (seconds since the load began) and latency.
  std::vector<std::pair<double, double>> timeline_ms;
  std::vector<SessionResult> sessions;
  uint64_t requests = 0;
  uint64_t failed = 0;
  /// Spool snapshot writes (evictions) and reads (restores), counted
  /// from the spool directory's file events.
  uint64_t evictions = 0;
  uint64_t restores = 0;
};

[[nodiscard]] DaemonProbe RunDaemonLoad(const Args& args,
                                        const DaemonLoadSpec& spec,
                                        Outcome* outcome);

/// The small instance the traced search workloads run: one client, two
/// sessions of the small preset on the workload's own table.
[[nodiscard]] DaemonProbe ProbeDaemon(const Args& args, const std::string& csv,
                                      Outcome* outcome);

/// ipc.* and daemon.* per-layer metrics.
void SetDaemonMetrics(const DaemonProbe& probe, Metrics* metrics);

}  // namespace perfbench

#endif  // PERFBENCH_DAEMON_PROBE_H_
