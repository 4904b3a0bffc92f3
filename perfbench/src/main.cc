// perfbench: one run of one workload.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--smoke] [--work-dir <dir>]
//
// Prints the host facts as one JSON line, then, as the last line, the
// result: {"correct", "attempted", "failed", "metrics"}. Untraced runs
// report the end-to-end metrics; traced runs the per-layer ones, and
// write their spans as Chrome trace-event JSON into the work directory.

#include <sys/stat.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"
#include "workloads.h"

namespace perfbench {
namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload default-plan-serial|"
               "joint-plan-pool4|daemon-churn --seed N --seconds S "
               "--trace 0|1 [--smoke] [--work-dir DIR]\n",
               why);
  return 2;
}

/// Directory of the running binary (the worker sits next to it).
std::string BinaryDir() {
  char buf[4096];
  ssize_t n = readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return ".";
  buf[n] = '\0';
  std::string path(buf);
  return path.substr(0, path.find_last_of('/'));
}

void PrintResult(Outcome* out, const Metrics& metrics) {
  std::string json = "{";
  for (size_t i = 0; i < metrics.names().size(); ++i) {
    double value = metrics.value(i);
    if (!std::isfinite(value)) {
      out->Fail("metric " + metrics.names()[i] + " is not finite");
      value = 0.0;
    }
    char entry[256];
    std::snprintf(entry, sizeof(entry),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics.names()[i].c_str(), value,
                  metrics.unit(i).c_str());
    json += entry;
  }
  json += "}";
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              out->correct ? "true" : "false",
              static_cast<unsigned long long>(out->attempted),
              static_cast<unsigned long long>(out->failed), json.c_str());
  std::fflush(stdout);
}

int Main(int argc, char** argv) {
  Args args;
  args.work_dir = ".bench_build/perfbench-runs";
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
      have_seconds = args.seconds > 0.0;
    } else if (flag == "--trace") {
      args.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return Usage("--seed, --seconds (> 0) and --trace (0 or 1) are required");
  }
  const bool search = args.workload == "default-plan-serial" ||
                      args.workload == "joint-plan-pool4";
  if (!search && args.workload != "daemon-churn") {
    return Usage(("unknown workload '" + args.workload + "'").c_str());
  }
  // mkdir -p of the work directory.
  for (size_t pos = 0; pos != std::string::npos;) {
    pos = args.work_dir.find('/', pos + 1);
    mkdir(args.work_dir.substr(0, pos).c_str(), 0755);
  }
  args.worker_binary = BinaryDir() + "/perfbench_worker";

  std::printf("%s\n", HostFactsJson(args).c_str());
  if (args.trace) Tracer::Enable();
  Outcome out;
  if (search) {
    RunSearchWorkload(args, &out);
  } else {
    RunDaemonChurn(args, &out);
  }
  if (out.attempted == 0) out.Fail("no operation was attempted");
  if (args.trace) {
    Tracer* tracer = Tracer::Active();
    const std::string path = args.work_dir + "/trace-" + args.workload +
                             "-seed" + std::to_string(args.seed) + ".json";
    if (tracer == nullptr || !tracer->WriteChromeTrace(path)) {
      out.Fail("cannot write the trace to " + path);
    } else {
      std::fprintf(stderr, "perfbench: %zu spans written to %s\n",
                   tracer->size(), path.c_str());
    }
    Tracer::Disable();
  }
  PrintResult(&out, args.trace ? out.per_layer : out.end_to_end);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
