// edr_live — coordinator and launcher for the live EDR runtime.
//
// Runs the control plane of DESIGN.md §11 as a real process: listens on a
// TCP port, waits for edr_replicad processes to say hello, drives the
// epoch schedule, and prints the per-epoch results plus any monitor
// alerts.  With --spawn it also fork/execs the replica processes itself,
// which makes a complete live cluster a one-liner:
//
//   edr_live --spawn --algorithm lddm --replicas 3 --epochs 4
//
// Chaos: --kill-epoch E --kill-replica R delivers a real SIGKILL to the
// spawned replica R right before epoch E starts — the coordinator then
// has to detect the death (stalled barrier / dead sockets), regenerate
// membership, and re-converge with the survivors while the SLO monitor
// scores the damage.
#include <sys/types.h>
#include <sys/wait.h>

#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "baselines/donar_algorithm.hpp"
#include "common/args.hpp"
#include "core/algorithm_registry.hpp"
#include "core/representation.hpp"
#include "net/tcp_transport.hpp"
#include "runtime/bus.hpp"
#include "runtime/coordinator.hpp"
#include "runtime/live_protocol.hpp"
#include "runtime/live_report.hpp"
#include "runtime/observer.hpp"
#include "telemetry/export.hpp"

namespace {

using namespace edr;

struct Child {
  pid_t pid = -1;
  net::NodeId replica = 0;
};

pid_t spawn_replica(const std::filesystem::path& binary, net::NodeId id,
                    net::NodeId coordinator_id, std::uint16_t port,
                    double barrier_timeout_s, double idle_timeout_s,
                    bool trace, bool metrics,
                    const std::string& telemetry_out) {
  std::vector<std::string> args = {
      binary.string(),
      "--id", std::to_string(id),
      "--coordinator-id", std::to_string(coordinator_id),
      "--coordinator-port", std::to_string(port),
      "--barrier-timeout", std::to_string(barrier_timeout_s),
      "--idle-timeout", std::to_string(idle_timeout_s),
  };
  if (trace) args.emplace_back("--trace");
  if (metrics) args.emplace_back("--metrics");  // ephemeral scrape port
  if (!telemetry_out.empty()) {
    args.emplace_back("--telemetry-out");
    args.push_back(telemetry_out + ".replica" + std::to_string(id));
  }
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("edr_live: fork failed");
  if (pid == 0) {
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (const auto& arg : args) argv.push_back(const_cast<char*>(arg.c_str()));
    argv.push_back(nullptr);
    execv(argv[0], argv.data());
    std::fprintf(stderr, "edr_live: exec %s failed\n", argv[0]);
    _exit(127);
  }
  return pid;
}

/// Give each child a grace period to exit on the coordinator's kShutdown,
/// then SIGKILL the stragglers; always reap.
void reap_children(std::vector<Child>& children) {
  for (auto& child : children) {
    if (child.pid < 0) continue;
    int status = 0;
    bool reaped = false;
    for (int i = 0; i < 50; ++i) {
      if (waitpid(child.pid, &status, WNOHANG) == child.pid) {
        reaped = true;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    if (!reaped) {
      kill(child.pid, SIGKILL);
      waitpid(child.pid, &status, 0);
    }
    child.pid = -1;
  }
}

bool write_text_file(const std::string& path, const std::string& content) {
  std::ofstream out{path, std::ios::binary};
  out << content;
  out.flush();
  if (!out) {
    std::fprintf(stderr, "edr_live: cannot write %s\n", path.c_str());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string algorithm = "lddm";
  std::uint64_t replicas = 3;
  std::uint64_t clients = 6;
  std::uint64_t epochs = 4;
  std::uint64_t seed = 7;
  std::uint64_t port = 0;
  double slo_ms = 0.0;
  double hello_timeout_s = 15.0;
  double epoch_timeout_s = 8.0;
  double barrier_timeout_s = 0.5;
  double idle_timeout_s = 20.0;
  bool spawn = false;
  bool as_json = false;
  std::int64_t kill_epoch = -1;
  std::int64_t kill_replica = -1;
  bool trace = false;
  std::uint64_t metrics_port = 0;
  std::string telemetry_out;
  std::string postmortem_out;

  std::string representation = "dense";
  bool list_algorithms = false;

  ArgParser parser{"edr_live", "live-cluster coordinator and launcher"};
  parser.add_option("algorithm",
                    "registry backend to run (see --list-algorithms)",
                    &algorithm);
  parser.add_flag("list-algorithms",
                  "print the registered schedulers and exit", &list_algorithms);
  parser.add_option("representation",
                    "solver iterate storage: dense|sparse|aggregated",
                    &representation);
  parser.add_option("replicas", "number of replicas", &replicas);
  parser.add_option("clients", "number of clients", &clients);
  parser.add_option("epochs", "number of epochs", &epochs);
  parser.add_option("seed", "workload seed", &seed);
  parser.add_option("port", "coordinator listen port (0 = ephemeral)", &port);
  parser.add_option("slo-ms", "epoch response SLO in ms (0 = off)", &slo_ms);
  parser.add_option("hello-timeout", "wait for replica hellos (s)",
                    &hello_timeout_s);
  parser.add_option("epoch-timeout", "per-epoch watchdog (s)",
                    &epoch_timeout_s);
  parser.add_option("barrier-timeout",
                    "replica round-barrier timeout (s, spawned)",
                    &barrier_timeout_s);
  parser.add_option("idle-timeout", "replica idle timeout (s, spawned)",
                    &idle_timeout_s);
  parser.add_flag("spawn", "fork/exec the edr_replicad processes", &spawn);
  parser.add_option("kill-epoch", "SIGKILL a replica before this epoch",
                    &kill_epoch);
  parser.add_option("kill-replica", "which replica --kill-epoch kills",
                    &kill_replica);
  parser.add_flag("json", "emit the run result as JSON", &as_json);
  parser.add_flag("trace",
                  "causal tracing: record spans everywhere (spawned "
                  "replicas included) and merge them into one Chrome trace",
                  &trace);
  parser.add_option("metrics-port",
                    "serve Prometheus text on 127.0.0.1:PORT during the "
                    "run (0 = off; spawned replicas get ephemeral ports)",
                    &metrics_port);
  parser.add_option("telemetry-out",
                    "write the merged Chrome trace here plus "
                    "<path>.metrics.jsonl/.prom (spawned replicas export "
                    "to <path>.replicaN)",
                    &telemetry_out);
  parser.add_option("postmortem-out",
                    "write the chaos post-mortem timeline JSON here",
                    &postmortem_out);
  if (!parser.parse(argc, argv, std::cerr))
    return parser.help_requested() ? 0 : 2;
  baselines::register_donar_algorithm();
  auto& registry = core::AlgorithmRegistry::instance();
  if (list_algorithms) {
    for (const auto& key : registry.keys())
      std::printf("%-8s %s\n", key.c_str(),
                  registry.description(key).c_str());
    return 0;
  }
  if (!registry.contains(algorithm)) {
    std::cerr << "edr_live: unknown --algorithm '" << algorithm
              << "' (choices:";
    for (const auto& key : registry.keys()) std::cerr << " " << key;
    std::cerr << "; run --list-algorithms for descriptions)\n";
    return 2;
  }
  if (replicas == 0) {
    std::cerr << "edr_live: --replicas must be positive\n";
    return 2;
  }
  const bool want_kill = kill_epoch >= 0 || kill_replica >= 0;
  if (want_kill &&
      (kill_epoch < 0 || kill_replica < 0 ||
       kill_replica >= static_cast<std::int64_t>(replicas))) {
    std::cerr << "edr_live: --kill-epoch and --kill-replica must both be "
                 "set, with a valid replica id\n";
    return 2;
  }
  if (want_kill && !spawn) {
    std::cerr << "edr_live: --kill-epoch needs --spawn (there is no child "
                 "process to SIGKILL otherwise)\n";
    return 2;
  }

  auto config = runtime::make_default_live_config(
      replicas, clients, static_cast<std::uint32_t>(epochs), seed);
  config.algorithm = algorithm;
  if (const auto parsed = core::parse_representation(representation)) {
    config.representation = *parsed;
  } else {
    std::cerr << "edr_live: unknown --representation '" << representation
              << "' (choices: dense, sparse, aggregated)\n";
    return 2;
  }

  // --telemetry-out without --trace would merge an empty trace; treat the
  // export request as opting into tracing.
  trace = trace || !telemetry_out.empty();

  const auto coordinator_id = static_cast<net::NodeId>(replicas);
  net::TcpTransport transport{coordinator_id};
  for (int type = runtime::kHello; type <= runtime::kTimeReply; ++type)
    if (const char* name = runtime::live_frame_type_name(type))
      transport.set_type_name(type, name);
  const std::uint16_t actual_port =
      transport.listen(static_cast<std::uint16_t>(port));
  if (!as_json)
    std::fprintf(stderr, "edr_live: coordinator %u listening on %u\n",
                 coordinator_id, actual_port);

  std::unique_ptr<runtime::RuntimeObserver> observer;
  if (trace || metrics_port != 0) {
    runtime::ObserverOptions observer_options;
    observer_options.tracing = trace;
    observer_options.metrics_server = metrics_port != 0;
    observer_options.metrics_port = static_cast<std::uint16_t>(metrics_port);
    observer = std::make_unique<runtime::RuntimeObserver>(
        coordinator_id, "coordinator", observer_options);
    transport.attach_telemetry(observer->telemetry());
    if (observer->metrics_port() != 0)
      std::fprintf(stderr, "edr_live: metrics on 127.0.0.1:%u\n",
                   observer->metrics_port());
  }

  std::vector<Child> children;
  if (spawn) {
    // The replica daemon lives next to this binary.
    std::error_code ec;
    auto self = std::filesystem::canonical("/proc/self/exe", ec);
    const auto replicad = ec ? std::filesystem::path{argv[0]}.parent_path() /
                                   "edr_replicad"
                             : self.parent_path() / "edr_replicad";
    for (std::uint64_t i = 0; i < replicas; ++i)
      children.push_back(Child{
          spawn_replica(replicad, static_cast<net::NodeId>(i),
                        coordinator_id, actual_port, barrier_timeout_s,
                        idle_timeout_s, trace, metrics_port != 0,
                        telemetry_out),
          static_cast<net::NodeId>(i)});
  }

  runtime::CoordinatorOptions options;
  options.hello_timeout_s = hello_timeout_s;
  options.epoch_timeout_s = epoch_timeout_s;
  options.monitor.response_slo_ms = slo_ms;
  runtime::LiveCoordinator* running = nullptr;  // for fault timeline entries
  if (want_kill)
    options.on_epoch_start = [&](std::uint32_t epoch) {
      if (epoch != static_cast<std::uint32_t>(kill_epoch)) return;
      for (auto& child : children)
        if (child.replica == static_cast<net::NodeId>(kill_replica) &&
            child.pid > 0) {
          std::fprintf(stderr, "edr_live: SIGKILL replica %lld (pid %d)\n",
                       static_cast<long long>(kill_replica),
                       static_cast<int>(child.pid));
          if (running != nullptr)
            running->log_event("fault", "kill", kill_replica);
          kill(child.pid, SIGKILL);
        }
    };

  runtime::TcpBus bus{transport};
  int exit_code = 1;
  try {
    runtime::LiveCoordinator coordinator{bus, config, options};
    if (observer != nullptr) coordinator.set_observer(observer.get());
    running = &coordinator;
    const runtime::LiveRunResult result = coordinator.run();
    running = nullptr;

    runtime::TransportReport transport_report;
    transport_report.totals = transport.total_stats();
    transport_report.by_type = transport.traffic_by_type();
    for (const auto& [type, traffic] : transport_report.by_type)
      if (const char* name = runtime::live_frame_type_name(type))
        transport_report.type_names[type] = name;
    transport_report.queue_overflows = transport.queue_overflows();
    transport_report.frame_errors = transport.frame_errors();
    transport_report.connects_completed = transport.connects_completed();
    transport_report.frames_dropped_by_fault =
        transport.frames_dropped_by_fault();

    if (as_json)
      std::printf("%s\n",
                  runtime::live_run_to_json(result, &transport_report)
                      .c_str());
    else
      std::printf("%s", runtime::live_run_to_table(result).c_str());

    if (!telemetry_out.empty() && observer != nullptr) {
      observer->refresh_resource_gauges();
      bool wrote = write_text_file(telemetry_out,
                                   coordinator.merged_trace_json());
      wrote &= write_text_file(
          telemetry_out + ".metrics.jsonl",
          telemetry::metrics_to_jsonl(observer->telemetry().metrics()));
      wrote &= write_text_file(
          telemetry_out + ".prom",
          telemetry::metrics_to_prometheus(observer->telemetry().metrics()));
      if (wrote && !as_json)
        std::fprintf(stderr, "edr_live: merged trace -> %s\n",
                     telemetry_out.c_str());
    }
    if (!postmortem_out.empty())
      write_text_file(postmortem_out, runtime::live_postmortem_json(result));
    bool agree = true;
    for (const auto& epoch : result.epochs) agree &= epoch.digests_agree;
    exit_code = result.completed && agree ? 0 : 1;
    if (!as_json)
      std::fprintf(stderr,
                   "edr_live: %s, %llu generation(s), %llu total round(s)\n",
                   result.completed ? "completed" : "INCOMPLETE",
                   static_cast<unsigned long long>(result.generations),
                   static_cast<unsigned long long>(result.total_rounds));
  } catch (const std::exception& error) {
    std::fprintf(stderr, "edr_live: %s\n", error.what());
  }

  reap_children(children);
  transport.shutdown();
  return exit_code;
}
