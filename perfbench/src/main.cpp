// edr_perfbench — the end-to-end epoch benchmark.
//
//   edr_perfbench --workload sim_dense_1k --seed 3 --seconds 10 --trace 0
//
// Runs one workload end to end for about --seconds seconds with tracing
// off and checks its outputs.  With --trace 1 it then replays the same
// epochs layer by layer (perfbench/src/replay.hpp) and reports the
// per-layer split instead of the end-to-end metrics.  Output: one line per
// metric, a "# host" line, a "BENCH_RECORD" line with everything (what
// perfbench/compare.py reads), and last a one-line JSON result.  Exits 3
// when a correctness check fails, 2 on bad arguments, 1 on errors.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "common/args.hpp"
#include "common/json.hpp"
#include "common/math_util.hpp"
#include "common/simd.hpp"
#include "e2e.hpp"
#include "power/meter.hpp"
#include "replay.hpp"
#include "runtime/local_cluster.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// Sample count or derivation, for the human-readable line.
  std::string note;
};

struct Outcome {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Human-readable facts that are not bounded metrics.
  std::vector<Metric> info;
  std::vector<std::string> failures;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

double median(std::vector<double> values) {
  return values.empty() ? 0.0 : edr::percentile(std::move(values), 50.0);
}

std::string samples(std::size_t n) { return "n=" + std::to_string(n); }

/// numerator / denominator, with an empty denominator counting as 1.
double ratio(double numerator, std::uint64_t denominator) {
  return numerator /
         static_cast<double>(std::max<std::uint64_t>(1, denominator));
}

double percentile_of(const std::vector<double>& values, double p) {
  return values.empty() ? 0.0 : edr::percentile(values, p);
}

/// Each epoch's span, start to the next epoch's start and the last one to
/// the end of the run, in ms.
std::vector<double> epoch_spans_ms(const std::vector<double>& starts_s,
                                   double end_s) {
  std::vector<double> spans;
  for (std::size_t e = 0; e < starts_s.size(); ++e)
    spans.push_back(
        ((e + 1 < starts_s.size() ? starts_s[e + 1] : end_s) - starts_s[e]) *
        1e3);
  return spans;
}

/// `seconds` measured while the core ran at `clock_ghz`, scaled to the
/// time the same cycles take at kReferenceClockGhz.
double at_reference_clock(double seconds, double clock_ghz) {
  return seconds * clock_ghz / kReferenceClockGhz;
}

std::vector<double> scaled(std::vector<double> values, double clock_ghz) {
  for (double& value : values) value = at_reference_clock(value, clock_ghz);
  return values;
}

/// Mean of the per-epoch values.
double mean(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(std::max<std::size_t>(1, values.size()));
}

/// Element-wise minimum over runs.  Every run replays the same inputs, so
/// epoch e does identical work in each (the checks compare rounds and
/// results); the fastest repeat of each epoch filters out interference
/// from the rest of the host, which only ever adds time.
std::vector<double> per_epoch_min(
    const std::vector<std::vector<double>>& runs) {
  std::vector<double> minima;
  for (const auto& run : runs) {
    if (minima.empty()) {
      minima = run;
      continue;
    }
    for (std::size_t e = 0; e < minima.size() && e < run.size(); ++e)
      minima[e] = std::min(minima[e], run[e]);
  }
  return minima;
}

const edr::runtime::LocalClusterOptions kClusterDefaults{};

// ---------- end to end: simulator ----------

struct SimSummary {
  /// Median run's epoch wall: the replay's single passes are typical
  /// runs, not best ones, so the residuals are taken against this.
  double typical_epoch_ms = 0.0;
  const SimRun* first = nullptr;
};

SimSummary sim_end_to_end(const Inputs& inputs, double seconds,
                          SimMeasurement& measurement, Outcome& out) {
  measurement = measure_sim(inputs.system, inputs.requests, seconds);
  const SimRun& first = measurement.runs.front();
  const auto& report = first.report;
  const std::size_t trace_size = inputs.requests.size();
  double trace_mb = 0.0;
  for (const auto& request : inputs.requests) trace_mb += request.size_mb;

  std::vector<double> walls_ms, clocks_ghz = measurement.setup_clock_ghz;
  std::vector<std::vector<double>> spans_ms;
  for (const SimRun& run : measurement.runs) {
    const auto& r = run.report;
    out.attempted += trace_size;
    out.failed += trace_size - std::min(trace_size, r.requests_served);
    out.check(r.requests_served + r.requests_dropped == trace_size,
              "sim: served + dropped != trace size");
    out.check(std::abs(r.megabytes_served - trace_mb) <= 1e-6 * trace_mb,
              "sim: megabytes served != megabytes offered");
    out.check(run.infeasible_epochs == 0,
              "sim: an allocation misses demand or capacity");
    out.check(run.rounds.size() == r.epochs &&
                  std::accumulate(run.rounds.begin(), run.rounds.end(),
                                  std::size_t{0}) == r.total_rounds,
              "sim: decorator round count != RunReport::total_rounds");
    out.check(r.total_rounds == report.total_rounds &&
                  r.total_active_cost == report.total_active_cost &&
                  r.response_times_ms == report.response_times_ms &&
                  run.objective_cents == first.objective_cents,
              "sim: repeated runs of one trace disagree");
    if (run.epoch_starts_s.empty()) continue;
    spans_ms.push_back(
        epoch_spans_ms(run.epoch_starts_s, run.started_s + run.wall_s));
    walls_ms.push_back(mean(spans_ms.back()));
    clocks_ghz.push_back(run.clock_ghz);
  }
  out.check(!walls_ms.empty(), "sim: no epoch ran");
  const double clock_ghz = median(clocks_ghz);
  const double setup_s =
      at_reference_clock(median(measurement.setup_s), clock_ghz);
  const std::vector<double> fastest_ms = per_epoch_min(spans_ms);
  // The last span also holds the run's wind-down (ring drain, metering),
  // so the per-epoch percentiles leave it out.
  std::vector<double> epoch_ms = scaled(fastest_ms, clock_ghz);
  const double wall_ms = mean(epoch_ms);
  if (!epoch_ms.empty()) epoch_ms.pop_back();

  SimSummary summary;
  summary.first = &first;
  summary.typical_epoch_ms = median(walls_ms);
  const std::size_t runs = measurement.runs.size();
  out.end_to_end = {
      {"setup_s", setup_s, "s",
       "EdrSystem with an empty trace, at the reference clock, median, " +
           samples(measurement.setup_s.size())},
      {"epoch_wall_ms", wall_ms, "ms",
       "first epoch start -> run end / epochs, at the reference clock, "
       "fastest repeat of each epoch over " +
           samples(runs) + " runs of " + std::to_string(report.epochs) +
           " epochs"},
      {"epoch_p50_ms", percentile_of(epoch_ms, 50.0), "ms",
       "between consecutive epoch starts, " + samples(epoch_ms.size())},
      {"epoch_p95_ms", percentile_of(epoch_ms, 95.0), "ms",
       samples(epoch_ms.size())},
      {"response_p50_ms", edr::percentile(report.response_times_ms, 50.0),
       "ms", "simulated decision latency, " +
                 samples(report.response_times_ms.size())},
      {"response_p99_ms", edr::percentile(report.response_times_ms, 99.0),
       "ms", samples(report.response_times_ms.size())},
      {"active_cost_mcents", report.total_active_cost * 1e3, "mcents",
       "metered active energy cost"},
      {"objective_mcents", first.objective_cents * 1e3, "mcents",
       "sum of per-epoch Problem::total_cost"},
      {"peak_rss_mb", measurement.peak_rss_mb, "MB",
       "high-water mark after the first run"},
  };
  out.info.push_back({"failed_share",
                      static_cast<double>(trace_size - report.requests_served) /
                          static_cast<double>(trace_size),
                      "share", "requests not served / requests in the trace"});
  out.info.push_back({"epoch_wall_unscaled_ms", mean(fastest_ms), "ms",
                      "epoch_wall_ms before clock scaling"});
  out.info.push_back({"host_clock_ghz", clock_ghz, "GHz",
                      "core clock estimate, median around every repeat"});
  out.info.push_back({"epochs", static_cast<double>(report.epochs), "count",
                      "per run"});
  out.info.push_back({"rounds", static_cast<double>(report.total_rounds),
                      "count", "per run"});
  return summary;
}

// ---------- end to end: live runtime ----------

/// Active energy cost of the live allocations' transfers, metered offline
/// the way the simulator meters its own: each replica pushes its column
/// over the transfer window starting at the epoch's closing boundary.  The
/// live runtime has no meter of its own, and this omits the selection
/// (solve) activity the simulator also bills.
double live_transfer_cost_cents(const edr::runtime::LiveConfig& cfg,
                                const edr::runtime::LiveRunResult& result) {
  const edr::power::PowerModel model{cfg.power};
  const double window = cfg.epoch_length * cfg.transfer_window_fraction;
  std::vector<edr::power::ActivityTimeline> timelines(cfg.num_replicas());
  for (const auto& epoch : result.epochs) {
    const double at = static_cast<double>(epoch.epoch + 1) * cfg.epoch_length;
    for (std::size_t col = 0; col < epoch.participants.size(); ++col) {
      if (col >= epoch.allocation.cols()) break;
      const std::size_t n = epoch.participants[col];
      const double load = epoch.allocation.col_sum(col);
      if (load <= 1e-9) continue;
      const double bandwidth = cfg.replicas[n].bandwidth;
      const double capacity = bandwidth * window;
      const double duration = load <= capacity ? window : load / bandwidth;
      timelines[n].set(at, edr::power::Activity::kTransfer,
                       std::min(load / capacity, 1.0));
      timelines[n].set(at + duration, edr::power::Activity::kIdle, 0.0);
    }
  }
  const double horizon = static_cast<double>(cfg.epochs + 2) * cfg.epoch_length;
  double cents = 0.0;
  for (std::size_t n = 0; n < timelines.size(); ++n)
    cents += edr::energy_cost(
        edr::power::integrate_active_energy(model, timelines[n], horizon),
        cfg.replicas[n].price);
  return cents;
}

struct LiveSummary {
  /// Mean LiveEpochResult::wall_ms over every run (see SimSummary).
  double typical_epoch_ms = 0.0;
  const edr::runtime::LiveRunResult* first = nullptr;
};

LiveSummary live_end_to_end(const Inputs& inputs, double seconds,
                            LiveMeasurement& measurement, Outcome& out) {
  const auto& cfg = inputs.live;
  measurement = measure_live(cfg, seconds);
  const auto& first = measurement.runs.front().result;

  // The epoch problems, built as every replica builds them, to check the
  // assembled allocations against.
  std::vector<EpochBatch> batches;
  {
    EpochBuilder builder(inputs.system, inputs.requests, Schedule::kLive,
                         cfg.epochs);
    EpochBatch batch;
    while (builder.next(batch, edr::telemetry::disabled_tracer()))
      batches.push_back(batch);
  }
  std::vector<std::vector<double>> spans_ms, epoch_walls_ms;
  double epoch_ms_sum = 0.0;
  std::size_t epoch_ms_count = 0;
  for (const LiveRun& run : measurement.runs) {
    const auto& result = run.result;
    out.attempted += cfg.epochs;
    out.check(result.completed, "live: run did not complete");
    std::size_t good = 0;
    auto& walls = epoch_walls_ms.emplace_back();
    for (std::size_t e = 0; e < result.epochs.size() && e < batches.size();
         ++e) {
      const auto& epoch = result.epochs[e];
      const auto& batch = batches[e];
      const bool feasible =
          batch.problem ? allocation_feasible(*batch.problem, epoch.allocation)
                        : epoch.allocation.rows() == 0;
      const bool same = e < first.epochs.size() &&
                        epoch.digest == first.epochs[e].digest &&
                        epoch.rounds == first.epochs[e].rounds;
      out.check(epoch.epoch == e, "live: epochs out of order");
      out.check(epoch.digests_agree, "live: replica digests disagree");
      out.check(feasible, "live: an allocation misses demand or capacity");
      out.check(same, "live: repeated runs of one config disagree");
      if (epoch.epoch == e && epoch.digests_agree && feasible) ++good;
      walls.push_back(epoch.wall_ms);
      epoch_ms_sum += epoch.wall_ms;
      ++epoch_ms_count;
    }
    out.failed += cfg.epochs - good;
    spans_ms.push_back(
        epoch_spans_ms(run.epoch_starts_s, run.started_s + run.wall_s));
  }
  // Every run's clock also entered setup_clock_ghz.
  const double clock_ghz = median(measurement.setup_clock_ghz);
  const double setup_s =
      at_reference_clock(median(measurement.setup_s), clock_ghz);
  const std::vector<double> epoch_ms =
      scaled(per_epoch_min(epoch_walls_ms), clock_ghz);
  const double unscaled_wall_ms = mean(per_epoch_min(spans_ms));
  const double wall_ms = at_reference_clock(unscaled_wall_ms, clock_ghz);
  // A request waits for its epoch's closing boundary, then for the epoch.
  std::vector<double> response_ms;
  for (const auto& request : inputs.requests) {
    const auto e = static_cast<std::size_t>(request.arrival / cfg.epoch_length);
    if (e >= epoch_ms.size()) continue;
    const double boundary = static_cast<double>(e + 1) * cfg.epoch_length;
    response_ms.push_back((boundary - request.arrival) * 1e3 + epoch_ms[e]);
  }

  LiveSummary summary;
  summary.first = &first;
  summary.typical_epoch_ms = ratio(epoch_ms_sum, epoch_ms_count);
  double objective = 0.0;
  for (const auto& epoch : first.epochs) objective += epoch.objective;
  const std::size_t runs = measurement.runs.size();
  out.end_to_end = {
      {"setup_s", setup_s, "s",
       "LocalCluster construction -> first epoch start, at the reference "
       "clock, median, " +
           samples(measurement.setup_s.size())},
      {"epoch_wall_ms", wall_ms, "ms",
       "first epoch start -> run end / epochs, at the reference clock, "
       "fastest repeat of each epoch over " +
           samples(runs) + " runs of " + std::to_string(cfg.epochs) +
           " epochs"},
      {"epoch_p50_ms", percentile_of(epoch_ms, 50.0), "ms",
       "LiveEpochResult::wall_ms at the reference clock, " +
           samples(epoch_ms.size())},
      {"epoch_p95_ms", percentile_of(epoch_ms, 95.0), "ms",
       samples(epoch_ms.size())},
      {"response_p50_ms", percentile_of(response_ms, 50.0), "ms",
       "wait for the epoch boundary + epoch wall, " +
           samples(response_ms.size())},
      {"response_p99_ms", percentile_of(response_ms, 99.0), "ms",
       samples(response_ms.size())},
      {"active_cost_mcents", live_transfer_cost_cents(cfg, first) * 1e3,
       "mcents", "transfers of the live allocations, metered offline"},
      {"objective_mcents", objective * 1e3, "mcents",
       "sum of LiveEpochResult::objective"},
      {"peak_rss_mb", measurement.peak_rss_mb, "MB",
       "high-water mark after the first run"},
  };
  out.info.push_back(
      {"failed_share",
       static_cast<double>(out.failed) / static_cast<double>(out.attempted),
       "share", "epochs incomplete, disagreeing or infeasible / configured"});
  out.info.push_back({"epoch_wall_unscaled_ms", unscaled_wall_ms, "ms",
                      "epoch_wall_ms before clock scaling"});
  out.info.push_back({"host_clock_ghz", clock_ghz, "GHz",
                      "core clock estimate, median around every repeat"});
  out.info.push_back({"epochs", static_cast<double>(first.epochs.size()),
                      "count", "per run"});
  out.info.push_back({"rounds", static_cast<double>(first.total_rounds),
                      "count", "per run"});
  return summary;
}

// ---------- per layer ----------

struct EndToEndView {
  Substrate substrate = Substrate::kSim;
  /// Typical wall per epoch, which the residuals are taken from.
  double epoch_ms = 0.0;
  const SimRun* sim = nullptr;
  const edr::runtime::LiveRunResult* live = nullptr;
};

void per_layer(const Inputs& inputs,
               const EndToEndView& e2e, Outcome& out) {
  const bool live = e2e.substrate == Substrate::kLive;
  ReplayOptions options;
  options.schedule = live ? Schedule::kLive : Schedule::kPipeline;
  options.live_epochs = inputs.live.epochs;

  // Alternate spans off / on (up to three pairs, fewer when a pass is
  // slow); the per-layer split averages the "on" passes, the overhead
  // compares the fastest pass of each kind.
  edr::telemetry::EventTracer tracer{1u << 18};
  tracer.set_clock(steady_seconds);
  std::map<std::string, double> spans;
  std::vector<double> off_s, on_s;
  std::vector<ReplayResult> passes;
  const double began = steady_seconds();
  do {
    options.tracer = nullptr;
    passes.push_back(replay(inputs.system, inputs.requests, options));
    off_s.push_back(passes.back().wall_s);
    tracer.clear();
    options.tracer = &tracer;
    passes.push_back(replay(inputs.system, inputs.requests, options));
    on_s.push_back(passes.back().wall_s);
    for (const auto& [name, seconds] : span_seconds(tracer))
      spans[name] += seconds;
  } while (on_s.size() < 3 && steady_seconds() - began < 2.0);
  for (auto& [name, seconds] : spans)
    seconds /= static_cast<double>(on_s.size());
  options.tracer = nullptr;
  options.probes = true;
  passes.push_back(replay(inputs.system, inputs.requests, options));
  const ReplayResult& probe = passes.back();
  const Probes& p = probe.probes;

  // Faithfulness: every pass, and the end-to-end run, took the same rounds.
  std::size_t solved = 0, rounds = 0, capped = 0;
  for (const auto& epoch : probe.epochs) {
    if (!epoch.solved) continue;
    ++solved;
    rounds += epoch.rounds;
    capped += epoch.capped ? 1 : 0;
  }
  for (const auto& pass : passes) {
    bool same = pass.epochs.size() == probe.epochs.size();
    for (std::size_t e = 0; same && e < pass.epochs.size(); ++e)
      same = pass.epochs[e].rounds == probe.epochs[e].rounds &&
             pass.epochs[e].digest == probe.epochs[e].digest;
    out.check(same, "replay: passes disagree");
  }
  if (live) {
    const auto& result = *e2e.live;
    bool match = result.epochs.size() == probe.epochs.size();
    for (std::size_t e = 0; match && e < probe.epochs.size(); ++e)
      match = result.epochs[e].rounds == probe.epochs[e].rounds &&
              result.epochs[e].digest == probe.epochs[e].digest;
    out.check(match, "replay: rounds or digests != the live run's");
  } else {
    const auto& report = e2e.sim->report;
    out.check(solved == report.epochs && rounds == report.total_rounds,
              "replay: rounds != RunReport::total_rounds");
  }
  out.check(p.delivered == p.messages,
            "net: a planned round message was not delivered");
  out.info.push_back({"replay_rounds", static_cast<double>(rounds), "count",
                      "equal to the end-to-end run's (checked)"});

  const double E = static_cast<double>(std::max<std::size_t>(1, solved));
  const double R = static_cast<double>(std::max<std::size_t>(1, rounds));
  const auto per_epoch_ms = [&](const char* name) {
    return spans[name] / E * 1e3;
  };
  const double build_ms = per_epoch_ms("build");
  const double plan_ms = per_epoch_ms("plan");
  const double solve_ms =
      per_epoch_ms("begin") + per_epoch_ms("step") + per_epoch_ms("extract");
  const double deliver_ms = ratio(p.deliver_s, p.delivery_epochs) * 1e3;
  const double codec_ms = (p.round_codec_s + p.epoch_done_codec_s) / E * 1e3;

  // Traffic per epoch: the simulator's control counters, or the live
  // frames (a kRound per round per replica pair, a kStart and a kEpochDone
  // per replica).
  double messages = 0.0, bytes = 0.0;
  if (live) {
    const double replicas = static_cast<double>(inputs.live.num_replicas());
    const double round_frame =
        ratio(static_cast<double>(p.round_bytes), p.round_frames);
    const double done_frame =
        ratio(static_cast<double>(p.epoch_done_bytes), p.epoch_done_frames);
    const double epochs = static_cast<double>(e2e.live->epochs.size());
    const double round_frames =
        static_cast<double>(e2e.live->total_rounds) * replicas *
        (replicas - 1.0);
    messages = (round_frames + 2.0 * replicas * epochs) / epochs;
    bytes = (round_frames * round_frame +
             replicas * epochs * (done_frame + p.start_bytes)) /
            epochs;
  } else {
    const auto& report = e2e.sim->report;
    messages = static_cast<double>(report.control_messages) /
               static_cast<double>(report.epochs);
    bytes = static_cast<double>(report.control_bytes) /
            static_cast<double>(report.epochs);
  }

  // The live wire codec on this workload's LiveConfig.
  std::vector<double> config_s;
  std::size_t config_bytes = 0;
  for (int i = 0; i < 3; ++i) {
    const double start = steady_seconds();
    const auto msg = edr::runtime::encode_config(0, 1, inputs.live);
    const auto decoded =
        edr::runtime::decode_config(msg, kClusterDefaults.max_frame_bytes);
    config_s.push_back(steady_seconds() - start);
    config_bytes = msg.bytes;
    out.check(decoded.requests.size() == inputs.live.requests.size(),
              "runtime: LiveConfig codec lost requests");
  }

  // Derived: epoch wall minus the replayed layers on the blocking path.
  // Live: each replica builds and solves, then waits at the barrier; what
  // the replay does not account for is barrier wait, transport and the
  // coordinator.  Simulator: build, plan and solve, then the simulated
  // exchange (net) and everything else in the EpochPipeline, power and
  // cluster ring.
  const double sync_ms = live ? e2e.epoch_ms - build_ms - solve_ms - codec_ms
                              : e2e.epoch_ms - build_ms - solve_ms - plan_ms;
  const double residual_ms = live ? sync_ms : sync_ms - deliver_ms;
  const double off = *std::min_element(off_s.begin(), off_s.end());
  const double on = *std::min_element(on_s.begin(), on_s.end());

  out.per_layer = {
      {"core.rounds_per_epoch", R / E, "count",
       samples(solved) + " epochs"},
      {"core.round_cap_share", static_cast<double>(capped) / E, "share",
       std::to_string(capped) + " epochs at max_rounds"},
      {"core.step_round_us", spans["step"] / R * 1e6, "us",
       "DistributedAlgorithm::step_round"},
      {"core.plan_round_us", spans["plan"] / R * 1e6, "us",
       "DistributedAlgorithm::plan_round"},
      {"core.begin_epoch_ms", per_epoch_ms("begin"), "ms", "begin_epoch"},
      {"core.extract_ms", per_epoch_ms("extract"), "ms", "extract_allocation"},
      {"core.solve_ms_per_epoch", solve_ms, "ms",
       "begin + step_round x rounds + extract"},
      {"core.problem_build_ms", build_ms, "ms",
       "make_epoch_problem + shed_to_feasible"},
      {"core.aggregate_ms", p.aggregate_s / E * 1e3, "ms",
       "build_client_aggregation + aggregate_problem"},
      {"core.expand_ms", p.expand_s / E * 1e3, "ms", "expand_allocation"},
      {"core.classes_per_epoch", static_cast<double>(p.classes) / E, "count",
       "client equivalence classes"},
      {"net.messages_per_epoch", messages, "count",
       live ? "live frames" : "RunReport::control_messages / epochs"},
      {"net.control_bytes_per_epoch", bytes, "bytes",
       live ? "live frame bytes" : "RunReport::control_bytes / epochs"},
      {"net.deliver_us_per_msg", ratio(p.deliver_s, p.messages) * 1e6, "us",
       "planned round messages through a standalone SimNetwork"},
      {"net.events_per_epoch",
       ratio(static_cast<double>(p.events), p.delivery_epochs), "count",
       "simulator events of that delivery, first " +
           std::to_string(p.delivery_epochs) + " epochs"},
      {"core.pipeline_residual_ms", residual_ms, "ms",
       live ? "derived: equals runtime.sync_overhead_ms (no simulator)"
            : "derived: epoch wall - build - plan - solve - net deliver"},
      {"runtime.config_bytes", static_cast<double>(config_bytes), "bytes",
       "encoded LiveConfig"},
      {"runtime.config_codec_ms", median(config_s) * 1e3, "ms",
       "encode_config + decode_config"},
      {"runtime.round_codec_us", ratio(p.round_codec_s, p.round_frames) * 1e6,
       "us", "encode_round + decode_round"},
      {"runtime.epoch_done_codec_us",
       ratio(p.epoch_done_codec_s, p.epoch_done_frames) * 1e6, "us",
       "encode_epoch_done + decode_epoch_done"},
      {"runtime.epoch_done_bytes",
       ratio(static_cast<double>(p.epoch_done_bytes), p.epoch_done_frames),
       "bytes", "one replica's column"},
      {"runtime.sync_overhead_ms", sync_ms, "ms",
       live ? "derived: epoch wall - build - solve - codec"
            : "derived: epoch wall - build - plan - solve"},
      {"telemetry.span_overhead_pct", (on - off) / off * 100.0, "%",
       "replay with spans on vs off"},
  };
}

// ---------- output ----------

void print_metrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("# %s\n", title);
  for (const auto& m : metrics)
    std::printf("%-28s %16.6f %-7s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
}

void write_metrics(edr::JsonWriter& json, const std::vector<Metric>& metrics) {
  json.begin_object();
  for (const auto& m : metrics) {
    json.key(m.name).begin_object();
    json.field("value", m.value);
    json.field("unit", m.unit);
    json.end_object();
  }
  json.end_object();
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

/// What the numbers were measured on.
void write_host(edr::JsonWriter& json, const std::string& source) {
  json.begin_object();
  json.field("nproc",
             static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  json.field("simd_auto_isa", edr::common::simd::active_isa());
  json.field("compiler", compiler());
  json.field("build_type", EDR_PERFBENCH_BUILD_TYPE);
  json.field("source", source);
  json.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::uint64_t trace = 0;
  std::string source = "unknown";
  bool list = false;
  edr::ArgParser parser{"edr_perfbench",
                        "end-to-end epoch benchmark (see perfbench/NOTES.md)"};
  parser.add_option("workload", "workload name (see --list)", &workload_name);
  parser.add_option("seed", "seed of the link latencies and the demand",
                    &seed);
  parser.add_option("seconds", "how long the end-to-end runs measure",
                    &seconds);
  parser.add_option("trace", "1 = also replay per layer and report that",
                    &trace);
  parser.add_option("source", "source revision for the host block", &source);
  parser.add_flag("list", "print the workloads and exit", &list);
  if (!parser.parse(argc, argv, std::cerr))
    return parser.help_requested() ? 0 : 2;
  if (list) {
    for (const auto& w : workloads()) std::printf("%s\n", w.name);
    return 0;
  }
  const Workload* workload = find_workload(workload_name);
  if (workload == nullptr || trace > 1 || !(seconds > 0.0)) {
    std::fprintf(stderr,
                 "edr_perfbench: need --workload <name> (see --list), "
                 "--seconds > 0 and --trace 0|1\n");
    return 2;
  }

  Outcome out;
  const double clock_before_ghz = core_clock_ghz();
  try {
    const Inputs inputs = make_inputs(*workload, seed);
    EndToEndView view;
    view.substrate = workload->substrate;
    SimMeasurement sim;
    LiveMeasurement live;
    if (workload->substrate == Substrate::kSim) {
      const SimSummary summary = sim_end_to_end(inputs, seconds, sim, out);
      view.epoch_ms = summary.typical_epoch_ms;
      view.sim = summary.first;
    } else {
      const LiveSummary summary = live_end_to_end(inputs, seconds, live, out);
      view.epoch_ms = summary.typical_epoch_ms;
      view.live = summary.first;
    }
    if (trace == 1) per_layer(inputs, view, out);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "edr_perfbench: %s\n", error.what());
    return 1;
  }
  out.info.push_back({"host_clock_start_ghz", clock_before_ghz, "GHz",
                      "core clock estimate before the run"});
  out.info.push_back({"host_clock_end_ghz", core_clock_ghz(), "GHz",
                      "core clock estimate after the run"});
  for (const auto* group : {&out.end_to_end, &out.per_layer, &out.info})
    for (const auto& m : *group)
      out.check(std::isfinite(m.value), "non-finite metric " + m.name);

  std::printf("# workload %s seed %llu seconds %g trace %llu\n",
              workload->name, static_cast<unsigned long long>(seed), seconds,
              static_cast<unsigned long long>(trace));
  print_metrics("end to end (tracing off)", out.end_to_end);
  if (trace == 1) print_metrics("per layer (replay)", out.per_layer);
  print_metrics("facts", out.info);
  for (const auto& failure : out.failures)
    std::printf("# CHECK FAILED: %s\n", failure.c_str());

  edr::JsonWriter host;
  write_host(host, source);
  std::printf("# host %s\n", host.str().c_str());

  const bool correct = out.failures.empty();
  edr::JsonWriter record;
  record.begin_object();
  record.field("workload", workload->name);
  record.field("seed", seed);
  record.field("seconds", seconds);
  record.field("trace", trace);
  record.field("correct", correct);
  record.key("host");
  write_host(record, source);
  record.key("end_to_end");
  write_metrics(record, out.end_to_end);
  record.key("per_layer");
  write_metrics(record, out.per_layer);
  record.key("info");
  write_metrics(record, out.info);
  record.end_object();
  std::printf("BENCH_RECORD %s\n", record.str().c_str());

  edr::JsonWriter result;
  result.begin_object();
  result.field("correct", correct);
  result.field("attempted", out.attempted);
  result.field("failed", out.failed);
  result.key("metrics");
  write_metrics(result, trace == 1 ? out.per_layer : out.end_to_end);
  result.end_object();
  std::printf("%s\n", result.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 3;
}
