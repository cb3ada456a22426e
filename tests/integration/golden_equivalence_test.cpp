// Golden-equivalence regression for the DistributedAlgorithm refactor.
//
// The digests below were captured from the pre-refactor runtime (the
// monolithic EdrSystem::Impl with per-algorithm switches, and DonarSystem's
// private event loop) and are asserted against the strategy-based
// EpochPipeline.  Byte-identical means the refactor changed ZERO observable
// behavior: the JSON run report, every response-time double (bit pattern),
// and the full telemetry metrics JSONL (counter registration order, values,
// histogram buckets) are all unchanged, for every backend.
//
// If an intentional behavior change ever lands, re-capture: build this same
// configuration, print the digests (see golden_digest helpers), and update
// the table — with a commit message explaining the behavioral delta.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <ostream>
#include <string>
#include <vector>

#include "analysis/experiments.hpp"
#include "analysis/report_json.hpp"
#include "baselines/donar_system.hpp"
#include "optim/instance.hpp"
#include "telemetry/export.hpp"
#include "telemetry/telemetry.hpp"
#include "workload/apps.hpp"

namespace edr {
namespace {

// --- FNV-1a 64-bit, applied to bytes, strings, and double bit patterns ---

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t fnv1a(const void* data, std::size_t len,
                    std::uint64_t h = kFnvOffset) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t digest_string(const std::string& s) {
  return fnv1a(s.data(), s.size());
}

std::uint64_t digest_doubles(const std::vector<double>& v) {
  std::uint64_t h = kFnvOffset;
  for (const double d : v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    h = fnv1a(&bits, sizeof bits, h);
  }
  return h;
}

// --- the pinned configurations ---

struct EdrGolden {
  const char* algorithm;
  bool record_traces;
  std::uint64_t report_digest;
  std::uint64_t responses_digest;
  std::uint64_t metrics_digest;
};

// Captured from the pre-refactor build: paper_config(alg, seed=7), dfs
// trace (seed 42, 12 s horizon), telemetry attached.
constexpr EdrGolden kEdrGoldens[] = {
    {"lddm", false, 0xd9cc954e80490635ull, 0x7239ae04e2198582ull,
     0x2d08de1b7d3df556ull},
    {"cdpsm", false, 0x17a9feb67df31bdcull, 0xef29dbcbf6592f3aull,
     0x2cc5e5f07e327606ull},
    {"rr", false, 0xd95ccc0be8b457e6ull, 0x2ac34dabc94f8653ull,
     0xa6f3d4cc79d66cedull},
    // Re-pinned when central moved to the exact max-flow solver: any
    // allocation with the optimal loads is optimal, and it picks another.
    {"central", false, 0xc64b8b04c45618c6ull, 0xc72c8429785880a6ull,
     0x61a0fd878a346e93ull},
    // Power traces on: exercises sample_trace + the meter counters.
    {"lddm", true, 0x46e2bd77fab6abcdull, 0x7239ae04e2198582ull,
     0x670508e01e38a6f5ull},
};

// Prints "<algorithm>,<record_traces as 0|1>".  Without it gtest prints the
// struct's raw bytes into each test name, and the leading `algorithm`
// pointer makes those bytes depend on the build.
void PrintTo(const EdrGolden& golden, std::ostream* os) {
  *os << golden.algorithm << ',' << (golden.record_traces ? 1 : 0);
}

class GoldenEquivalence : public ::testing::TestWithParam<EdrGolden> {};

TEST_P(GoldenEquivalence, RunReportAndTelemetryAreByteIdentical) {
  const EdrGolden& golden = GetParam();
  auto cfg = analysis::paper_config(golden.algorithm, 7);
  cfg.record_traces = golden.record_traces;
  cfg.telemetry = telemetry::make_telemetry();
  core::EdrSystem system(
      cfg, analysis::paper_trace(workload::distributed_file_service(), 42,
                                 12.0));
  const auto report = system.run();

  const auto json = analysis::report_to_json(report, golden.algorithm);
  EXPECT_EQ(digest_string(json), golden.report_digest)
      << "report JSON diverged for " << golden.algorithm;
  EXPECT_EQ(digest_doubles(report.response_times_ms), golden.responses_digest)
      << "response-time bit patterns diverged for " << golden.algorithm;
  const auto jsonl = telemetry::metrics_to_jsonl(cfg.telemetry->metrics());
  EXPECT_EQ(digest_string(jsonl), golden.metrics_digest)
      << "telemetry metrics JSONL diverged for " << golden.algorithm;
}

INSTANTIATE_TEST_SUITE_P(
    Backends, GoldenEquivalence, ::testing::ValuesIn(kEdrGoldens),
    [](const auto& info) {
      return std::string(info.param.algorithm) +
             (info.param.record_traces ? "_traces" : "");
    });

// DONAR ran on its own hand-rolled event loop before the refactor; this
// pins its re-host onto the shared EpochPipeline, down to the bit patterns
// of every response time and the makespan.
TEST(GoldenEquivalence, DonarPipelineRehostIsByteIdentical) {
  baselines::DonarSystemConfig cfg;
  cfg.replicas = optim::paper_replica_set();
  cfg.num_clients = 6;
  cfg.seed = 5;
  Rng rng{99};
  workload::TraceOptions options;
  options.num_clients = cfg.num_clients;
  options.horizon = 10.0;
  auto trace = workload::Trace::generate(
      rng, workload::distributed_file_service(), options);
  baselines::DonarSystem system(cfg, std::move(trace));
  const auto report = system.run();

  std::string blob;
  blob += "epochs=" + std::to_string(report.epochs);
  blob += " rounds=" + std::to_string(report.total_rounds);
  blob += " served=" + std::to_string(report.requests_served);
  blob += " msgs=" + std::to_string(report.control_messages);
  blob += " bytes=" + std::to_string(report.control_bytes);
  EXPECT_EQ(blob,
            "epochs=10 rounds=1222 served=202 msgs=7588 bytes=505096");
  std::uint64_t h = digest_string(blob);
  std::uint64_t bits = 0;
  std::memcpy(&bits, &report.makespan, sizeof bits);
  h = fnv1a(&bits, sizeof bits, h);
  EXPECT_EQ(h, 0x4427286b26cf99eeull) << "summary/makespan diverged";
  EXPECT_EQ(report.response_times_ms.size(), 202u);
  EXPECT_EQ(digest_doubles(report.response_times_ms),
            0x27586f7600e821a9ull)
      << "DONAR response-time bit patterns diverged";
}

}  // namespace
}  // namespace edr
