// perfbench: runs one workload for a host-time budget and prints its
// metrics as one JSON line (perfbench/run.py builds this binary, adds units
// from BENCHMARK.json and prints the benchmark's result line).
//
//   perfbench --workload=NAME --seed=N --seconds=S --trace=0|1
//             [--scale=X] [--trace-out=PATH]
//   perfbench --selftest
//
// A run repeats identical rounds (workloads.h) while another round fits in
// the budget, and at least three times. Between rounds it times a reference
// kernel (reference.h), scales each round's host times to nominal machine
// speed, and reports them as medians over rounds.
// Every round of a run must produce the same simulated-results digest, or the
// run is incorrect.
//
// --trace=0 reports the end-to-end metrics from untraced rounds. --trace=1
// alternates untraced and traced rounds and reports the per-layer metrics;
// on sharded_scaleout it also runs untraced rounds on min(4, nproc) threads,
// for the speedup. Every other round runs on one thread.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/reference.h"
#include "perfbench/src/trace.h"
#include "perfbench/src/workloads.h"

namespace perfbench {
namespace {

// Per-layer metrics a traced run reports; layers a workload does not
// exercise report 0.
const std::vector<std::string>& PerLayerNames() {
  static const std::vector<std::string> names = {
      "sim.events_per_op",
      "sim.host_ns_per_event",
      "sim.self_s",
      "sim.cluster_busy_frac",
      "sim.cluster_write_ops_per_client_write",
      "sim_domain.windows",
      "sim_domain.events_per_window",
      "sim_domain.sync_stalls",
      "sim_domain.messages",
      "sim_domain.speedup",
      "blockdev.ssd.write_ops_per_client_write",
      "blockdev.ssd.write_bytes",
      "blockdev.ssd.read_ops",
      "blockdev.ssd.flushes",
      "blockdev.ssd.seq_write_frac",
      "workload.gen_s",
      "lsvd.write_call_s",
      "lsvd.read_call_s",
      "lsvd.write_ack_us.p50",
      "lsvd.write_ack_us.p99",
      "lsvd.read_route.write_cache_frac",
      "lsvd.read_route.read_cache_frac",
      "lsvd.read_route.backend_frac",
      "write_cache.records",
      "write_cache.bytes_per_record",
      "write_cache.checkpoints",
      "write_cache.stalled_appends",
      "write_cache.append_to_free_us.p99",
      "read_cache.hit_ratio",
      "read_cache.insertions",
      "read_cache.evictions",
      "backend.objects_put",
      "backend.bytes_per_object",
      "backend.seal_to_commit_us.p99",
      "backend.gc.bytes_moved_per_client_byte",
      "backend.gc.objects_cleaned",
      "backend.utilization",
      "objstore.puts",
      "objstore.gets",
      "objstore.put_call_s",
      "objstore.get_call_s",
      "objstore.put_us.p99",
      "objstore.get_us.p99",
      "baseline.bcache.write_call_s",
      "baseline.bcache.writeback_ops",
      "baseline.bcache.journal_writes",
      "baseline.bcache.dirty_bytes",
      "baseline.rbd.calls",
      "baseline.rbd.call_s",
      "baseline.rbd.us.p99",
      "trace.overhead_frac",
      "process.peak_rss_mb",
      "op_fail_ratio",
  };
  return names;
}

std::string Arg(int argc, char** argv, const std::string& flag,
                const std::string& fallback) {
  const std::string prefix = "--" + flag + "=";
  for (int i = 1; i < argc; i++) {
    const std::string a = argv[i];
    if (a.rfind(prefix, 0) == 0) {
      return a.substr(prefix.size());
    }
  }
  return fallback;
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

int ParallelThreads() {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  return static_cast<int>(std::min(4u, hw));
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 uint64_t digest, size_t rounds,
                 const std::map<std::string, double>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"digest\": \"%016llx\", \"rounds\": %zu, \"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(digest), rounds);
  bool first = true;
  for (const auto& [name, value] : metrics) {
    std::printf("%s\"%s\": %.17g", first ? "" : ", ", name.c_str(), value);
    first = false;
  }
  std::printf("}}\n");
}

struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<uint64_t> digests;

  void Add(const RoundResult& r) {
    attempted += r.attempted;
    failed += r.failed;
    digests.push_back(r.digest);
  }
  bool consistent() const {
    return std::all_of(digests.begin(), digests.end(),
                       [&](uint64_t d) { return d == digests.front(); });
  }
};

// Keeps the calling thread on the core it runs on now, so that the reference
// kernel and the rounds it corrects run on the same core.
void PinToCurrentCore() {
  const int cpu = sched_getcpu();
  if (cpu < 0) {
    return;
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

// Runs one round between two runs of the reference kernel and scales each
// phase's host time to the nominal machine, by the kernel time interpolated
// linearly to the middle of the phase.
// `last` holds the kernel time measured after the previous round (0: none
// yet), which serves as this round's "before".
RoundResult RunCorrectedRound(Workload workload, uint64_t seed,
                              const RoundOptions& options, double* last) {
  const double before = *last > 0 ? *last : RunReferenceKernel();
  const int64_t start = HostNowNs();
  RoundResult r = RunRound(workload, seed, options);
  const double round_s = static_cast<double>(HostNowNs() - start) * 1e-9;
  const double after = RunReferenceKernel();
  *last = after;
  std::fprintf(stderr, "perfbench: round: setup %.4f s, load %.4f s, "
               "recovery %.4f s of %.4f s; reference kernel %.4f s / %.4f s\n",
               r.setup_s, r.load_s, r.recovery_s, round_s, before, after);
  // Nominal over measured kernel time, `at` host seconds into the round.
  auto factor = [&](double at) {
    const double w = std::clamp(at / round_s, 0.0, 1.0);
    return kReferenceNominalS / (before + (after - before) * w);
  };
  const double load = factor(r.setup_s + r.load_run_s / 2);
  r.setup_s *= factor(r.setup_s / 2);
  r.load_s *= load;
  r.load_run_s *= load;
  // Recovery ends with the round.
  r.recovery_s *= factor(round_s - r.recovery_s / 2);
  for (auto& [name, value] : r.traced) {
    if (name.ends_with("_s")) {
      value *= load;
    }
  }
  return r;
}

int Run(Workload workload, uint64_t seed, double seconds, bool trace,
        double scale, const std::string& trace_out) {
  const bool sharded = workload == Workload::kShardedScaleout;
  RoundOptions untraced;
  untraced.scale = scale;
  RoundOptions parallel = untraced;
  parallel.threads = ParallelThreads();
  RoundOptions traced = untraced;
  traced.traced = true;

  // Each cycle is one round, or with --trace=1 one round of every variant.
  // End-to-end rounds run on one thread: on a shared host, min(4, nproc)
  // spinning engine threads slow down by up to 4x when one core is busy
  // elsewhere, far beyond any bound (perfbench/README.md). The parallel
  // variant only runs for sim_domain.speedup and its digest.
  std::vector<RoundOptions> cycle = {untraced};
  if (trace) {
    if (sharded) {
      cycle.push_back(parallel);
    }
    cycle.push_back(traced);
  }
  constexpr size_t kMinCycles = 3;

  // The parallel variant's workers would inherit the pin.
  if (cycle.size() == 1 || !sharded) {
    PinToCurrentCore();
  }
  Tally tally;
  std::vector<RoundResult> results[3];
  const int64_t start = HostNowNs();
  size_t cycles = 0;
  // A cycle starts only if it should end within the budget, judged by the
  // longest cycle so far.
  double longest_s = 0;
  double last_reference = 0;
  auto elapsed_s = [start] {
    return static_cast<double>(HostNowNs() - start) * 1e-9;
  };
  while (cycles < kMinCycles || elapsed_s() + longest_s <= seconds) {
    const double cycle_start = elapsed_s();
    for (size_t k = 0; k < cycle.size(); k++) {
      results[k].push_back(
          RunCorrectedRound(workload, seed, cycle[k], &last_reference));
      tally.Add(results[k].back());
    }
    longest_s = std::max(longest_s, elapsed_s() - cycle_start);
    cycles++;
  }
  const bool correct = tally.failed == 0 && tally.consistent();
  const RoundResult& first = results[0].front();

  // The first round of each kind warms the allocator and the caches: it is
  // checked, but its host times are left out of the medians.
  auto median_of = [](const std::vector<RoundResult>& rs, auto field) {
    std::vector<double> v;
    for (size_t i = rs.size() > 1 ? 1 : 0; i < rs.size(); i++) {
      v.push_back(field(rs[i]));
    }
    return Median(v);
  };
  auto ops_per_s = [](const RoundResult& r) {
    return static_cast<double>(r.load_ops) / r.load_s;
  };

  std::map<std::string, double> m;
  if (!trace) {
    m = first.sim;
    m["host_ops_per_s"] = median_of(results[0], ops_per_s);
    m["setup_s"] = median_of(results[0], [](const RoundResult& r) {
      return r.setup_s;
    });
    m["recovery_s"] = median_of(results[0], [](const RoundResult& r) {
      return r.recovery_s;
    });
  } else {
    const std::vector<RoundResult>& traced_rounds = results[cycle.size() - 1];
    for (const std::string& name : PerLayerNames()) {
      m[name] = 0.0;
    }
    for (const auto& [name, value] : first.layer) {
      m[name] = value;
    }
    for (const auto& [name, value] : traced_rounds.front().traced) {
      m[name] = median_of(traced_rounds, [&name](const RoundResult& r) {
        return r.traced.at(name);
      });
    }
    m["sim.host_ns_per_event"] =
        median_of(results[0], [](const RoundResult& r) {
          return r.load_run_s * 1e9 / static_cast<double>(r.load_events);
        });
    if (sharded) {
      auto run_s = [](const RoundResult& r) { return r.load_run_s; };
      m["sim_domain.speedup"] =
          median_of(results[0], run_s) / median_of(results[1], run_s);
    }
    // Against the untraced one-thread rounds.
    const double plain = median_of(results[0], ops_per_s);
    m["trace.overhead_frac"] =
        (plain - median_of(traced_rounds, ops_per_s)) / plain;
    m["process.peak_rss_mb"] = PeakRssMb();
    m["op_fail_ratio"] = static_cast<double>(tally.failed) /
                         static_cast<double>(std::max<uint64_t>(
                             1, tally.attempted));
    if (!trace_out.empty() &&
        !Tracer::Get().WriteChromeTrace(trace_out, 200000)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", trace_out.c_str());
    }
  }
  if (!tally.consistent()) {
    std::fprintf(stderr, "perfbench: simulated results differ between "
                         "rounds of one seed\n");
  }
  PrintResult(correct, tally.attempted, tally.failed,
              tally.digests.front(), tally.digests.size(), m);
  return 0;
}

// Self-tests of the benchmark's own machinery, at a small scale.
int SelfTest() {
  int failures = 0;
  auto expect = [&failures](bool ok, const std::string& what) {
    std::printf("%s %s\n", ok ? "PASS" : "FAIL", what.c_str());
    if (!ok) {
      failures++;
    }
  };
  constexpr double kScale = 0.02;
  constexpr uint64_t kSeed = 7;
  const auto& names = WorkloadNames();
  for (size_t i = 0; i < names.size(); i++) {
    const auto w = static_cast<Workload>(i);
    RoundOptions plain;
    plain.scale = kScale;
    plain.threads = w == Workload::kShardedScaleout ? ParallelThreads() : 1;
    RoundOptions traced = plain;
    traced.traced = true;
    const RoundResult a = RunRound(w, kSeed, plain);
    const RoundResult b = RunRound(w, kSeed, traced);
    expect(a.failed == 0 && a.attempted > 0, names[i] + ": no failed ops");
    expect(a.digest == b.digest,
           names[i] + ": decorators are pass-through (digest with spans on "
                      "== digest with spans off)");
    if (w == Workload::kShardedScaleout) {
      RoundOptions one = plain;
      one.threads = 1;
      expect(RunRound(w, kSeed, one).digest == a.digest,
             names[i] + ": digest at 1 thread == digest at " +
                 std::to_string(plain.threads) + " threads");
    }
  }
  RoundOptions corrupt;
  corrupt.scale = kScale;
  corrupt.corrupt_nth_read = 5;
  corrupt.corrupt_phase = CorruptPhase::kLoad;
  const RoundResult c = RunRound(Workload::kLsvdMixed, kSeed, corrupt);
  expect(c.failed > 0 && c.readback_failed == 0,
         "verifier catches one flipped byte in a read of a zero block");
  corrupt.corrupt_phase = CorruptPhase::kReadBack;
  const RoundResult lost = RunRound(Workload::kLsvdMixed, kSeed, corrupt);
  expect(lost.readback_failed > 0 && lost.failed == lost.readback_failed,
         "post-crash read-back catches one lost acknowledged write");
  std::printf("%d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  for (int i = 1; i < argc; i++) {
    if (std::string(argv[i]) == "--selftest") {
      return SelfTest();
    }
  }
  const auto workload = ParseWorkload(Arg(argc, argv, "workload", ""));
  if (!workload.has_value()) {
    std::fprintf(stderr, "perfbench: --workload must be one of:");
    for (const std::string& n : WorkloadNames()) {
      std::fprintf(stderr, " %s", n.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  const uint64_t seed = std::strtoull(Arg(argc, argv, "seed", "1").c_str(),
                                      nullptr, 10);
  const double seconds = std::atof(Arg(argc, argv, "seconds", "10").c_str());
  const bool trace = Arg(argc, argv, "trace", "0") == "1";
  const double scale = std::atof(Arg(argc, argv, "scale", "1").c_str());
  return Run(*workload, seed, seconds, trace, scale,
             Arg(argc, argv, "trace-out", ""));
}
