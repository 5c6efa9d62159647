#include "kernels/spmv.h"
#include "simd/caps.h"
#include "workload.h"

namespace perfbench {
namespace {

std::vector<WorkloadConfig> MakeWorkloads() {
  std::vector<WorkloadConfig> w;

  // Warm compute path: one request in flight on one request worker, every
  // request a fixed number of iterations. Each derived matrix is larger
  // than L2 and fits the shared L3.
  WorkloadConfig solve;
  solve.name = "solve-large";
  solve.nodes = 1 << 18;
  solve.edges = 4'000'000;
  solve.engine_threads = 1;
  solve.iterations = 10;
  w.push_back(solve);

  // Latency-bound serving: a cache-resident graph, each round a burst of
  // 1 PageRank + 1 HITS + 8 RWR in flight together on the default engine,
  // so per-query costs (admission, queue, coalescing window, scheduling,
  // SpMM panel amortisation) weigh most.
  WorkloadConfig burst;
  burst.name = "serve-burst";
  burst.nodes = 1 << 16;
  burst.edges = 1'000'000;
  burst.burst = true;
  burst.rwr_per_round = 8;
  burst.iterations = 10;
  burst.warmup_rounds = 5;
  w.push_back(burst);

  // Cold-plan path: every round loads a new graph from disk, re-registers
  // it and queries it once per kind. The plan cache is smaller than any
  // one plan, so each build evicts exactly the previous plan and every
  // fetch misses. The graphs are 1M edges, not 2M, so that a run holds
  // about 20 rounds instead of 8: cold rounds vary 15% run to run, and a
  // median of 8 moved with them.
  WorkloadConfig ingest;
  ingest.name = "graph-ingest";
  ingest.nodes = 1 << 16;
  ingest.edges = 1'000'000;
  ingest.ingest = true;
  ingest.ingest_files = 3;
  ingest.plan_cache_bytes = 1ULL << 20;
  ingest.iterations = 3;
  ingest.warmup_rounds = 1;
  w.push_back(ingest);
  return w;
}

const std::vector<WorkloadConfig>& Workloads() {
  static const std::vector<WorkloadConfig> w = MakeWorkloads();
  return w;
}

}  // namespace

bool FindWorkload(const std::string& name, WorkloadConfig* config) {
  for (const WorkloadConfig& w : Workloads()) {
    if (w.name == name) {
      *config = w;
      return true;
    }
  }
  return false;
}

std::string ResolvedDefaultKernel(const serve::EngineOptions& options) {
  std::string kernel = options.default_kernel;
  if (options.prefer_simd_host &&
      tilespmv::simd::ResolvedTier() != tilespmv::simd::Tier::kScalar) {
    const std::string simd = tilespmv::SimdHostKernelFor(kernel);
    if (!simd.empty()) kernel = simd;
  }
  return kernel;
}

}  // namespace perfbench
