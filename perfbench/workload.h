// Workload definitions of the perfbench harness and the per-layer probes of
// its traced run. See perfbench/README.md for what each workload measures
// and why.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"
#include "serve/engine.h"
#include "sparse/csr.h"

namespace perfbench {

namespace serve = tilespmv::serve;
using tilespmv::CsrMatrix;
using tilespmv::Status;

/// Everything that distinguishes one workload from another. The runner in
/// main.cc is generic over this.
struct WorkloadConfig {
  std::string name;
  int32_t nodes = 0;       ///< R-MAT node count.
  int64_t edges = 0;       ///< R-MAT target edge count.
  int engine_threads = 0;  ///< Request workers; 0 = min(default, nproc).
  /// Plan-cache budget; 0 = the engine default.
  uint64_t plan_cache_bytes = 0;
  /// Submit a round's requests all at once (RWR first) and then wait for
  /// all of them; otherwise submit one, wait for it, submit the next.
  bool burst = false;
  /// Each round loads the next prepared graph file and re-registers it
  /// under one of two rotating names before querying it.
  bool ingest = false;
  int ingest_files = 0;
  int rwr_per_round = 1;
  /// Iterations of every request. Tolerance is 0, so no request
  /// converges early and each does identical work whatever the graph.
  int iterations = 10;
  int warmup_rounds = 3;
};

/// Looks a workload up by name; false when unknown.
bool FindWorkload(const std::string& name, WorkloadConfig* config);

/// One request of a round.
struct Request {
  serve::QueryKind kind = serve::QueryKind::kPageRank;
  serve::QueryParams params;
};

/// What the traced run measured on the served path, for the layer probes
/// that compare against it.
struct ServedSample {
  std::vector<Request> requests;  ///< One representative request per kind.
  double latency_p50_ms[3] = {};  ///< Per kind, traced phase.
};

/// Runs every per-layer probe against the workload's graph and appends the
/// metrics (names as listed in BENCHMARK.json's per_layer). `engine` is the
/// warm serving engine, used for its plan-cache residency.
Status RunLayerProbes(const CsrMatrix& graph,
                      const serve::Engine& engine, const ServedSample& served,
                      const std::string& work_dir, SpanLog* spans,
                      std::vector<Metric>* out);

/// Name of the kernel the engine serves by default, after its host SIMD
/// upgrade.
std::string ResolvedDefaultKernel(const serve::EngineOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
