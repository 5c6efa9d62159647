// Per-layer probes of the traced run. Each probe times calls into one
// layer's public functions from outside the program, on the workload's own
// graph, with the plan set up exactly as the serving engine sets it up.
// Bytes and GB/s are computed from format storage (KernelTiming's
// useful_bytes), not measured by hardware counters.

#include <algorithm>
#include <filesystem>
#include <functional>
#include <memory>

#include "core/preprocess.h"
#include "core/tile_dag.h"
#include "graph/hits.h"
#include "graph/pagerank.h"
#include "graph/rwr.h"
#include "io/binary_cache.h"
#include "kernels/spmv.h"
#include "par/pool.h"
#include "par/taskgraph.h"
#include "sparse/convert.h"
#include "spmm/spmm.h"
#include "workload.h"

namespace perfbench {
namespace {

using tilespmv::CsrMatrix;
using tilespmv::Result;
using tilespmv::Status;

/// Runs `fn` once untimed, then until both `min_reps` runs and `min_seconds`
/// have passed (at most `max_reps`); returns the median run in ms.
double MedianMs(const std::function<void()>& fn, int min_reps = 5,
                double min_seconds = 0.25, int max_reps = 60) {
  fn();
  std::vector<double> ms;
  const Clock::time_point start = Clock::now();
  while (static_cast<int>(ms.size()) < max_reps &&
         (static_cast<int>(ms.size()) < min_reps ||
          SecondsBetween(start, Clock::now()) < min_seconds)) {
    const Clock::time_point t0 = Clock::now();
    fn();
    ms.push_back(SecondsBetween(t0, Clock::now()) * 1e3);
  }
  return Median(ms);
}

double TimeMs(const std::function<void()>& fn) {
  const Clock::time_point t0 = Clock::now();
  fn();
  return SecondsBetween(t0, Clock::now()) * 1e3;
}

class Probes {
 public:
  Probes(SpanLog* spans, std::vector<Metric>* out) : spans_(spans), out_(out) {
    root_ = spans_->Begin("layer_probes");
  }
  ~Probes() { spans_->End(root_); }
  Probes(const Probes&) = delete;
  Probes& operator=(const Probes&) = delete;

  void Add(const std::string& name, double value, const char* unit) {
    out_->push_back({name, value, unit});
  }
  /// Opens a span for one probe under the probes' root span.
  int64_t Span(const char* name) { return spans_->Begin(name, root_); }
  void End(int64_t id) { spans_->End(id); }

 private:
  SpanLog* spans_;
  std::vector<Metric>* out_;
  int64_t root_ = 0;
};

std::vector<float> ProbeVector(int32_t n) {
  std::vector<float> x(static_cast<size_t>(n));
  for (int32_t i = 0; i < n; ++i) {
    x[static_cast<size_t>(i)] = 1.0f / static_cast<float>(1 + i % 97);
  }
  return x;
}

Status ProbeIo(const CsrMatrix& graph, const std::string& work_dir,
               Probes* p) {
  const std::string path = work_dir + "/probe.bin";
  TILESPMV_RETURN_IF_ERROR(tilespmv::WriteBinaryMatrix(graph, path));
  std::error_code ec;
  const double mib =
      static_cast<double>(std::filesystem::file_size(path, ec)) / (1 << 20);
  Status status;
  const int64_t s = p->Span("io.load");
  const double ms = MedianMs([&] {
    Result<CsrMatrix> m = tilespmv::ReadBinaryMatrix(path);
    if (!m.ok()) status = m.status();
  });
  p->End(s);
  std::filesystem::remove(path, ec);
  TILESPMV_RETURN_IF_ERROR(status);
  p->Add("io.load_ms", ms, "ms");
  p->Add("io.load_mb_s", mib / (ms * 1e-3), "MiB/s");
  return Status::OK();
}

Status ProbeCore(const CsrMatrix& wt, const tilespmv::gpusim::DeviceSpec& spec,
                 Probes* p) {
  const int64_t s = p->Span("core.preprocess");
  Result<tilespmv::PreprocessReport> r = tilespmv::MeasurePreprocessing(wt, spec);
  p->End(s);
  if (!r.ok()) return r.status();
  p->Add("core.sort_columns_ms", r.value().sort_columns_seconds * 1e3, "ms");
  p->Add("core.relabel_ms", r.value().relabel_seconds * 1e3, "ms");
  p->Add("core.tiling_ms", r.value().tiling_seconds * 1e3, "ms");
  p->Add("core.composite_ms", r.value().composite_seconds * 1e3, "ms");
  return Status::OK();
}

/// STREAM-style triad a = b + s * c over arrays well beyond the L3, on the
/// global pool: the host bandwidth roof the kernel GB/s compare against.
void ProbeTriad(Probes* p) {
  const int64_t n = 8 << 20;  // 3 x 64 MiB of doubles.
  std::vector<double> a(static_cast<size_t>(n)), b(static_cast<size_t>(n), 1.0),
      c(static_cast<size_t>(n), 2.0);
  tilespmv::par::LoopOptions lo;
  lo.grain = 1 << 16;
  auto triad = [&] {
    tilespmv::par::ParallelFor(0, n, lo, [&](int64_t begin, int64_t end) {
      for (int64_t i = begin; i < end; ++i) a[i] = b[i] + 3.0 * c[i];
    });
  };
  const int64_t s = p->Span("machine.triad");
  triad();
  double best_ms = 1e300;
  for (int rep = 0; rep < 7; ++rep) best_ms = std::min(best_ms, TimeMs(triad));
  p->End(s);
  p->Add("machine.triad_gbps", 24.0 * static_cast<double>(n) / (best_ms * 1e-3) / 1e9,
         "GB/s");
}

void ProbePar(Probes* p) {
  const int threads = tilespmv::par::ThreadPool::Global().num_threads();
  tilespmv::par::LoopOptions lo;
  lo.grain = 1024;
  const int64_t range = 2 * lo.grain * std::max(threads, 1);
  const int kRegions = 200;
  const int64_t s = p->Span("par.region");
  const double batch_ms = MedianMs([&] {
    for (int i = 0; i < kRegions; ++i) {
      tilespmv::par::ParallelFor(0, range, lo, [](int64_t, int64_t) {});
    }
  });
  p->End(s);
  p->Add("par.region_us", batch_ms * 1e3 / kRegions, "us");

  const int kTasks = 256;
  tilespmv::par::TaskGraph graph;
  for (int i = 0; i < kTasks; ++i) graph.AddTask("bench/empty");
  graph.Freeze();
  const int64_t t = p->Span("par.taskgraph");
  const double run_ms = MedianMs(
      [&] { tilespmv::par::RunTaskGraph(graph, [](int32_t) {}); }, 20);
  p->End(t);
  p->Add("par.task_us", run_ms * 1e3 / kTasks, "us");
}

}  // namespace

Status RunLayerProbes(const CsrMatrix& graph,
                      const serve::Engine& engine, const ServedSample& served,
                      const std::string& work_dir, SpanLog* spans,
                      std::vector<Metric>* out) {
  Probes p(spans, out);
  const serve::EngineOptions& opts = engine.options();
  tilespmv::gpusim::DeviceSpec spec;
  if (!tilespmv::gpusim::DeviceSpecByName(opts.default_device, &spec)) {
    return Status::InvalidArgument("unknown device " + opts.default_device);
  }
  const std::string def = ResolvedDefaultKernel(opts);
  const int pool_threads = tilespmv::par::ThreadPool::Global().num_threads();

  TILESPMV_RETURN_IF_ERROR(ProbeIo(graph, work_dir, &p));

  const CsrMatrix wt = tilespmv::PageRankMatrix(graph);
  TILESPMV_RETURN_IF_ERROR(ProbeCore(wt, spec, &p));

  // Kernels on the PageRank matrix: setup, SpMV at the pool's thread count
  // and at one thread, computed bytes and GB/s.
  std::unique_ptr<tilespmv::SpMVKernel> pr_kernel;
  double default_spmv_ms = 0.0;
  const std::pair<const char*, std::string> kernels[] = {
      {"default", def},
      {"cpu-csr", "cpu-csr"},
      {"cpu-csr-simd", "cpu-csr-simd"},
      {"cpu-sell-simd", "cpu-sell-simd"}};
  for (const auto& [label, name] : kernels) {
    std::unique_ptr<tilespmv::SpMVKernel> k = tilespmv::CreateKernel(name, spec);
    if (k == nullptr) return Status::InvalidArgument("unknown kernel " + name);
    const std::string suffix = std::string(".") + label;
    Status st;
    const int64_t s = p.Span("kernels.setup");
    const double setup_ms = TimeMs([&] { st = k->Setup(wt); });
    p.End(s);
    TILESPMV_RETURN_IF_ERROR(st);
    const std::vector<float> x = ProbeVector(k->cols());
    std::vector<float> y;
    const int64_t m = p.Span("kernels.spmv");
    const double ms = MedianMs([&] { k->Multiply(x, &y); });
    tilespmv::par::ThreadPool::SetGlobalThreadCount(1);
    const double ms_1t = MedianMs([&] { k->Multiply(x, &y); });
    tilespmv::par::ThreadPool::SetGlobalThreadCount(pool_threads);
    p.End(m);
    const double bytes = static_cast<double>(k->timing().useful_bytes);
    p.Add("kernels.setup_ms" + suffix, setup_ms, "ms");
    p.Add("kernels.spmv_ms" + suffix, ms, "ms");
    p.Add("kernels.spmv_1t_ms" + suffix, ms_1t, "ms");
    p.Add("kernels.gbps" + suffix, bytes / (ms * 1e-3) / 1e9, "GB/s");
    p.Add("kernels.bytes_per_nnz" + suffix, bytes / static_cast<double>(wt.nnz()),
          "B/nnz");
    if (std::string(label) == "default") {
      pr_kernel = std::move(k);
      default_spmv_ms = ms;
    }
  }
  ProbeTriad(&p);

  // Graph drivers on kernels set up the way the engine's plans are, with
  // the served requests' parameters.
  const Request* req[3] = {nullptr, nullptr, nullptr};
  for (const Request& r : served.requests) req[static_cast<int>(r.kind)] = &r;
  if (req[0] == nullptr || req[1] == nullptr || req[2] == nullptr) {
    return Status::Internal("served sample lacks a query kind");
  }
  {
    if (opts.pipeline && pr_kernel->tile_dag() != nullptr) {
      pr_kernel->tile_dag()->PowerPairGraph(tilespmv::TileDag::PowerKind::kPageRank);
    }
    tilespmv::PageRankOptions o;
    o.damping = req[0]->params.damping;
    o.max_iterations = req[0]->params.max_iterations;
    o.tolerance = req[0]->params.tolerance;
    o.pipeline = opts.pipeline;
    int iterations = 1;
    const int64_t s = p.Span("graph.pagerank");
    const double ms = MedianMs([&] {
      Result<tilespmv::IterativeResult> r = tilespmv::RunPageRankPrepared(*pr_kernel, o);
      if (r.ok()) iterations = std::max(1, r.value().iterations);
    });
    p.End(s);
    p.Add("graph.pagerank_iter_ms", ms / iterations, "ms");
    p.Add("graph.update_ms", ms / iterations - default_spmv_ms, "ms");
    p.Add("serve.overhead_ms.pagerank", served.latency_p50_ms[0] - ms, "ms");
  }
  pr_kernel.reset();
  {
    std::unique_ptr<tilespmv::SpMVKernel> k = tilespmv::CreateKernel(def, spec);
    TILESPMV_RETURN_IF_ERROR(k->Setup(tilespmv::BuildHitsMatrix(graph)));
    if (opts.pipeline && k->tile_dag() != nullptr) {
      k->tile_dag()->PowerPairGraph(tilespmv::TileDag::PowerKind::kHits);
    }
    tilespmv::HitsOptions o;
    o.max_iterations = req[1]->params.max_iterations;
    o.tolerance = req[1]->params.tolerance;
    o.pipeline = opts.pipeline;
    int iterations = 1;
    const int64_t s = p.Span("graph.hits");
    const double ms = MedianMs([&] {
      Result<tilespmv::HitsScores> r = tilespmv::RunHitsPrepared(*k, o);
      if (r.ok()) iterations = std::max(1, r.value().stats.iterations);
    });
    p.End(s);
    p.Add("graph.hits_iter_ms", ms / iterations, "ms");
    p.Add("serve.overhead_ms.hits", served.latency_p50_ms[1] - ms, "ms");
  }
  {
    std::unique_ptr<tilespmv::SpMVKernel> k = tilespmv::CreateKernel(def, spec);
    tilespmv::RwrEngine rwr(k.get());
    TILESPMV_RETURN_IF_ERROR(rwr.Init(graph, tilespmv::RwrOptions{}));
    tilespmv::RwrOptions o;
    o.restart = req[2]->params.restart;
    o.max_iterations = req[2]->params.max_iterations;
    o.tolerance = req[2]->params.tolerance;
    o.pipeline = opts.pipeline;
    int iterations = 1;
    const int64_t s = p.Span("graph.rwr");
    const double ms = MedianMs([&] {
      Result<tilespmv::RwrResult> r = rwr.Query(req[2]->params.node, o);
      if (r.ok()) iterations = std::max(1, r.value().stats.iterations);
    });
    p.End(s);
    p.Add("graph.rwr_iter_ms", ms / iterations, "ms");
    p.Add("serve.overhead_ms.rwr", served.latency_p50_ms[2] - ms, "ms");
  }

  // SpMM: the RWR plan's blocked sibling at the engine's panel width.
  {
    const std::string name = tilespmv::spmm::SpmmKernelNameForSpmv(def);
    std::unique_ptr<tilespmv::spmm::SpMMKernel> k =
        tilespmv::spmm::CreateSpMMKernel(name, spec);
    if (k == nullptr) return Status::InvalidArgument("no SpMM sibling for " + def);
    const CsrMatrix w = tilespmv::ColNormalize(tilespmv::Symmetrize(graph));
    Status st;
    const int64_t s = p.Span("spmm.setup");
    const double setup_ms = TimeMs([&] { st = k->Setup(w, opts.spmm_block_cols); });
    p.End(s);
    TILESPMV_RETURN_IF_ERROR(st);
    p.Add("spmm.setup_ms", setup_ms, "ms");
    for (int width : {1, 8, 16}) {
      const int cols = std::min(width, k->block_cols());
      tilespmv::spmm::DenseBlock x(k->cols(), cols), y;
      for (size_t i = 0; i < x.data.size(); ++i) {
        x.data[i] = 1.0f / static_cast<float>(1 + i % 89);
      }
      const int64_t m = p.Span("spmm.sweep");
      const double ms = MedianMs([&] { k->Multiply(x, &y); });
      p.End(m);
      p.Add("spmm.sweep_ms.k" + std::to_string(width), ms, "ms");
    }
  }

  ProbePar(&p);
  p.Add("serve.plan_resident_mb",
        static_cast<double>(engine.plan_cache_stats().resident_bytes) / (1 << 20),
        "MiB");
  return Status::OK();
}

}  // namespace perfbench
