// perfbench: the measured end-to-end benchmark of the tilespmv serving
// engine. One load-generator thread drives the public serve::Engine API on
// a seeded workload, checks the served results, and prints every metric by
// name and unit; the last line of stdout is the JSON result.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --work-dir <dir>
//
// --trace 0 reports the end-to-end metrics; --trace 1 is the separate
// traced run that reports the per-layer metrics (README.md lists both).

#include <malloc.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gen/power_law.h"
#include "graph/hits.h"
#include "graph/pagerank.h"
#include "graph/rwr.h"
#include "harness.h"
#include "io/binary_cache.h"
#include "par/pool.h"
#include "serve/engine.h"
#include "simd/caps.h"
#include "workload.h"

namespace perfbench {
namespace {

using serve::QueryKind;
using tilespmv::CsrMatrix;
using tilespmv::Result;
using tilespmv::Status;

constexpr int kSetupRepeats = 3;
constexpr int kKinds = 3;
/// Correctness bound against the double-precision references: relative L1
/// error of the (L1-normalized) score vector.
constexpr double kMaxRelL1Error = 1e-3;

/// Span and metric names of the engine's query stages, in QueryStage order.
const char* const kStageSpanNames[] = {
    "serve.admission", "serve.queue", "serve.coalesce", "serve.plan",
    "serve.execute",   "serve.post",  "serve.reply"};
static_assert(std::size(kStageSpanNames) == tilespmv::obs::kNumQueryStages);

int KindIndex(QueryKind k) { return static_cast<int>(k); }
const char* KindName(int k) {
  return k == 0 ? "pagerank" : (k == 1 ? "hits" : "rwr");
}

/// The pool runs on half the CPUs. With every vCPU busy, hypervisor steal
/// on a shared host stalls each parallel region at its slowest thread:
/// solve-large's round time then varied 2x between runs, against a few
/// percent at half the CPUs (README.md, "Steadiness rules").
int PoolThreads() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()) / 2);
}

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 0;
  int trace = -1;
  std::string work_dir;
};

bool ParseInt(const std::string& text, long long lo, long long hi,
              long long* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  if (errno != 0 || *end != '\0' || v < lo || v > hi) return false;
  *out = v;
  return true;
}

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  bool seen_seed = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    const size_t eq = flag.find('=');
    if (eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      *error = "missing value for " + flag;
      return false;
    }
    long long v = 0;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      if (!ParseInt(value, 0, (1LL << 62), &v)) {
        *error = "bad --seed";
        return false;
      }
      args->seed = static_cast<uint64_t>(v);
      seen_seed = true;
    } else if (flag == "--seconds") {
      if (!ParseInt(value, 1, 600, &v)) {
        *error = "bad --seconds";
        return false;
      }
      args->seconds = static_cast<int>(v);
    } else if (flag == "--trace") {
      if (!ParseInt(value, 0, 1, &v)) {
        *error = "bad --trace";
        return false;
      }
      args->trace = static_cast<int>(v);
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else {
      *error = "unknown flag " + flag;
      return false;
    }
  }
  if (args->workload.empty() || !seen_seed || args->seconds == 0 ||
      args->trace < 0 || args->work_dir.empty()) {
    *error = "--workload, --seed, --seconds, --trace and --work-dir are required";
    return false;
  }
  return true;
}

/// One request and what came back for it. Score vectors are kept only for
/// the sampled round the checks use.
struct Outcome {
  Request request;
  serve::QueryResponse response;
};

/// The work a round did, as counts that must not depend on timing.
struct Signature {
  int64_t iterations[kKinds] = {};
  int plan_misses = 0;
  int evictions = 0;
  int dedup_hits = 0;
  int brownout_max = 0;

  bool operator==(const Signature&) const = default;
};

struct RoundRecord {
  double wall_s = 0.0;
  std::vector<Outcome> outcomes;
  Signature signature;
  bool split_batch = false;  ///< Some RWR batch had an unexpected width.
};

double RelL1Error(const std::vector<float>& got,
                  const std::vector<double>& ref) {
  if (got.size() != ref.size() || ref.empty()) return 1e300;
  double sum_got = 0.0, sum_ref = 0.0;
  for (size_t i = 0; i < ref.size(); ++i) {
    if (!std::isfinite(got[i])) return 1e300;
    sum_got += std::fabs(static_cast<double>(got[i]));
    sum_ref += std::fabs(ref[i]);
  }
  if (sum_got <= 0.0 || sum_ref <= 0.0) return 1e300;
  double err = 0.0;
  for (size_t i = 0; i < ref.size(); ++i) {
    err += std::fabs(static_cast<double>(got[i]) / sum_got - ref[i] / sum_ref);
  }
  return err;
}

/// Everything the timed phase measured.
struct Timed {
  std::vector<double> round_ms;
  std::vector<double> kind_ms[kKinds];  ///< Submit-to-response latency.
  /// Per-stage and per-kind execute times of the traced rounds.
  std::vector<double> stage_ms[tilespmv::obs::kNumQueryStages];
  std::vector<double> execute_ms[kKinds];
  int64_t attempted = 0;
  int64_t not_ok = 0;
  int64_t mismatched = 0;  ///< Rounds whose counts differ from Expected().
  int64_t split = 0;       ///< Rounds with an RWR batch of unexpected width.
  double seconds = 0.0;
  double mode_seconds[2] = {};  ///< Round time untraced / traced.
  int64_t mode_ok[2] = {};      ///< Successful queries untraced / traced.
  uint64_t spmm_sweeps = 0;
  uint64_t spmm_vectors = 0;
  uint64_t dedup_hits = 0;
  int brownout_level = 0;
  double steal_pct = 0.0;
};

class Runner {
 public:
  Runner(const WorkloadConfig& config, const Args& args)
      : config_(config), args_(args), spans_(args.trace == 1) {}

  int Run();

 private:
  Status Prepare();
  std::string IngestPath(int file) const {
    return args_.work_dir + "/ingest-" + std::to_string(file) + ".bin";
  }
  /// Ingest rotates two names; round 0 is the set-up graph.
  std::string GraphName(int64_t round) const {
    return config_.ingest ? "g" + std::to_string(round % 2) : "g";
  }
  int IngestFile(int64_t round) const {
    return static_cast<int>(round % config_.ingest_files);
  }
  serve::EngineOptions EngineOptionsFor() const;
  std::vector<Request> Requests(int64_t round) const;
  Result<double> SetupOnce();
  RoundRecord RunRound(int64_t round, bool keep_scores);
  Signature Expected() const;
  /// A burst's RWR group coalesces into one batch; lone RWR runs alone.
  int ExpectedBatch() const { return config_.burst ? config_.rwr_per_round : 1; }
  void Serve(bool traced, Timed* timed);
  void PrintComposition(const Timed& timed) const;
  void PrintManifest(const Timed& timed, double run_seconds) const;
  void ReportEndToEnd(const Timed& timed,
                      const std::vector<double>& setup_samples,
                      double peak_rss_mb, std::vector<Metric>* out);
  Status Probe(const Timed& timed, std::vector<Metric>* out);
  void CheckCorrectness(const RoundRecord& sampled);
  void CheckDeterminism(const RoundRecord& sampled);
  void Fail(const std::string& what) {
    ++failed_checks_;
    std::fprintf(stderr, "perfbench: FAIL %s\n", what.c_str());
  }

  WorkloadConfig config_;
  Args args_;
  SpanLog spans_;
  CsrMatrix graph_;  ///< The served graph (ingest: the setup graph).
  /// RWR query candidates (nodes with out-edges), per ingest file or, for
  /// the other workloads, of graph_ (index 0).
  std::vector<std::vector<int32_t>> candidates_;
  std::unique_ptr<serve::Engine> engine_;
  CsrMatrix sampled_graph_;  ///< Ingest: the graph of the sampled round.
  int64_t next_round_ = 1;  ///< Round 0 is the set-up.
  int64_t next_request_id_ = 1;  ///< Shared by the spans of one request.
  int64_t input_rows_ = 0;
  int64_t input_nnz_ = 0;
  int64_t checks_ = 0;
  int64_t failed_checks_ = 0;
  double max_error_[kKinds] = {};
};

serve::EngineOptions Runner::EngineOptionsFor() const {
  serve::EngineOptions opts;
  const int nproc =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  opts.num_threads = config_.engine_threads > 0
                         ? config_.engine_threads
                         : std::min(opts.num_threads, nproc);
  if (config_.plan_cache_bytes > 0) {
    opts.plan_cache_bytes = config_.plan_cache_bytes;
  }
  return opts;
}

Status Runner::Prepare() {
  std::error_code ec;
  std::filesystem::create_directories(args_.work_dir, ec);
  if (ec) return Status::IoError("cannot create " + args_.work_dir);
  auto candidates_of = [](const CsrMatrix& g) {
    std::vector<int32_t> c;
    for (int32_t r = 0; r < g.rows; ++r) {
      if (g.RowLength(r) > 0) c.push_back(r);
    }
    return c;
  };
  tilespmv::RmatOptions rmat;
  if (!config_.ingest) {
    rmat.seed = Mix(args_.seed);
    graph_ = tilespmv::GenerateRmat(config_.nodes, config_.edges, rmat);
    candidates_.push_back(candidates_of(graph_));
  } else {
    for (int f = 0; f < config_.ingest_files; ++f) {
      rmat.seed = Mix(args_.seed * 131 + static_cast<uint64_t>(f) + 1);
      CsrMatrix g = tilespmv::GenerateRmat(config_.nodes, config_.edges, rmat);
      TILESPMV_RETURN_IF_ERROR(tilespmv::WriteBinaryMatrix(g, IngestPath(f)));
      candidates_.push_back(candidates_of(g));
      if (f == 0) graph_ = std::move(g);
    }
  }
  input_rows_ = graph_.rows;
  input_nnz_ = graph_.nnz();
  for (const auto& c : candidates_) {
    if (static_cast<int>(c.size()) < config_.rwr_per_round) {
      return Status::Internal("generated graph has too few non-empty rows");
    }
  }
  // Give the generator's temporaries back so the serving-phase RSS does not
  // carry them.
  malloc_trim(0);
  return Status::OK();
}

std::vector<Request> Runner::Requests(int64_t round) const {
  uint64_t state = Mix(args_.seed ^ Mix(static_cast<uint64_t>(round)));
  auto next = [&state] {
    state = Mix(state);
    return state;
  };
  // Tolerance 0 never converges, so every request runs exactly
  // `iterations` iterations whatever the graph.
  serve::QueryParams base;
  base.max_iterations = config_.iterations;
  base.tolerance = 0.0f;
  // A distinct damping per request keeps PageRank dedup from ever firing.
  Request pr{QueryKind::kPageRank, base};
  pr.params.damping =
      0.845f + 0.01f * static_cast<float>(next() >> 11) * 0x1.0p-53f;
  Request hits{QueryKind::kHits, base};
  const std::vector<int32_t>& cand =
      candidates_[config_.ingest ? static_cast<size_t>(IngestFile(round)) : 0];
  std::vector<Request> rwr;
  while (static_cast<int>(rwr.size()) < config_.rwr_per_round) {
    const int32_t node = cand[next() % cand.size()];
    bool dup = false;
    for (const Request& r : rwr) dup = dup || r.params.node == node;
    if (dup) continue;
    Request q{QueryKind::kRwr, base};
    q.params.node = node;
    rwr.push_back(q);
  }
  std::vector<Request> out;
  if (config_.burst) {
    // RWR first: the batch window opens at the first RWR and the whole
    // group is in the bucket microseconds later.
    out = rwr;
    out.push_back(pr);
    out.push_back(hits);
  } else {
    out.push_back(pr);
    out.push_back(hits);
    out.insert(out.end(), rwr.begin(), rwr.end());
  }
  return out;
}

Result<double> Runner::SetupOnce() {
  CsrMatrix copy;
  if (!config_.ingest) copy = graph_;
  engine_.reset();
  const int64_t span = spans_.Begin("setup");
  const Clock::time_point t0 = Clock::now();
  {
    const int64_t s = spans_.Begin("serve.engine_construct", span);
    engine_ = std::make_unique<serve::Engine>(EngineOptionsFor());
    spans_.End(s);
  }
  const std::string name = GraphName(0);
  if (config_.ingest) {
    const int64_t s = spans_.Begin("io.load", span);
    Result<CsrMatrix> m = tilespmv::ReadBinaryMatrix(IngestPath(0));
    spans_.End(s);
    if (!m.ok()) return m.status();
    copy = m.take();
  }
  {
    const int64_t s = spans_.Begin("serve.add_graph", span);
    Status st = engine_->AddGraph(name, std::move(copy));
    spans_.End(s);
    if (!st.ok()) return st;
  }
  // One single-iteration query per kind builds every plan the workload uses.
  serve::QueryParams p;
  p.max_iterations = 1;
  p.tolerance = 0.0f;
  std::vector<std::future<serve::QueryResponse>> futures;
  const int64_t s = spans_.Begin("serve.plan_build", span);
  for (QueryKind k : {QueryKind::kPageRank, QueryKind::kHits, QueryKind::kRwr}) {
    p.node = candidates_[0][0];
    futures.push_back(engine_->Submit(name, k, p));
  }
  Status status;
  for (auto& f : futures) {
    serve::QueryResponse r = f.get();
    if (!r.status.ok() && status.ok()) status = r.status;
  }
  spans_.End(s);
  const double seconds = SecondsBetween(t0, Clock::now());
  spans_.End(span);
  if (!status.ok()) return status;
  return seconds;
}

RoundRecord Runner::RunRound(int64_t round, bool keep_scores) {
  RoundRecord rec;
  const std::vector<Request> requests = Requests(round);
  const uint64_t evictions_before = engine_->plan_cache_stats().evictions;
  const int64_t round_span = spans_.Begin("round");
  const Clock::time_point t0 = Clock::now();
  const std::string name = GraphName(round);
  if (config_.ingest) {
    const int64_t s = spans_.Begin("io.load", round_span);
    Result<CsrMatrix> m = tilespmv::ReadBinaryMatrix(IngestPath(IngestFile(round)));
    spans_.End(s);
    if (!m.ok()) {
      Fail("load: " + m.status().ToString());
      return rec;
    }
    if (keep_scores) sampled_graph_ = m.value();
    const int64_t a = spans_.Begin("serve.add_graph", round_span);
    Status st = engine_->AddGraph(name, m.take());
    spans_.End(a);
    if (!st.ok()) {
      Fail("add graph: " + st.ToString());
      return rec;
    }
  }
  const size_t n = requests.size();
  std::vector<std::future<serve::QueryResponse>> futures(n);
  std::vector<Clock::time_point> submitted(n);
  std::vector<int64_t> request_spans(n, 0);
  std::vector<int64_t> request_ids(n, 0);
  std::vector<serve::QueryResponse> responses(n);
  auto submit = [&](size_t i) {
    request_ids[i] = next_request_id_++;
    request_spans[i] = spans_.Begin(KindName(KindIndex(requests[i].kind)),
                                    round_span, request_ids[i]);
    submitted[i] = Clock::now();
    futures[i] = engine_->Submit(name, requests[i].kind, requests[i].params);
  };
  auto collect = [&](size_t i) {
    responses[i] = futures[i].get();
    spans_.End(request_spans[i]);
    if (spans_.enabled()) {
      // The engine's stage breakdown, laid out from the submit instant:
      // the stages telescope to the engine-side latency.
      Clock::time_point at = submitted[i];
      for (int s = 0; s < tilespmv::obs::kNumQueryStages; ++s) {
        const Clock::time_point end =
            at + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(responses[i].stages.seconds[s]));
        spans_.Add(kStageSpanNames[s], at, end, request_spans[i], request_ids[i]);
        at = end;
      }
    }
  };
  if (config_.burst) {
    for (size_t i = 0; i < n; ++i) submit(i);
    for (size_t i = 0; i < n; ++i) collect(i);
  } else {
    for (size_t i = 0; i < n; ++i) {
      submit(i);
      collect(i);
    }
  }
  rec.wall_s = SecondsBetween(t0, Clock::now());
  spans_.End(round_span);

  rec.signature.evictions = static_cast<int>(
      engine_->plan_cache_stats().evictions - evictions_before);
  for (size_t i = 0; i < requests.size(); ++i) {
    serve::QueryResponse& r = responses[i];
    const int k = KindIndex(requests[i].kind);
    rec.signature.iterations[k] += r.stats.iterations;
    rec.signature.plan_misses += r.plan_cache_hit ? 0 : 1;
    rec.signature.dedup_hits += r.deduped ? 1 : 0;
    rec.signature.brownout_max =
        std::max(rec.signature.brownout_max, r.brownout_level);
    if (requests[i].kind == QueryKind::kRwr &&
        r.batch_size != ExpectedBatch()) {
      rec.split_batch = true;
    }
    if (!keep_scores) {
      r.scores = {};
      r.authority = {};
      r.hub = {};
    }
    rec.outcomes.push_back(Outcome{requests[i], std::move(r)});
  }
  return rec;
}

Signature Runner::Expected() const {
  Signature s;
  s.iterations[0] = config_.iterations;
  s.iterations[1] = config_.iterations;
  s.iterations[2] =
      static_cast<int64_t>(config_.iterations) * config_.rwr_per_round;
  // Ingest builds, and evicts, one plan per query; the others are warm.
  s.plan_misses = config_.ingest ? kKinds : 0;
  s.evictions = config_.ingest ? kKinds : 0;
  return s;
}

void Runner::CheckCorrectness(const RoundRecord& sampled) {
  const CsrMatrix& graph = config_.ingest ? sampled_graph_ : graph_;
  int rwr_checked = 0;
  bool checked[kKinds] = {};
  for (const Outcome& o : sampled.outcomes) {
    const int k = KindIndex(o.request.kind);
    if (k == 2 ? rwr_checked >= 2 : checked[k]) continue;
    checked[k] = true;
    ++checks_;
    const int iterations = o.response.stats.iterations;
    if (!o.response.status.ok()) {
      Fail(std::string("reference check: ") + KindName(k) + " " +
           o.response.status.ToString());
      continue;
    }
    double err = 0.0;
    if (k == 0) {
      err = RelL1Error(o.response.scores,
                       tilespmv::PageRankReference(graph, o.request.params.damping,
                                                   iterations));
    } else if (k == 1) {
      std::vector<double> ref_a, ref_h;
      tilespmv::HitsReference(graph, iterations, &ref_a, &ref_h);
      err = std::max(RelL1Error(o.response.authority, ref_a),
                     RelL1Error(o.response.hub, ref_h));
    } else {
      ++rwr_checked;
      err = RelL1Error(o.response.scores,
                       tilespmv::RwrReference(graph, o.request.params.node,
                                              o.request.params.restart,
                                              iterations));
    }
    max_error_[k] = std::max(max_error_[k], err);
    if (!(err <= kMaxRelL1Error)) {
      Fail(std::string("reference check: ") + KindName(k) +
           " relative L1 error " + Num(err));
    }
  }
}

void Runner::CheckDeterminism(const RoundRecord& sampled) {
  // Re-issue one request per kind, alone, and require bitwise-identical
  // scores: the engine's determinism contract holds across thread counts,
  // batch composition and panel placement.
  bool done[kKinds] = {};
  const std::string name = GraphName(1);
  for (const Outcome& o : sampled.outcomes) {
    const int k = KindIndex(o.request.kind);
    if (done[k]) continue;
    done[k] = true;
    ++checks_;
    serve::QueryResponse again =
        engine_->Query(name, o.request.kind, o.request.params);
    const bool same = again.status.ok() && o.response.status.ok() &&
                      again.scores == o.response.scores &&
                      again.authority == o.response.authority &&
                      again.hub == o.response.hub &&
                      again.stats.iterations == o.response.stats.iterations;
    if (!same) {
      Fail(std::string("determinism: re-issued ") + KindName(k) +
           " differs from the served result");
    }
  }
}

void Runner::Serve(bool traced, Timed* t) {
  // Traced runs alternate traced and untraced rounds, so the span overhead
  // is measured under the same conditions.
  const serve::ServerStatsSnapshot before = engine_->stats();
  const CpuTicks ticks_before = ReadCpuTicks();
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline = start + std::chrono::seconds(args_.seconds);
  const Signature expected = Expected();
  int64_t n = 0;
  do {
    const bool trace_round = traced && n % 2 == 0;
    spans_.set_enabled(trace_round);
    RoundRecord rec = RunRound(next_round_++, false);
    ++n;
    t->round_ms.push_back(rec.wall_s * 1e3);
    t->mode_seconds[trace_round ? 1 : 0] += rec.wall_s;
    t->split += rec.split_batch ? 1 : 0;
    if (!(rec.signature == expected)) ++t->mismatched;
    for (const Outcome& o : rec.outcomes) {
      ++t->attempted;
      const serve::QueryResponse& r = o.response;
      if (!r.status.ok()) {
        ++t->not_ok;
        continue;
      }
      ++t->mode_ok[trace_round ? 1 : 0];
      const int k = KindIndex(o.request.kind);
      t->kind_ms[k].push_back(r.latency_seconds * 1e3);
      if (trace_round) {
        // Queue time is billed only to uncoalesced requests and coalesce
        // time only to coalesced RWR; a median over both would be 0.
        const bool coalesced = o.request.kind == QueryKind::kRwr;
        for (int s = 0; s < tilespmv::obs::kNumQueryStages; ++s) {
          const auto stage = static_cast<tilespmv::obs::QueryStage>(s);
          if ((stage == tilespmv::obs::QueryStage::kQueue && coalesced) ||
              (stage == tilespmv::obs::QueryStage::kCoalesce && !coalesced)) {
            continue;
          }
          t->stage_ms[s].push_back(r.stages.seconds[s] * 1e3);
        }
        t->execute_ms[k].push_back(
            r.stages[tilespmv::obs::QueryStage::kExecute] * 1e3);
      }
    }
  } while (Clock::now() < deadline);
  t->seconds = SecondsBetween(start, Clock::now());
  t->steal_pct = StealPercent(ticks_before, ReadCpuTicks());
  spans_.set_enabled(false);
  const serve::ServerStatsSnapshot after = engine_->stats();
  t->spmm_sweeps = after.spmm_sweeps - before.spmm_sweeps;
  t->spmm_vectors = after.spmm_vectors - before.spmm_vectors;
  t->dedup_hits = after.dedup_hits - before.dedup_hits;
  t->brownout_level = after.brownout_level;

  const int64_t rounds = static_cast<int64_t>(t->round_ms.size());
  if (t->mismatched > 0) {
    Fail("composition guard: " + std::to_string(t->mismatched) + " of " +
         std::to_string(rounds) + " rounds did different work than expected");
  }
  // Every RWR iteration rides one SpMM panel column, and an unsplit round's
  // RWR group is one batch: one sweep per iteration.
  const uint64_t iterations = static_cast<uint64_t>(rounds * config_.iterations);
  if (t->spmm_vectors != iterations * config_.rwr_per_round ||
      (t->split == 0 && t->spmm_sweeps != iterations)) {
    Fail("composition guard: " + std::to_string(t->spmm_sweeps) +
         " SpMM sweeps carried " + std::to_string(t->spmm_vectors) +
         " vectors in " + std::to_string(rounds) + " rounds");
  }
  if (t->split > 0) {
    // The load generator stalled past the batch window mid-burst: the
    // counts stay exact, but the round swept more panels. Flagged, not
    // failed, since the program did nothing wrong.
    std::fprintf(stderr,
                 "perfbench: flagged: %lld of %lld rounds had a split RWR "
                 "batch\n",
                 static_cast<long long>(t->split),
                 static_cast<long long>(rounds));
  }
}

void Runner::PrintComposition(const Timed& t) const {
  const Signature e = Expected();
  const uint64_t rounds = t.round_ms.size();
  JsonObject comp;
  comp.SetInt("pagerank_iterations_per_round", e.iterations[0])
      .SetInt("hits_iterations_per_round", e.iterations[1])
      .SetInt("rwr_iterations_per_round", e.iterations[2])
      .SetInt("rwr_batch_width", ExpectedBatch())
      .SetInt("spmm_sweeps_per_round", static_cast<int64_t>(t.spmm_sweeps / rounds))
      .SetInt("spmm_vectors_per_round", static_cast<int64_t>(t.spmm_vectors / rounds))
      .Set("spmm_vectors_per_sweep",
           t.spmm_sweeps > 0 ? static_cast<double>(t.spmm_vectors) /
                                   static_cast<double>(t.spmm_sweeps)
                             : 0.0)
      .SetInt("plan_misses_per_round", e.plan_misses)
      .SetInt("plan_evictions_per_round", e.evictions)
      .SetInt("dedup_hits", static_cast<int64_t>(t.dedup_hits))
      .SetInt("brownout_level", t.brownout_level)
      .SetInt("mismatched_rounds", t.mismatched)
      .SetInt("split_batch_rounds", t.split);
  std::printf("composition %s\n", comp.str().c_str());
}

void Runner::PrintManifest(const Timed& t, double run_seconds) const {
  const CacheSizes caches = ReadCacheSizes();
  const serve::EngineOptions opts = EngineOptionsFor();
  JsonObject m;
  m.SetStr("workload", config_.name)
      .SetInt("seed", static_cast<int64_t>(args_.seed))
      .SetInt("nproc", static_cast<int64_t>(std::thread::hardware_concurrency()))
      .SetInt("l2_bytes", static_cast<int64_t>(caches.l2))
      .SetInt("l3_bytes", static_cast<int64_t>(caches.l3))
      .SetInt("pool_threads", tilespmv::par::ThreadPool::Global().num_threads())
      .SetInt("engine_workers", opts.num_threads)
      .SetStr("simd_tier",
              tilespmv::simd::TierName(tilespmv::simd::ResolvedTier()))
      .SetStr("default_kernel", ResolvedDefaultKernel(opts))
      .SetInt("rows", input_rows_)
      .SetInt("nnz", input_nnz_)
      // CSR storage of the adjacency matrix; PageRank's W^T has the same
      // size, HITS and RWR iterate matrices about twice as large.
      .SetInt("csr_bytes", input_nnz_ * 8 + (input_rows_ + 1) * 8)
      .Set("steal_pct", t.steal_pct)
      .SetInt("rounds", static_cast<int64_t>(t.round_ms.size()))
      .Set("timed_s", t.seconds)
      .Set("run_s", run_seconds);
  std::printf("manifest %s\n", m.str().c_str());
}

int Runner::Run() {
  const Clock::time_point run_start = Clock::now();
  tilespmv::par::ThreadPool::SetGlobalThreadCount(PoolThreads());
  Status st = Prepare();
  if (!st.ok()) {
    std::fprintf(stderr, "perfbench: prepare failed: %s\n",
                 st.ToString().c_str());
    return 2;
  }
  const bool traced = args_.trace == 1;
  // The serving engine's own set-up is the first set-up sample; the others
  // are taken after serving so their leftovers do not count in its RSS.
  std::vector<double> setup_samples;
  auto setup = [&] {
    Result<double> s = SetupOnce();
    if (!s.ok()) {
      std::fprintf(stderr, "perfbench: setup failed: %s\n",
                   s.status().ToString().c_str());
      return false;
    }
    setup_samples.push_back(s.value());
    return true;
  };
  if (!setup()) return 2;
  if (config_.ingest) graph_ = CsrMatrix();
  malloc_trim(0);

  RssSampler rss;
  rss.Start();
  // Warm-up, untimed. Its first round is the sample the correctness and
  // determinism checks use.
  spans_.set_enabled(false);
  RoundRecord sampled;
  for (int i = 0; i < config_.warmup_rounds; ++i) {
    const bool first = i == 0;
    RoundRecord rec = RunRound(next_round_++, first);
    for (const Outcome& o : rec.outcomes) {
      if (!o.response.status.ok()) {
        Fail("warm-up query: " + o.response.status.ToString());
      }
    }
    if (first) sampled = std::move(rec);
  }
  CheckDeterminism(sampled);

  Timed timed;
  Serve(traced, &timed);
  const double peak_rss_mb = rss.Stop();

  CheckCorrectness(sampled);
  sampled = RoundRecord();
  sampled_graph_ = CsrMatrix();

  std::vector<Metric> metrics;
  if (traced) {
    st = Probe(timed, &metrics);
    if (!st.ok()) Fail("layer probes: " + st.ToString());
  } else {
    engine_.reset();
    for (int i = 1; i < kSetupRepeats; ++i) {
      if (!setup()) return 2;
    }
    ReportEndToEnd(timed, setup_samples, peak_rss_mb, &metrics);
  }
  engine_.reset();
  if (config_.ingest) {
    for (int f = 0; f < config_.ingest_files; ++f) {
      std::error_code ec;
      std::filesystem::remove(IngestPath(f), ec);
    }
  }

  PrintComposition(timed);
  PrintManifest(timed, SecondsBetween(run_start, Clock::now()));
  for (int k = 0; k < kKinds; ++k) {
    std::printf("check %s max_rel_l1_error=%s bound=%s\n", KindName(k),
                Num(max_error_[k]).c_str(), Num(kMaxRelL1Error).c_str());
  }
  JsonObject values;
  for (const Metric& metric : metrics) {
    if (!std::isfinite(metric.value)) {
      Fail("metric " + metric.name + " is not finite");
      continue;
    }
    std::printf("metric %s %s %s\n", metric.name.c_str(),
                Num(metric.value).c_str(), metric.unit.c_str());
    JsonObject v;
    v.Set("value", metric.value).SetStr("unit", metric.unit);
    values.Set(metric.name, v.str());
  }
  const int64_t failed = timed.not_ok + failed_checks_;
  const int64_t attempted = timed.attempted + checks_;
  std::printf("metric failed_frac %s ratio\n",
              Num(static_cast<double>(failed) / static_cast<double>(attempted))
                  .c_str());
  JsonObject result;
  result.Set("correct", failed == 0 ? "true" : "false")
      .SetInt("attempted", attempted)
      .SetInt("failed", failed)
      .Set("metrics", values.str());
  std::printf("%s\n", result.str().c_str());
  std::fflush(stdout);
  return failed == 0 ? 0 : 1;
}

void Runner::ReportEndToEnd(const Timed& t,
                            const std::vector<double>& setup_samples,
                            double peak_rss_mb, std::vector<Metric>* out) {
  out->push_back({"setup_s", Median(setup_samples), "s"});
  out->push_back({"qps", static_cast<double>(t.attempted - t.not_ok) / t.seconds,
                  "1/s"});
  out->push_back({"round_p50_ms", Median(t.round_ms), "ms"});
  for (int k = 0; k < kKinds; ++k) {
    out->push_back({std::string(KindName(k)) + "_p50_ms", Median(t.kind_ms[k]),
                    "ms"});
  }
  out->push_back({"peak_rss_mb", peak_rss_mb, "MiB"});
  // Printed only: the p90 needs ten samples beyond it.
  if (t.round_ms.size() >= 100) {
    std::printf("metric round_p90_ms %s ms\n",
                Num(tilespmv::Percentile(t.round_ms, 90.0)).c_str());
  }
  std::printf("samples rounds=%zu pagerank=%zu hits=%zu rwr=%zu setup=%zu\n",
              t.round_ms.size(), t.kind_ms[0].size(), t.kind_ms[1].size(),
              t.kind_ms[2].size(), setup_samples.size());
}

Status Runner::Probe(const Timed& t, std::vector<Metric>* out) {
  const int execute = static_cast<int>(tilespmv::obs::QueryStage::kExecute);
  for (int s = 0; s < tilespmv::obs::kNumQueryStages; ++s) {
    if (s != execute) {
      out->push_back({std::string(kStageSpanNames[s]) + "_ms",
                      Median(t.stage_ms[s]), "ms"});
      continue;
    }
    for (int k = 0; k < kKinds; ++k) {
      out->push_back({std::string("serve.execute_ms.") + KindName(k),
                      Median(t.execute_ms[k]), "ms"});
    }
  }
  // Span overhead: queries per second of the untraced rounds against the
  // traced ones, as a share of the untraced rate.
  const double qps[2] = {
      static_cast<double>(t.mode_ok[0]) / std::max(t.mode_seconds[0], 1e-9),
      static_cast<double>(t.mode_ok[1]) / std::max(t.mode_seconds[1], 1e-9)};
  out->push_back({"obs.trace_overhead_pct",
                  qps[0] > 0 ? 100.0 * (qps[0] - qps[1]) / qps[0] : 0.0, "%"});

  ServedSample served;
  for (const Request& r : Requests(1)) {
    bool have = false;
    for (const Request& s : served.requests) have = have || s.kind == r.kind;
    if (!have) served.requests.push_back(r);
  }
  for (int k = 0; k < kKinds; ++k) {
    served.latency_p50_ms[k] = Median(t.kind_ms[k]);
  }
  CsrMatrix ingest_graph;
  if (config_.ingest) {
    Result<CsrMatrix> m = tilespmv::ReadBinaryMatrix(IngestPath(IngestFile(1)));
    if (!m.ok()) return m.status();
    ingest_graph = m.take();
  }
  spans_.set_enabled(true);
  Status st = RunLayerProbes(config_.ingest ? ingest_graph : graph_, *engine_,
                             served, args_.work_dir, &spans_, out);
  spans_.set_enabled(false);
  const std::string path = args_.work_dir + "/trace-" + config_.name + ".json";
  if (!spans_.WriteJson(path)) return Status::IoError("cannot write " + path);
  std::printf("trace %s spans=%zu\n", path.c_str(), spans_.size());
  return st;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  std::string error;
  if (!perfbench::ParseArgs(argc, argv, &args, &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 2;
  }
  perfbench::WorkloadConfig config;
  if (!perfbench::FindWorkload(args.workload, &config)) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  perfbench::Runner runner(config, args);
  return runner.Run();
}
