#include "src/workloads/registry.h"

#include <algorithm>
#include <climits>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <set>
#include <stdexcept>

#include "src/sim/parse.h"
#include "src/workloads/dataframe.h"
#include "src/workloads/gups.h"
#include "src/workloads/memcached.h"
#include "src/workloads/metis.h"
#include "src/workloads/pagerank.h"
#include "src/workloads/seqscan.h"
#include "src/workloads/trace.h"
#include "src/workloads/xsbench.h"

namespace magesim {

namespace {

// Typed option access over the raw key=value map, tracking which keys were
// consumed so Finish() can reject typos.
class OptReader {
 public:
  OptReader(const std::map<std::string, std::string>& opts, std::string* error)
      : opts_(opts), error_(error) {}

  uint64_t U64(const std::string& key, uint64_t def) { return Whole(key, def, INT64_MAX); }

  int Int(const std::string& key, int def) {
    return static_cast<int>(Whole(key, static_cast<uint64_t>(def), INT_MAX));
  }

  double Dbl(const std::string& key, double def) {
    const std::string* v = Find(key);
    if (v == nullptr) return def;
    char* end = nullptr;
    double out = std::strtod(v->c_str(), &end);
    if (end == v->c_str() || *end != '\0') Fail(key, *v);
    return out;
  }

  std::string Str(const std::string& key, const std::string& def) {
    const std::string* v = Find(key);
    return v == nullptr ? def : *v;
  }

  // True when every provided key was consumed; otherwise reports the typo.
  bool Finish(const std::string& wname) {
    for (const auto& [k, v] : opts_) {
      if (seen_.count(k) == 0) {
        *error_ = "workload '" + wname + "' does not take option '" + k + "'";
        return false;
      }
    }
    return error_->empty();
  }

 private:
  // A whole number in [0, max]. A bad value records the error and yields
  // `def`, so the factory never sees it.
  uint64_t Whole(const std::string& key, uint64_t def, int64_t max) {
    const std::string* v = Find(key);
    if (v == nullptr) return def;
    try {
      return static_cast<uint64_t>(ParseWholeNumber(key, *v, 0, max));
    } catch (const std::invalid_argument&) {
      Fail(key, *v);
      return def;
    }
  }

  const std::string* Find(const std::string& key) {
    seen_.insert(key);
    auto it = opts_.find(key);
    return it == opts_.end() ? nullptr : &it->second;
  }

  void Fail(const std::string& key, const std::string& v) {
    if (error_->empty()) *error_ = "bad value '" + v + "' for option '" + key + "'";
  }

  const std::map<std::string, std::string>& opts_;
  std::string* error_;
  std::set<std::string> seen_;
};

using Factory =
    std::function<std::unique_ptr<Workload>(const WorkloadParams&, OptReader&)>;

struct Entry {
  WorkloadInfo info;
  Factory make;
};

// Defaults mirror the CLI's historical hard-coded configurations, so
// `--workload=foo` keeps producing exactly the runs it always did.
const std::vector<Entry>& Registry() {
  static const std::vector<Entry>* entries = new std::vector<Entry>{
      {{"dataframe", "columnar filter+group-by queries",
        "rows=8388608 columns=4 queries=4"},
       [](const WorkloadParams& p, OptReader& o) -> std::unique_ptr<Workload> {
         return std::make_unique<DataframeWorkload>(DataframeWorkload::Options{
             .num_rows = o.U64("rows", 8 * 1024 * 1024),
             .num_columns = o.Int("columns", 4),
             .threads = p.threads,
             .queries_per_thread = o.Int("queries", 4)});
       }},
      {{"gups", "random updates with a working-set phase change",
        "pages=49152 theta=0.99 phase_ms=300 run_ms=600"},
       [](const WorkloadParams& p, OptReader& o) -> std::unique_ptr<Workload> {
         return std::make_unique<GupsWorkload>(GupsWorkload::Options{
             .total_pages = o.U64("pages", 48 * 1024),
             .threads = p.threads,
             .zipf_theta = o.Dbl("theta", 0.99),
             .phase_change_at = static_cast<SimTime>(o.U64("phase_ms", 300)) * kMillisecond,
             .run_for = static_cast<SimTime>(o.U64("run_ms", 600)) * kMillisecond});
       }},
      {{"memcached", "closed-loop key-value server under offered load",
        "keys=262144 ops=200000 duration_ms=1000"},
       [](const WorkloadParams& p, OptReader& o) -> std::unique_ptr<Workload> {
         return std::make_unique<MemcachedWorkload>(MemcachedWorkload::Options{
             .num_keys = o.U64("keys", 1 << 18),
             .load_ops_per_sec = o.Dbl("ops", 200000),
             .server_threads = p.threads,
             .duration = static_cast<SimTime>(o.U64("duration_ms", 1000)) * kMillisecond});
       }},
      {{"metis", "map-reduce word count (input scan + hash intermediate)",
        "input=16384 intermediate=12288"},
       [](const WorkloadParams& p, OptReader& o) -> std::unique_ptr<Workload> {
         return std::make_unique<MetisWorkload>(MetisWorkload::Options{
             .input_pages = o.U64("input", 16 * 1024),
             .intermediate_pages = o.U64("intermediate", 12 * 1024),
             .threads = p.threads});
       }},
      {{"mixed-trace", "zipf point lookups mixed with shard scans",
        "wss=32768 accesses=20000 theta=0.95 scan=0.2"},
       [](const WorkloadParams& p, OptReader& o) -> std::unique_ptr<Workload> {
         TraceGenOptions gopt{.wss_pages = o.U64("wss", 32 * 1024),
                              .threads = p.threads,
                              .accesses_per_thread = o.U64("accesses", 20000)};
         return std::make_unique<TraceReplayWorkload>(
             GenerateMixedTrace(gopt, o.Dbl("theta", 0.95), o.Dbl("scan", 0.2)));
       }},
      {{"pagerank", "GAP-style PageRank over a Kronecker graph",
        "scale=16 iterations=3"},
       [](const WorkloadParams& p, OptReader& o) -> std::unique_ptr<Workload> {
         return std::make_unique<PageRankWorkload>(PageRankWorkload::Options{
             .scale = o.Int("scale", 16),
             .iterations = o.Int("iterations", 3),
             .threads = p.threads});
       }},
      {{"seqscan", "sequential multi-pass scan over a shared region",
        "pages=32768 passes=2 compute_ns=5570 write=0"},
       [](const WorkloadParams& p, OptReader& o) -> std::unique_ptr<Workload> {
         return std::make_unique<SeqScanWorkload>(SeqScanWorkload::Options{
             .region_pages = o.U64("pages", 32 * 1024),
             .threads = p.threads,
             .passes = o.Int("passes", 2),
             .compute_per_page_ns = static_cast<SimTime>(o.U64("compute_ns", 5570)),
             .write = o.U64("write", 0) != 0});
       }},
      {{"trace", "replay a recorded access trace", "file=<path>"},
       [](const WorkloadParams& p, OptReader& o) -> std::unique_ptr<Workload> {
         (void)p;  // thread count comes from the trace itself
         std::string path = o.Str("file", "");
         Trace trace;
         if (path.empty() || !Trace::LoadFrom(path, &trace)) return nullptr;
         return std::make_unique<TraceReplayWorkload>(std::move(trace));
       }},
      {{"xsbench", "Monte Carlo cross-section lookups (gather-heavy)",
        "gridpoints=262144 lookups=3000"},
       [](const WorkloadParams& p, OptReader& o) -> std::unique_ptr<Workload> {
         return std::make_unique<XsBenchWorkload>(XsBenchWorkload::Options{
             .gridpoints = o.U64("gridpoints", 1 << 18),
             .lookups_per_thread = o.U64("lookups", 3000),
             .threads = p.threads});
       }},
      {{"zipf-trace", "zipf-distributed point accesses",
        "wss=32768 accesses=20000 theta=0.95"},
       [](const WorkloadParams& p, OptReader& o) -> std::unique_ptr<Workload> {
         TraceGenOptions gopt{.wss_pages = o.U64("wss", 32 * 1024),
                              .threads = p.threads,
                              .accesses_per_thread = o.U64("accesses", 20000)};
         return std::make_unique<TraceReplayWorkload>(
             GenerateZipfTrace(gopt, o.Dbl("theta", 0.95)));
       }},
  };
  return *entries;
}

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name, const WorkloadParams& params,
                                       std::string* error) {
  std::string local;
  if (error == nullptr) error = &local;
  error->clear();
  for (const Entry& e : Registry()) {
    if (e.info.name != name) continue;
    OptReader reader(params.opts, error);
    std::unique_ptr<Workload> w;
    try {
      w = e.make(params, reader);
    } catch (const std::invalid_argument& ex) {
      // A constructor refusing its options (e.g. pagerank scale=40).
      if (error->empty()) *error = ex.what();
    }
    if (w == nullptr && error->empty()) {
      *error = "workload '" + name + "' could not be constructed (missing/bad input?)";
    }
    if (!reader.Finish(name)) return nullptr;
    return error->empty() ? std::move(w) : nullptr;
  }
  *error = "unknown workload '" + name + "'";
  return nullptr;
}

const std::vector<WorkloadInfo>& ListWorkloads() {
  static const std::vector<WorkloadInfo>* infos = [] {
    auto* v = new std::vector<WorkloadInfo>;
    for (const Entry& e : Registry()) v->push_back(e.info);
    std::sort(v->begin(), v->end(),
              [](const WorkloadInfo& a, const WorkloadInfo& b) { return a.name < b.name; });
    return v;
  }();
  return *infos;
}

}  // namespace magesim
