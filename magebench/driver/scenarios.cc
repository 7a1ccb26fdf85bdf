// The three benchmark workloads. Each turns the run's --seed into its
// inputs, configures the simulated machine, and checks the program's
// outputs against values computed here independently of the simulator.
#include <cstring>
#include <stdexcept>

#include "magebench/driver/bench.h"
#include "src/paging/kernels.h"
#include "src/tenancy/tenant_spec.h"
#include "src/workloads/pagerank.h"
#include "src/workloads/seqscan.h"

namespace magebench {

using magesim::FarMemoryMachine;
using magesim::kMillisecond;
using magesim::RunResult;
using magesim::Workload;

namespace {

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t Fnv1a(const void* data, size_t n, uint64_t h = 0xcbf29ce484222325ULL) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

uint64_t Scale(uint64_t base, double size) {
  uint64_t v = static_cast<uint64_t>(static_cast<double>(base) * size);
  return v < 16 ? 16 : v;
}

// --- scan_evict -----------------------------------------------------------
// The perf_fault_path scenario: a write scan over twice the local memory on
// MageLib, 16 threads, 60 ms simulated with statistics from 20 ms on. The
// scanners whose shards were prepopulated keep hitting; the others fault on
// every access and every fault takes its frame from a dirty eviction, so host
// time goes to the fault/evict machinery and not to the workload. The seed
// picks the per-page compute (100-103 ns). Smoke sizes run a short scan to
// completion instead, so the checksum covers every thread.

constexpr int kScanThreads = 16;

// What SeqScanWorkload::checksum() must read: each thread that finished all
// its passes folds vpn * K + pass over its shard, and the shards are XORed.
// Threads stopped by the time limit fold nothing.
uint64_t ExpectedScanChecksum(FarMemoryMachine& m, uint64_t region_pages, int passes) {
  uint64_t shard = region_pages / kScanThreads;
  uint64_t out = 0;
  for (int tid = 0; tid < kScanThreads; ++tid) {
    uint64_t begin = shard * static_cast<uint64_t>(tid);
    uint64_t end = tid == kScanThreads - 1 ? region_pages : begin + shard;
    if (m.threads()[static_cast<size_t>(tid)]->ops != (end - begin) * passes) continue;
    uint64_t sum = 0;
    for (int pass = 0; pass < passes; ++pass) {
      for (uint64_t vpn = begin; vpn < end; ++vpn) {
        sum += vpn * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(pass);
      }
    }
    out ^= sum;
  }
  return out;
}

Scenario ScanEvict(uint64_t seed, double size) {
  bool full = size >= 1.0;
  uint64_t region = Scale(19200, size);
  int passes = full ? 1000 : 3;
  magesim::SimTime compute_ns = 100 + static_cast<magesim::SimTime>(SplitMix64(seed) % 4);
  Scenario s;
  s.name = "scan_evict";
  s.setup_samples = 32;  // ~0.4 ms each against a ~0.3 s Run()
  s.make_workload = [region, passes, compute_ns] {
    return std::make_unique<magesim::SeqScanWorkload>(
        magesim::SeqScanWorkload::Options{.region_pages = region,
                                          .threads = kScanThreads,
                                          .passes = passes,
                                          .compute_per_page_ns = compute_ns,
                                          .write = true});
  };
  s.options = [seed, full] {
    FarMemoryMachine::Options opt;
    opt.kernel = magesim::MageLibConfig();
    opt.local_mem_ratio = 0.5;
    opt.seed = seed;
    if (full) {
      opt.time_limit = 60 * kMillisecond;
      opt.stats_warmup = 20 * kMillisecond;
    }
    return opt;
  };
  s.check = [region, passes](FarMemoryMachine& m, Workload& wl, const RunResult& r,
                             Record* sim) {
    uint64_t got = static_cast<magesim::SeqScanWorkload&>(wl).checksum();
    sim->U("scan_checksum", got);
    if (got != ExpectedScanChecksum(m, region, passes)) {
      return std::string("scan checksum mismatch");
    }
    return std::string();
  };
  return s;
}

// --- pagerank_hermit ------------------------------------------------------
// One fig09/fig17 sweep point: GapBS PageRank on Hermit at 70% far memory,
// the only workload on the contended Linux-style path (global LRU lock, swap
// allocator, sync evictions). The seed is the Kronecker generator's seed.

constexpr int kPrIterations = 3;

// Host-side reference of PageRankWorkload's pull-direction kernel, in the
// same operation order, so the simulated run's ranks must match bit for bit.
std::vector<double> ReferenceRanks(const magesim::CsrGraph& g, int iterations) {
  const double damping = 0.85;
  uint64_t n = g.num_vertices;
  std::vector<double> src(n, 1.0 / static_cast<double>(n)), dst(n, 0.0);
  std::vector<float> contrib(n, 0.0f);
  for (int it = 0; it < iterations; ++it) {
    for (uint64_t v = 0; v < n; ++v) {
      uint64_t deg = g.OutDegree(v);
      contrib[v] = deg == 0 ? 0.0f : static_cast<float>(src[v] / static_cast<double>(deg));
    }
    for (uint64_t v = 0; v < n; ++v) {
      double sum = 0.0;
      for (uint64_t e = g.offsets[v]; e < g.offsets[v + 1]; ++e) sum += contrib[g.neighbors[e]];
      dst[v] = (1.0 - damping) / static_cast<double>(n) + damping * sum;
    }
    std::swap(src, dst);
  }
  return src;
}

Scenario PageRankHermit(uint64_t seed, double size) {
  int scale = size >= 1.0 ? 17 : 15;
  int threads = size >= 1.0 ? 48 : 8;
  Scenario s;
  s.name = "pagerank_hermit";
  // Generation is ~0.55 s against a ~0.13 s Run(); a copy takes milliseconds.
  s.runs_per_workload = 3;
  s.copy_workload = [](const Workload& proto) {
    return std::make_unique<magesim::PageRankWorkload>(
        static_cast<const magesim::PageRankWorkload&>(proto));
  };
  s.make_workload = [seed, scale, threads] {
    return std::make_unique<magesim::PageRankWorkload>(
        magesim::PageRankWorkload::Options{.scale = scale,
                                           .edge_factor = 16,
                                           .iterations = kPrIterations,
                                           .threads = threads,
                                           .seed = seed});
  };
  s.options = [seed] {
    FarMemoryMachine::Options opt;
    opt.kernel = magesim::HermitConfig();
    opt.local_mem_ratio = 0.3;
    opt.seed = seed;
    return opt;
  };
  s.check = [](FarMemoryMachine& m, Workload& wl, const RunResult& r, Record* sim) {
    auto& pr = static_cast<magesim::PageRankWorkload&>(wl);
    const std::vector<double>& ranks = pr.ranks();
    double sum = 0;
    for (double x : ranks) sum += x;
    sim->F("rank_sum", sum);
    sim->U("rank_digest", Fnv1a(ranks.data(), ranks.size() * sizeof(double)));
    std::vector<double> want = ReferenceRanks(pr.graph(), kPrIterations);
    if (want.size() != ranks.size() ||
        std::memcmp(want.data(), ranks.data(), ranks.size() * sizeof(double)) != 0) {
      return std::string("ranks differ from the host reference");
    }
    // Dangling vertices leak rank mass (GapBS does not redistribute it), so
    // the mass is in (0, 1], not exactly 1.
    if (!(sum > 0.0 && sum <= 1.0 + 1e-9)) return std::string("rank mass outside (0, 1]");
    return std::string();
  };
  return s;
}

// --- tenants_fleet --------------------------------------------------------
// The fleet_availability tenant pair: a latency seqscan tenant and a
// hard-capped GUPS batch tenant on MageLib at 35% local memory, far memory
// sharded over 4 servers with 2-way replication. RDMA errors and drops from
// 5 ms to 10 ms force retries and timeouts; server 1 is down from 15 ms to
// 30 ms of the 50 ms window and rebuilds before it closes. None of it loses
// data. The seed drives the placement ring, the GUPS key streams and the
// resilience jitter.

Scenario TenantsFleet(uint64_t seed, double size) {
  std::string spec =
      "lat:4:0:latency=seqscan/2,pages=" + std::to_string(Scale(4096, size)) +
      ",passes=100000,compute_ns=2000;"
      "bg:1:0.35:0.3:batch=gups/8,pages=" + std::to_string(Scale(16384, size)) +
      ",theta=0.4,run_ms=600,phase_ms=600";
  magesim::TenancyOptions tenancy;
  std::string err;
  if (!magesim::ParseTenancyList(spec, &tenancy, &err)) {
    throw std::invalid_argument("tenants_fleet: bad tenant spec: " + err);
  }
  Scenario s;
  s.name = "tenants_fleet";
  s.setup_samples = 4;  // ~3 ms each against a ~0.3 s Run()
  // The machine builds the tenants' workloads itself from the specs; the
  // constructor argument is only a placeholder.
  s.make_workload = [] {
    return std::make_unique<magesim::SeqScanWorkload>(
        magesim::SeqScanWorkload::Options{.region_pages = 64, .threads = 1, .passes = 1});
  };
  s.options = [seed, tenancy] {
    FarMemoryMachine::Options opt;
    opt.kernel = magesim::MageLibConfig();
    opt.local_mem_ratio = 0.35;
    opt.seed = seed;
    opt.time_limit = 50 * kMillisecond;
    opt.fleet.num_nodes = 4;
    opt.fleet.replication = 2;
    opt.fleet.rebuild_gbps = 50.0;
    opt.fault_plan = "error@5ms-10ms:p=0.01;drop@5ms-10ms:p=0.002;crash@15ms-30ms:node=1";
    opt.tenancy = tenancy;
    return opt;
  };
  s.check = [](FarMemoryMachine& m, Workload& wl, const RunResult& r, Record* sim) {
    if (r.aborted) return "run aborted: " + r.abort_reason;
    if (r.memnode_crashes != 1) return std::string("server 1 did not crash exactly once");
    if (r.fleet_degraded_reads == 0) return std::string("the crash caused no degraded reads");
    if (r.fleet_slots_lost != 0) return std::string("slots lost with 2-way replication");
    if (r.fleet_silent_losses != 0) return std::string("silent replica losses");
    if (r.fleet_rebuild_pending != 0) return std::string("rebuild did not drain");
    return std::string();
  };
  return s;
}

}  // namespace

Scenario MakeScenario(const std::string& name, uint64_t seed, double size) {
  if (name == "scan_evict") return ScanEvict(seed, size);
  if (name == "pagerank_hermit") return PageRankHermit(seed, size);
  if (name == "tenants_fleet") return TenantsFleet(seed, size);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace magebench
