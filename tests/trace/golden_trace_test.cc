// Golden-trace regression test: a canonical read scenario, a write scan on
// two kernels, a PageRank run on Hermit, a tenant pair on a chaotic server
// fleet and each other app workload cut by a time limit, each fingerprinted
// by the trace hash plus per-type event counts and checked against a golden
// file in the source tree. Any
// behavioral change to the fault path, evictors, allocators, fabric,
// application hit path or resilient data path shows up here as a readable
// per-counter diff.
//
// Intentional behavior changes: regenerate with
//   MAGESIM_UPDATE_GOLDEN=1 ./build/tests/golden_trace_test
// and commit the updated golden alongside the change that caused it.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/farmem.h"
#include "src/paging/kernels.h"
#include "src/tenancy/tenant_spec.h"
#include "src/trace/trace.h"
#include "src/workloads/dataframe.h"
#include "src/workloads/gups.h"
#include "src/workloads/memcached.h"
#include "src/workloads/metis.h"
#include "src/workloads/pagerank.h"
#include "src/workloads/seqscan.h"
#include "src/workloads/trace.h"
#include "src/workloads/xsbench.h"
#include "tests/trace/golden_update.h"

namespace magesim {
namespace {

// The header of a golden file this test writes.
std::string Header(const std::string& what) {
  return "# Golden fingerprint for the " + what +
         " scenario.\n"
         "# Regenerate: MAGESIM_UPDATE_GOLDEN=1 ./build/tests/golden_trace_test\n";
}

// Installs a hashing tracer, runs `wl` on `opt`, and fingerprints the trace
// plus the run's headline counters; `hits` adds the kernel's page-hit counts,
// `fleet` the resilience, fleet and per-tenant counters.
Fingerprint RunTraced(const FarMemoryMachine::Options& opt,
                                          Workload& wl, bool hits = false,
                                          bool fleet = false) {
  Tracer tracer;
  TraceHashSink hash;
  tracer.AddSink(&hash);
  tracer.Install();

  FarMemoryMachine m(opt, wl);
  RunResult r = m.Run();

  Fingerprint fp;
  fp["hash"] = hash.hash();
  fp["total"] = hash.total_events();
  for (int i = 0; i < kNumTraceEventTypes; ++i) {
    TraceEventType t = static_cast<TraceEventType>(i);
    fp[std::string("count.") + TraceEventName(t)] = hash.count(t);
  }
  fp["result.faults"] = r.faults;
  fp["result.evicted_pages"] = r.evicted_pages;
  fp["result.total_ops"] = r.total_ops;
  fp["result.sim_ns"] = static_cast<uint64_t>(r.sim_seconds * 1e9 + 0.5);
  if (hits) {
    fp["kernel.fast_hits"] = m.kernel().stats().fast_hits;
    fp["kernel.prefetch_hits"] = m.kernel().stats().prefetch_hits;
  }
  if (fleet) {
    fp["resilience.retries"] = r.rdma_retries;
    fp["resilience.timeouts"] = r.rdma_timeouts;
    fp["resilience.breaker_opens"] = r.breaker_opens;
    fp["resilience.pages_poisoned"] = r.pages_poisoned;
    fp["resilience.writebacks_lost"] = r.writebacks_lost;
    fp["inject.drops"] = r.injected_drops;
    fp["inject.errors"] = r.injected_errors;
    fp["fleet.crashes"] = r.memnode_crashes;
    fp["fleet.degraded_reads"] = r.fleet_degraded_reads;
    fp["fleet.slots_lost"] = r.fleet_slots_lost;
    fp["fleet.repairs_queued"] = r.fleet_repairs_queued;
    fp["fleet.slots_rebuilt"] = r.fleet_slots_rebuilt;
    fp["fleet.rebuild_pending"] = r.fleet_rebuild_pending;
    for (const TenantRunResult& tr : r.tenants) {
      fp["tenant." + tr.name + ".ops"] = tr.ops;
      fp["tenant." + tr.name + ".faults"] = tr.faults;
    }
  }
  return fp;
}

// A small sequential scan at 40% far memory. Small enough to run in <1s, rich
// enough to exercise faults, prefetch, eviction and shootdowns; a write scan
// dirties every page, so every evicted page is written back over RDMA.
Fingerprint RunScan(const KernelConfig& kernel, bool write) {
  SeqScanWorkload wl(SeqScanWorkload::Options{
      .region_pages = 2048, .threads = 2, .passes = 2, .write = write});
  FarMemoryMachine::Options opt;
  opt.kernel = kernel;
  opt.local_mem_ratio = 0.6;
  opt.seed = 1;
  return RunTraced(opt, wl);
}

// A small GapBS PageRank on Hermit at 70% far memory: the random contribution
// reads make most accesses page hits between faults, so the fingerprint pins
// the hit path (every access, its order, and the compute time between) as
// well as the ranks, bit for bit.
Fingerprint RunPageRank() {
  PageRankWorkload wl(PageRankWorkload::Options{
      .scale = 15, .edge_factor = 16, .iterations = 2, .threads = 4, .seed = 3});
  FarMemoryMachine::Options opt;
  opt.kernel = HermitConfig();
  opt.local_mem_ratio = 0.3;
  opt.seed = 1;
  Fingerprint fp = RunTraced(opt, wl, /*hits=*/true);
  const std::vector<double>& ranks = wl.ranks();
  uint64_t digest = 1469598103934665603ULL;  // FNV-1a over the rank bytes
  const auto* bytes = reinterpret_cast<const unsigned char*>(ranks.data());
  for (size_t i = 0; i < ranks.size() * sizeof(double); ++i) {
    digest = (digest ^ bytes[i]) * 1099511628211ULL;
  }
  fp["result.rank_digest"] = digest;
  return fp;
}

// Two tenants on a 4-server fleet with 2-way replication, under RDMA errors
// and drops, a write-error burst that opens breakers, and a crash of server
// 1 that rebuilds before the time limit: every remote op runs under the
// deadline/retry/breaker path (§7), and reads fail over to the surviving
// replica. The fingerprint pins that path's timing and the fleet's failover
// and rebuild counters.
Fingerprint RunFleetChaos() {
  FarMemoryMachine::Options opt;
  opt.kernel = MageLibConfig();
  opt.local_mem_ratio = 0.35;
  opt.seed = 1;
  opt.time_limit = 24 * kMillisecond;
  opt.fleet.num_nodes = 4;
  opt.fleet.replication = 2;
  opt.fleet.rebuild_gbps = 50.0;
  opt.fault_plan =
      "error@2ms-6ms:p=0.02;error@3ms-4ms:p=0.5,ch=write;drop@2ms-6ms:p=0.005;"
      "crash@8ms-16ms:node=1";
  std::string err;
  EXPECT_TRUE(ParseTenancyList(
      "lat:4:0:latency=seqscan/2,pages=1024,passes=100000,compute_ns=2000;"
      "bg:1:0.35:0.3:batch=gups/4,pages=4096,theta=0.4,run_ms=600,phase_ms=600",
      &opt.tenancy, &err))
      << err;
  SeqScanWorkload placeholder(
      SeqScanWorkload::Options{.region_pages = 64, .threads = 1, .passes = 1});
  return RunTraced(opt, placeholder, /*hits=*/false, /*fleet=*/true);
}

// --- The remaining app workloads, each cut by a time limit ---
//
// Each runs with faults and, but for memcached (which flushes its time every
// request) and the fault-only scan (which faults on every page), with hit
// stretches long enough to cross the 20 us quantum. Hits leave no trace
// record, so the kernel's hit counts, ops and the workload's own result are
// what pin every hit.

// Runs `wl` on `kernel` at `local_ratio`, cut at `limit` (0: to its end).
Fingerprint RunWorkload(Workload& wl, const KernelConfig& kernel, double local_ratio,
                        SimTime limit) {
  FarMemoryMachine::Options opt;
  opt.kernel = kernel;
  opt.local_mem_ratio = local_ratio;
  opt.seed = 1;
  opt.time_limit = limit;
  Fingerprint fp = RunTraced(opt, wl, /*hits=*/true);
  if (limit > 0) {
    EXPECT_GE(fp["result.sim_ns"], static_cast<uint64_t>(limit))
        << "the run ended before its limit";
  }
  return fp;
}

Fingerprint RunXsBench() {
  XsBenchWorkload wl(XsBenchWorkload::Options{
      .gridpoints = 1 << 16, .lookups_per_thread = 3000, .threads = 4});
  Fingerprint fp = RunWorkload(wl, MageLibConfig(), 0.3, 20 * kMillisecond);
  fp["result.hash"] = wl.result_hash();
  return fp;
}

Fingerprint RunMetis() {
  MetisWorkload wl(MetisWorkload::Options{
      .input_pages = 1024, .intermediate_pages = 2048, .threads = 4});
  Fingerprint fp = RunWorkload(wl, HermitConfig(), 0.6, 11 * kMillisecond);
  fp["result.map_done_ns"] = static_cast<uint64_t>(wl.map_done_at());  // cut in the reduce
  fp["result.sum"] = wl.result();
  return fp;
}

Fingerprint RunMemcached() {
  MemcachedWorkload wl(MemcachedWorkload::Options{
      .num_keys = 1 << 15, .server_threads = 4, .duration = 20 * kMillisecond});
  Fingerprint fp = RunWorkload(wl, MageLibConfig(), 0.5, 12 * kMillisecond);
  const Histogram& lat = wl.request_latency();
  fp["result.completed"] = wl.completed_requests();
  fp["result.dropped"] = wl.dropped_requests();
  fp["result.latency_sum_ns"] = static_cast<uint64_t>(lat.sum());
  fp["result.latency_max_ns"] = static_cast<uint64_t>(lat.max());
  return fp;
}

Fingerprint RunDataframe() {
  const DataframeWorkload::Options wo{
      .num_rows = 1 << 18, .threads = 4, .queries_per_thread = 3, .groups = 1 << 12};
  KernelConfig kernel = MageLibConfig();
  kernel.prefetch = true;  // column scans are sequential
  DataframeWorkload wl(wo);
  Fingerprint fp = RunWorkload(wl, kernel, 0.9, 1200 * kMicrosecond);
  // A cut thread stops at a query's start and publishes nothing, so the
  // same run to its end pins the results.
  DataframeWorkload whole(wo);
  fp["whole.fast_hits"] = RunWorkload(whole, kernel, 0.9, 0)["kernel.fast_hits"];
  fp["whole.hash"] = whole.result_hash();
  fp["whole.rows_matched"] = whole.rows_matched();
  return fp;
}

Fingerprint RunTraceReplay() {
  TraceReplayWorkload wl(GenerateMixedTrace(
      TraceGenOptions{.wss_pages = 4096, .threads = 4, .accesses_per_thread = 20000,
                      .compute_ns = 400, .write_fraction = 0.1, .seed = 1},
      0.9, 0.3));
  return RunWorkload(wl, FastswapConfig(), 0.6, 6 * kMillisecond);
}

// Cut inside the prewarm sweep, so its shutdown check ends the run.
Fingerprint RunGupsPrewarm() {
  GupsWorkload wl(GupsWorkload::Options{.total_pages = 16384,
                                        .threads = 4,
                                        .phase_change_at = 4 * kMillisecond,
                                        .run_for = 8 * kMillisecond,
                                        .prewarm_region_a = true,
                                        .timeline_bucket = kMillisecond});
  KernelConfig kernel = DilosConfig();
  kernel.high_watermark = 0.002;  // long stretches of resident pages
  Fingerprint fp = RunWorkload(wl, kernel, 0.998, 400 * kMicrosecond);
  double updates = 0;
  for (double b : wl.timeline().buckets()) updates += b;
  fp["result.timeline_updates"] = static_cast<uint64_t>(updates);
  return fp;
}

Fingerprint RunFaultOnly() {
  FaultOnlySeqRead wl(FaultOnlySeqRead::Options{
      .pages_per_thread = 2048, .threads = 4, .compute_per_page_ns = 3000});
  return RunWorkload(wl, MageLibConfig(), 1.0, 4 * kMillisecond);
}

TEST(GoldenTraceTest, CanonicalScenarioMatchesGolden) {
  CheckGolden("seqscan_magelib", Header("canonical seqscan/magelib"),
              RunScan(MageLibConfig(), /*write=*/false));
}

// Write scans pin the writeback path: MageLib's pipelined evictor posts each
// batch and waits on it later, Hermit's synchronous evictor waits in place.
TEST(GoldenTraceTest, WriteScanMageLibMatchesGolden) {
  CheckGolden("seqscan_write_magelib", Header("write seqscan/magelib"),
              RunScan(MageLibConfig(), /*write=*/true));
}

TEST(GoldenTraceTest, WriteScanHermitMatchesGolden) {
  CheckGolden("seqscan_write_hermit", Header("write seqscan/hermit"),
              RunScan(HermitConfig(), /*write=*/true));
}

TEST(GoldenTraceTest, PageRankHermitMatchesGolden) {
  CheckGolden("pagerank_hermit", Header("pagerank/hermit"), RunPageRank());
}

// The fault-capable data path: deadline waits, retries, breakers, replica
// failover and rebuild.
TEST(GoldenTraceTest, FleetChaosTenantsMatchesGolden) {
  CheckGolden("fleet_chaos_tenants", Header("fleet chaos/tenants"), RunFleetChaos());
}

TEST(GoldenTraceTest, XsBenchMatchesGolden) {
  CheckGolden("xsbench_magelib_cut", Header("xsbench/magelib, cut"), RunXsBench());
}

TEST(GoldenTraceTest, MetisMatchesGolden) {
  CheckGolden("metis_hermit_cut", Header("metis/hermit, cut"), RunMetis());
}

TEST(GoldenTraceTest, MemcachedMatchesGolden) {
  CheckGolden("memcached_magelib_cut", Header("memcached/magelib, cut"), RunMemcached());
}

TEST(GoldenTraceTest, DataframeMatchesGolden) {
  CheckGolden("dataframe_prefetch_cut", Header("dataframe/magelib+prefetch, cut"),
              RunDataframe());
}

TEST(GoldenTraceTest, TraceReplayMatchesGolden) {
  CheckGolden("trace_mixed_fastswap_cut", Header("mixed trace replay/fastswap, cut"),
              RunTraceReplay());
}

TEST(GoldenTraceTest, GupsPrewarmMatchesGolden) {
  CheckGolden("gups_prewarm_dilos_cut", Header("gups prewarm/dilos, cut"), RunGupsPrewarm());
}

TEST(GoldenTraceTest, FaultOnlySeqReadMatchesGolden) {
  CheckGolden("fault_only_magelib_cut", Header("fault-only seqread/magelib, cut"),
              RunFaultOnly());
}

}  // namespace
}  // namespace magesim
