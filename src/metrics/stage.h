// The paging stage taxonomy: one table, one recording call per stage.
//
// Each interval a fault, an eviction batch or a prefetch spends in a stage is
// recorded once, through a StageScope (or RecordStage, for an interval known
// only after the fact), and lands in three views read off the stage's row:
// the SimProfiler (its phase, on the op's core), the op's fault Breakdown (its
// category; demand faults only) and a leaf of its span kind under the op's
// span. A demand fault's stages cover its latency without overlap, so its
// categories partition fault_latency exactly (tests/metrics/stage_test.cc).
// Adding a stage: add an enumerator and its row, wrap the interval in a
// StageScope. Trace point events (TraceEmit) stay explicit calls.
#ifndef MAGESIM_METRICS_STAGE_H_
#define MAGESIM_METRICS_STAGE_H_

#include <array>
#include <cassert>
#include <cstdint>

#include "src/metrics/profiler.h"
#include "src/sim/engine.h"
#include "src/sim/stats.h"
#include "src/spans/spans.h"

namespace magesim {

enum class Stage : uint8_t {
  // Demand fault, in path order. kRead: the data path emits its own leaves.
  kEntry, kDedupWait, kTenantThrottle, kTenantPark, kMmLocks, kAlloc, kFreeWait,
  kRdmaStack, kRead, kMapInstall, kAccountingInsert,
  // Eviction batch (a sync eviction runs one inside a fault or prefetch).
  // kShootdownPost: the pipelined evictor sends a batch's IPIs and awaits
  // them a round later. kWriteback: the data path emits its own leaves.
  kIsolate, kUnmapVictims, kShootdownPost, kShootdownWait, kLazyTlbWait, kWriteback,
  kReclaim,
  // Leaves the data path (resilient read/write, IPI delivery) emits itself
  // inside kRead, kWriteback and kShootdownWait. Never recorded through a
  // StageScope: the enclosing stage already records their time. Their rows
  // give the span view's kinds their category.
  kRdmaRead, kRdmaWrite, kRdmaRetry, kRetryBackoff, kBreakerWait, kDegradedRead,
  kIpiDeliver,
  kNumStages,
};

inline constexpr int kNumStages = static_cast<int>(Stage::kNumStages);
inline constexpr Stage kFirstDataPathStage = Stage::kRdmaRead;
inline constexpr SpanKind kNoSpan = SpanKind::kNumKinds;

struct StageInfo {
  const char* name;
  SimPhase phase;
  FaultCategory category;
  SpanKind span;  // kNoSpan: the stage emits no leaf of its own
};

inline constexpr std::array<StageInfo, kNumStages> kStageTable = {{
    {"entry", SimPhase::kFaultMap, FaultCategory::kEntry, SpanKind::kEntry},
    {"dedup_wait", SimPhase::kRdmaWait, FaultCategory::kDedup, SpanKind::kDedupWait},
    {"tenant_throttle", SimPhase::kFreeWait, FaultCategory::kTenant, SpanKind::kTenantThrottle},
    {"tenant_park", SimPhase::kFreeWait, FaultCategory::kTenant, SpanKind::kTenantPark},
    {"mm_locks", SimPhase::kFaultMap, FaultCategory::kOther, SpanKind::kMmLocks},
    {"alloc", SimPhase::kFaultAlloc, FaultCategory::kAlloc, SpanKind::kAlloc},
    {"free_wait", SimPhase::kFreeWait, FaultCategory::kAlloc, SpanKind::kFreeWait},
    {"rdma_stack", SimPhase::kRdmaWait, FaultCategory::kRdma, SpanKind::kRdmaStack},
    {"read", SimPhase::kRdmaWait, FaultCategory::kRdma, kNoSpan},
    {"map_install", SimPhase::kFaultMap, FaultCategory::kOther, SpanKind::kMapInstall},
    {"accounting", SimPhase::kAccounting, FaultCategory::kAccounting, SpanKind::kAccounting},
    {"isolate", SimPhase::kAccounting, FaultCategory::kAccounting, SpanKind::kAccounting},
    {"unmap_victims", SimPhase::kEviction, FaultCategory::kAlloc, SpanKind::kUnmapVictims},
    {"shootdown_post", SimPhase::kTlbWait, FaultCategory::kTlb, kNoSpan},
    {"shootdown_wait", SimPhase::kTlbWait, FaultCategory::kTlb, SpanKind::kShootdownWait},
    {"lazy_tlb_wait", SimPhase::kTlbWait, FaultCategory::kTlb, SpanKind::kLazyTlbWait},
    {"writeback", SimPhase::kRdmaWait, FaultCategory::kRdma, kNoSpan},
    {"reclaim", SimPhase::kEviction, FaultCategory::kAlloc, SpanKind::kReclaim},
    {"rdma_read", SimPhase::kRdmaWait, FaultCategory::kRdma, SpanKind::kRdmaRead},
    {"rdma_write", SimPhase::kRdmaWait, FaultCategory::kRdma, SpanKind::kRdmaWrite},
    {"rdma_retry", SimPhase::kRdmaWait, FaultCategory::kRdma, SpanKind::kRdmaRetry},
    {"retry_backoff", SimPhase::kRdmaWait, FaultCategory::kRdma, SpanKind::kRetryBackoff},
    {"breaker_wait", SimPhase::kRdmaWait, FaultCategory::kRdma, SpanKind::kBreakerWait},
    {"degraded_read", SimPhase::kRdmaWait, FaultCategory::kRdma, SpanKind::kDegradedRead},
    {"ipi_deliver", SimPhase::kTlbWait, FaultCategory::kTlb, SpanKind::kIpiDeliver},
}};

// The operation a stage is recorded for.
struct StageOp {
  int core = -1;   // core the op runs on (allocator caches, trace actor, profiler)
  int actor = -1;  // actor of its span leaves: the core, or an evictor's id
  uint64_t page = kTraceNoPage;
  SpanHandle span{};
  // A demand fault's own tally (null otherwise), merged with its latency when
  // it completes; it lives in the fault's frame, which outlives its stages.
  Breakdown* breakdown = nullptr;
  bool beside_app = false;  // a prefetch: no core time, the app thread runs on
};

// Records [t0, now] of `stage` for `op` in all three views.
inline void RecordStage(Stage stage, const StageOp& op, SimTime t0,
                        SpanCausalPoint link = {}, uint64_t arg = 0) {
  assert(stage < kFirstDataPathStage && "the data path records its own leaves");
  const StageInfo& info = kStageTable[static_cast<size_t>(stage)];
  SimTime t1 = Engine::current().now();
  if (SimProfiler* p = SimProfiler::Get(); p != nullptr && !op.beside_app) {
    p->AddPhase(op.core, info.phase, t1 - t0);
  }
  if (op.breakdown != nullptr) op.breakdown->Add(info.category, t1 - t0);
  if (info.span != kNoSpan) {
    if (SpanTracer* st = SpanTracer::Get(); st != nullptr) {
      st->LeafUnder(op.span, info.span, t0, t1, op.actor, op.page, link, arg);
    }
  }
}

// Records one stage from construction to destruction. `link` and `arg` ride
// on the span leaf; set them before the scope closes. Scopes never nest.
class StageScope {
 public:
  StageScope(Stage stage, const StageOp& op)
      : op_(op), t0_(Engine::current().now()), stage_(stage) {}
  StageScope(Stage, StageOp&&) = delete;  // `op` must outlive the scope
  StageScope(const StageScope&) = delete;
  ~StageScope() { RecordStage(stage_, op_, t0_, link, arg); }

  SpanCausalPoint link;
  uint64_t arg = 0;

 private:
  const StageOp& op_;
  SimTime t0_;
  Stage stage_;
};

}  // namespace magesim

#endif  // MAGESIM_METRICS_STAGE_H_
