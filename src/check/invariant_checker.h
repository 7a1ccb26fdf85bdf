// Cross-layer invariant checking for a running Kernel.
//
// The checker walks the page table, frame pool, buddy allocator, per-core
// allocator caches and accounting lists and cross-validates them:
//   1. Every present PTE maps a live frame exactly once (pfn referenced by at
//      most one PTE, frame->vpn points back, frame state is kMapped — or
//      kIsolated during the legal isolate->unmap window of an eviction batch).
//   2. Buddy free lists are non-overlapping, state-consistent and fully
//      coalesced (no buddy pair both free at the same order).
//   3. Accounting lists contain exactly the resident pages: every linked frame
//      is mapped, and every mapped frame is either linked or still completing
//      its fault-path Insert (PTE fault_in_flight set).
//   4. No eviction batch holds a page concurrently being faulted in
//      (frame isolated while its still-present PTE has fault_in_flight).
//   5. Frame ownership census: every frame is owned by exactly one of
//      {buddy free lists, allocator caches, a present PTE}, or is legitimately
//      in transit (kAllocated inside a fault, kIsolated inside an eviction
//      batch). Free frames owned by nobody are leaks.
//
// Because the simulation suspends only at co_await points, every rule above
// holds at *every* event boundary, not just at quiescence — the checker can
// run at arbitrary sim-time intervals (PeriodicMain) without false positives.
// Violations carry the offending page/frame plus the last N trace events that
// touched them (when a TraceRingBuffer is attached).
#ifndef MAGESIM_CHECK_INVARIANT_CHECKER_H_
#define MAGESIM_CHECK_INVARIANT_CHECKER_H_

#include <cstdint>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "src/paging/kernel.h"
#include "src/trace/trace.h"

namespace magesim {

enum class ViolationClass : uint8_t {
  kPteFrameMismatch,   // present PTE <-> frame bijection broken
  kFrameAliased,       // one frame reachable from two owners
  kBuddyCorruption,    // buddy free lists overlapping / state mismatch
  kBuddyNotCoalesced,  // buddy pair both free at the same order
  kAccountingLeak,     // LRU/FIFO lists out of sync with residency
  kEvictFaultOverlap,  // eviction batch holds a page being faulted in
  kFrameLeak,          // frame owned by nobody in an inexplicable state
  kStaleRemoteRead,    // (opt-in) refault racing an unfinished writeback
  kTransitLeak,        // more in-transit frames than in-flight faults
  kStuckFault,         // (quiescent only) fault_in_flight never cleared
  kLockQuiescence,     // (quiescent only) a sim lock is still held at drain
  kTenantCharge,       // memcg charges out of sync with residency
  kFleetReplica,       // fleet slot silently lost / unreachable remote page
  kNumClasses,
};

const char* ViolationClassName(ViolationClass c);

struct Violation {
  ViolationClass cls;
  uint64_t vpn;  // kTraceNoPage if not page-specific
  uint64_t pfn;  // kTraceNoFrame if not frame-specific
  std::string message;
};

struct InvariantCheckerOptions {
  // Refaulting a dirty page whose writeback has not completed reads a stale
  // remote copy. The current eviction model tolerates this race (the refault
  // observes the still-valid local data semantics the DES abstracts away), so
  // the rule is off by default; turn it on to audit a stricter model.
  bool check_stale_remote_reads = false;
  size_t trace_context = 6;   // trace events attached per violation
  size_t max_recorded = 64;   // stored Violation cap (counting continues)
};

class InvariantChecker {
 public:
  // `recent` (optional, not owned) supplies per-violation trace context.
  explicit InvariantChecker(Kernel& kernel, const TraceRingBuffer* recent = nullptr,
                            InvariantCheckerOptions opts = {});

  // Runs every rule once against the current state. Returns the number of
  // violations not already reported by an earlier check (deduplicated by
  // (class, vpn, pfn)).
  size_t CheckNow();

  // Strict end-of-run check for workloads that ran to natural completion
  // (engine drained, nothing parked mid-fault): everything CheckNow verifies,
  // plus "no fault left in flight" and "no frame left in transit" — the
  // resilience invariant that a mid-fault RDMA failure (retry, poison, or
  // prefetch abandon) never strands a frame or a PTE. Not valid after a
  // time-limit shutdown, which legally parks coroutines mid-fault.
  size_t CheckQuiescent();

  // With a TenancyManager attached to the kernel, cross-validates per-tenant
  // memcg charges against residency: every present PTE is charged to exactly
  // the tenant owning its vpn window, no absent page stays charged, per-leaf
  // charge counts equal each cgroup's usage, and the root usage equals total
  // resident pages. Runs as part of CheckNow; no-op without tenancy.
  size_t CheckTenantCharges();

  // Verifies the replica-safety rule of the machine's memory-server fleet
  // (one server included): every non-present page (its data lives remotely)
  // resolves to a slot with at least one live replica, or the slot has been
  // surfaced as lost — and the fleet's own table contains no silently-lost
  // slot. Runs as part of CheckNow.
  size_t CheckFleetReplicas();

  // When a LockAnalyzer is installed, verifies its lock state is quiescent
  // (no task still holds any sim lock). Runs as part of CheckQuiescent; no-op
  // without an installed analyzer.
  size_t CheckLockQuiescence();

  // Re-checks every `interval` ns of simulated time until shutdown.
  Task<> PeriodicMain(SimTime interval);

  uint64_t checks_run() const { return checks_run_; }
  uint64_t total_violations() const { return total_violations_; }
  const std::vector<Violation>& violations() const { return violations_; }
  bool ok() const { return total_violations_ == 0; }

  // Human-readable summary: per-class counts plus the recorded messages.
  std::string Report() const;

 private:
  void Add(ViolationClass cls, uint64_t vpn, uint64_t pfn, std::string msg);

  Kernel& kernel_;
  const TraceRingBuffer* recent_;
  InvariantCheckerOptions opts_;

  uint64_t checks_run_ = 0;
  uint64_t total_violations_ = 0;
  std::vector<Violation> violations_;
  std::set<std::tuple<uint8_t, uint64_t, uint64_t>> seen_;
};

}  // namespace magesim

#endif  // MAGESIM_CHECK_INVARIANT_CHECKER_H_
