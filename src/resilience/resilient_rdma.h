// The far-memory data path. Every remote page read and writeback batch of
// the paging kernel goes through the ResilienceManager, over the machine's
// memory-server fleet (one server by default): reads resolve their swap slot
// to a live replica, writebacks fan out to every live desired replica.
//
// There is one selection inside, on a fact the hardware model exposes: an
// RdmaNic fails an op (drop or error) only on its attached fault model's say.
// Without a fault model on any server NIC no op can fail, so ops are awaited
// directly: a read is a sleep until its completion time plus the one hop its
// signal's wake-up made (no completion task), and a writeback batch arms only
// the completion it waits on.
// With one, every op runs under a deadline with bounded retries, exponential
// backoff and a circuit breaker per server channel, and the kernel gets
// graceful-degradation hooks (eviction backpressure, prefetch throttling,
// poison-or-fail terminal policy).
#ifndef MAGESIM_RESILIENCE_RESILIENT_RDMA_H_
#define MAGESIM_RESILIENCE_RESILIENT_RDMA_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "src/fleet/fleet.h"
#include "src/hw/rdma.h"
#include "src/resilience/retry.h"
#include "src/sim/random.h"
#include "src/sim/stats.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"
#include "src/spans/spans.h"

namespace magesim {

// What to do when a demand read exhausts its retries.
enum class TerminalPolicy : uint8_t {
  kPoisonPage,  // mark the page poisoned, count it, keep running
  kFailRun,     // record the failure and request engine shutdown
};

struct ResilienceOptions {
  RetryPolicy retry;
  BreakerPolicy breaker;
  TerminalPolicy terminal = TerminalPolicy::kPoisonPage;
  // 0 = derive from the machine seed.
  uint64_t seed = 0;
};

enum class RemoteOpStatus : uint8_t {
  kOk,         // data arrived
  kPoisoned,   // retries exhausted; page poisoned, fault completes anyway
  kAbandoned,  // retries exhausted on a speculative op; caller must unwind
};

// What a deadline wait saw of one op.
enum class OpOutcome : uint8_t { kOk, kError, kTimeout };

// Awaitable: waits for the completion `c` until it is overdue by `grace`
// (> 0) past its scheduled completion, or past now for one already due, and
// yields the op's outcome. Queueing delay alone never trips it; a dropped op
// always does. `c` comes from RdmaNic::PostRead/PostWrite, so it is armed
// unless dropped. It is the one wait that judges a posted remote op: the
// fault path's reads and writes and the RebuildDriver's copies all use it.
//
// The wait spawns no task. An op's fate and completion time are fixed when
// it is posted, so the wait knows at its start which case it is in, and
// makes itself the engine hops (same times, same order against every other
// event) that a completion watcher and a deadline watcher task used to make
// for it (docs/INTERNALS.md §4):
//  * done: no suspension and no coroutine frame;
//  * armed, due later: the signal wakes it, then one hop at that time;
//  * armed, due now but not yet signaled: two hops (the pending signal is
//    older, so it runs first);
//  * dropped: one hop, a Delay to the deadline, one hop.
class DeadlineWait {
 public:
  DeadlineWait(std::shared_ptr<RdmaCompletion> c, SimTime grace)
      : c_(std::move(c)), grace_(grace) {}

  bool await_ready() const { return c_->done(); }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> h) {
    pending_ = Pending(c_, grace_);
    return pending_.BeginAwait(h);
  }
  OpOutcome await_resume() {
    if (pending_.valid()) pending_.RethrowIfException();
    if (!c_->done()) return OpOutcome::kTimeout;
    return c_->ok() ? OpOutcome::kOk : OpOutcome::kError;
  }

 private:
  static Task<> Pending(std::shared_ptr<RdmaCompletion> c, SimTime grace);

  std::shared_ptr<RdmaCompletion> c_;
  SimTime grace_;
  Task<> pending_;
};

// A writeback batch in flight: what an evictor awaits (FinishWriteback)
// before it reclaims the batch's frames. Empty when nothing needed writing.
class Writeback {
  friend class ResilienceManager;
  // No fault model: the batch's write that completes last. Otherwise the
  // spawned retrying writer's completion event.
  std::shared_ptr<RdmaCompletion> last_;
  std::shared_ptr<SimEvent> done_;
};

class ResilienceManager {
 public:
  // Per-server breaker pairs carry channel ids 2n (read) / 2n+1 (write).
  ResilienceManager(FleetManager& fleet, const ResilienceOptions& opt);

  FleetManager& fleet() { return fleet_; }

  // One remote read of `vpn`, whose copy lives in swap slot `slot`, on the
  // fault path. With a fault model attached the read retries and fails over
  // across replicas under the per-server read breakers; a slot with no live
  // copy is not read at all. On exhaustion it applies the terminal policy
  // (`allow_poison` = demand fault) or reports kAbandoned (speculative
  // prefetch: caller unwinds the frame). `op` is the requesting operation's
  // span; the rdma/retry/backoff/breaker leaves attach to it.
  Task<RemoteOpStatus> ReadPage(int core, uint64_t vpn, uint64_t slot,
                                bool allow_poison, SpanHandle op = {});

  // Writes `slots` back to each live desired replica and returns once every
  // copy is acknowledged or lost for good. Ops are posted back-to-back; with
  // a fault model they are then awaited in FIFO order under deadlines and
  // failures retried per replica. The acknowledged replica set is committed
  // to the fleet table; a slot left with no live copy is surfaced as lost
  // (never silent) and its frame is still freed, so eviction never
  // deadlocks. `op` is the owning batch's span.
  Task<> WriteBack(int evictor_id, std::vector<uint64_t> slots, SpanHandle op = {});

  // WriteBack split for the pipelined evictor, which overlaps a batch's
  // writes with the next batch's shootdown: StartWriteback posts the batch
  // (spawning the retrying writer when a fault model is attached) and
  // returns at once; FinishWriteback waits for it. `batch_span` is the
  // owning batch's span.
  Writeback StartWriteback(int evictor_id, std::vector<uint64_t> slots,
                           SpanHandle batch_span = {});
  Task<> FinishWriteback(Writeback wb, int evictor_id, SpanHandle batch_span = {});

  bool read_degraded() const;
  bool write_degraded() const;
  // Breaker-degraded time up to `now`, summed over the servers' channels.
  SimTime read_degraded_ns(SimTime now) const;
  SimTime write_degraded_ns(SimTime now) const;

  // Bounded pause for an evictor while the write channel is degraded: wait
  // out (most of) the breaker cool-down once, then proceed — the next
  // writeback acts as the half-open probe.
  Task<> EvictionBackpressure(int evictor_id);

  // Bookkeeping for a prefetch the kernel suppressed because the read
  // channel is degraded.
  void NotePrefetchThrottle(int core, uint64_t vpn);

  bool run_failed() const { return run_failed_; }
  const std::string& failure_reason() const { return failure_reason_; }

  uint64_t retries() const { return retries_; }
  uint64_t timeouts() const { return timeouts_; }
  uint64_t reads_failed() const { return reads_failed_; }
  uint64_t pages_poisoned() const { return pages_poisoned_; }
  uint64_t writebacks_lost() const { return writebacks_lost_; }
  uint64_t backpressure_waits() const { return backpressure_waits_; }
  uint64_t prefetch_throttles() const { return prefetch_throttles_; }
  const Histogram& backoff_ns() const { return backoff_ns_; }
  const Histogram& attempts_per_op() const { return attempts_per_op_; }
  // Breaker opens across every server channel.
  uint64_t breaker_opens_total() const;

 private:
  // Counts and traces an op of `actor`/`vpn`, posted at `posted`, that a
  // DeadlineWait timed out.
  void NoteTimeout(int actor, uint64_t vpn, SimTime posted);

  // Full retry loop for one op posted on `nic` under breaker `br`; true on
  // success. `budget` = extra attempts allowed after the first. Leaves
  // attach to `op`; `span_channel` labels breaker causality (0 read, 1
  // write — per-server breakers aggregate onto the channel pair).
  Task<bool> OneOpOn(RdmaNic& nic, CircuitBreaker& br, int span_channel,
                     bool is_write, int actor, uint64_t vpn, int budget,
                     SpanHandle op);
  // No fault model: posts every (slot, replica) write, commits the replica
  // sets (the ops cannot fail) and returns the write that completes last
  // (null when `slots` is empty). Only that write's completion is armed,
  // unless a Tracer records every write's completion.
  std::shared_ptr<RdmaCompletion> PostWrites(const std::vector<uint64_t>& slots);
  // The deadline/retry writeback.
  Task<> WriteSlots(int evictor_id, std::vector<uint64_t> slots, SpanHandle op);
  Task<> WriteSlotsMain(int evictor_id, std::vector<uint64_t> slots,
                        std::shared_ptr<SimEvent> done, SpanHandle batch_span);
  void FailRun(const char* why);
  CircuitBreaker& NodeBreaker(int node, bool is_write) {
    auto& v = is_write ? node_write_breakers_ : node_read_breakers_;
    return v[static_cast<size_t>(node)];
  }

  FleetManager& fleet_;
  ResilienceOptions opt_;
  Rng rng_;
  // One breaker pair per server (deque — breakers don't move).
  std::deque<CircuitBreaker> node_read_breakers_;
  std::deque<CircuitBreaker> node_write_breakers_;

  bool run_failed_ = false;
  std::string failure_reason_;

  uint64_t retries_ = 0;
  uint64_t timeouts_ = 0;
  uint64_t reads_failed_ = 0;
  uint64_t pages_poisoned_ = 0;
  uint64_t writebacks_lost_ = 0;
  uint64_t backpressure_waits_ = 0;
  uint64_t prefetch_throttles_ = 0;
  Histogram backoff_ns_;
  Histogram attempts_per_op_;
};

}  // namespace magesim

#endif  // MAGESIM_RESILIENCE_RESILIENT_RDMA_H_
