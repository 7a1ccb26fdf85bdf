#include "src/resilience/resilient_rdma.h"

#include <algorithm>

#include "src/sim/engine.h"
#include "src/trace/trace.h"

namespace magesim {

ResilienceManager::ResilienceManager(FleetManager& fleet, const ResilienceOptions& opt)
    : fleet_(fleet), opt_(opt), rng_(opt.seed ^ 0x5e111e7ce2e511e7ULL) {
  for (int n = 0; n < fleet_.num_nodes(); ++n) {
    node_read_breakers_.emplace_back(opt_.breaker, /*channel_id=*/2 * n);
    node_write_breakers_.emplace_back(opt_.breaker, /*channel_id=*/2 * n + 1);
  }
}

Task<> DeadlineWait::Pending(std::shared_ptr<RdmaCompletion> c, SimTime grace) {
  const SimTime now = Engine::current().now();
  if (c->status() == RdmaCompletion::Status::kLost) {
    // The deadline watcher's hops: its spawn, its Delay, its wake-up of us.
    co_await YieldNow{};
    co_await Delay{std::max(now, c->completes_at()) + grace - now};
    co_await YieldNow{};
    co_return;
  }
  // Armed, so the signal comes at completes_at(), before the deadline. Due
  // now: it is already queued ahead of us; let it run as the completion
  // watcher's spawn did.
  if (c->completes_at() <= now) co_await YieldNow{};
  co_await c->Wait();
  co_await YieldNow{};  // the completion watcher's wake-up of us
}

void ResilienceManager::NoteTimeout(int actor, uint64_t vpn, SimTime posted) {
  ++timeouts_;
  TraceEmit(TraceEventType::kRdmaTimeout, actor, vpn, kTraceNoFrame,
            static_cast<uint64_t>(Engine::current().now() - posted));
}

Task<bool> ResilienceManager::OneOpOn(RdmaNic& nic, CircuitBreaker& br,
                                      int span_channel, bool is_write, int actor,
                                      uint64_t vpn, int budget, SpanHandle op) {
  BackoffSequence backoff(opt_.retry);
  const int channel = span_channel;
  for (int attempt = 0;; ++attempt) {
    SimTime g0 = Engine::current().now();
    co_await br.Admit();
    if (SpanTracer* st = SpanTracer::Get(); st != nullptr) {
      // Nonzero only while the breaker is open; link to the op that opened it.
      st->LeafUnder(op, SpanKind::kBreakerWait, g0, Engine::current().now(), actor, vpn,
                    st->breaker_open(channel));
    }
    SimTime p0 = Engine::current().now();
    auto c = is_write ? nic.PostWrite(kPageSize) : nic.PostRead(kPageSize);
    OpOutcome out = co_await DeadlineWait(std::move(c), opt_.retry.op_grace_ns);
    if (out == OpOutcome::kTimeout) NoteTimeout(actor, vpn, p0);
    SpanLeafUnder(op,
                  attempt == 0 ? (is_write ? SpanKind::kRdmaWrite : SpanKind::kRdmaRead)
                               : SpanKind::kRdmaRetry,
                  p0, Engine::current().now(), actor, vpn, {},
                  static_cast<uint64_t>(attempt) + 1);
    if (out == OpOutcome::kOk) {
      br.OnSuccess();
      attempts_per_op_.Record(static_cast<uint64_t>(attempt) + 1);
      co_return true;
    }
    bool was_degraded = br.degraded();
    br.OnFailure();
    if (SpanTracer* st = SpanTracer::Get();
        st != nullptr && !was_degraded && br.degraded()) {
      st->NoteBreakerOpen(channel, op);  // this op tripped the breaker
    }
    if (attempt >= budget) {
      attempts_per_op_.Record(static_cast<uint64_t>(attempt) + 1);
      co_return false;
    }
    ++retries_;
    SimTime b = backoff.Next(rng_);
    backoff_ns_.Record(static_cast<uint64_t>(b));
    TraceEmit(TraceEventType::kRdmaRetry, actor, vpn, kTraceNoFrame,
              static_cast<uint64_t>(attempt) + 1);
    SimTime b0 = Engine::current().now();
    co_await Delay{b};
    SpanLeafUnder(op, SpanKind::kRetryBackoff, b0, Engine::current().now(), actor, vpn,
                  {}, static_cast<uint64_t>(b));
  }
}

bool ResilienceManager::read_degraded() const {
  for (const CircuitBreaker& b : node_read_breakers_) {
    if (b.degraded()) return true;
  }
  return false;
}

bool ResilienceManager::write_degraded() const {
  for (const CircuitBreaker& b : node_write_breakers_) {
    if (b.degraded()) return true;
  }
  return false;
}

SimTime ResilienceManager::read_degraded_ns(SimTime now) const {
  SimTime total = 0;
  for (const CircuitBreaker& b : node_read_breakers_) total += b.time_degraded_ns(now);
  return total;
}

SimTime ResilienceManager::write_degraded_ns(SimTime now) const {
  SimTime total = 0;
  for (const CircuitBreaker& b : node_write_breakers_) total += b.time_degraded_ns(now);
  return total;
}

uint64_t ResilienceManager::breaker_opens_total() const {
  uint64_t total = 0;
  for (const CircuitBreaker& b : node_read_breakers_) total += b.opens();
  for (const CircuitBreaker& b : node_write_breakers_) total += b.opens();
  return total;
}

Task<RemoteOpStatus> ResilienceManager::ReadPage(int core, uint64_t vpn, uint64_t slot,
                                                 bool allow_poison, SpanHandle op) {
  FleetManager::ReadTarget t = fleet_.ReadTargetFor(slot);
  if (!fleet_.ops_can_fail() && t.node >= 0) {
    // Nothing can fail (and with no fault plan nothing crashes): a plain read
    // from the placement primary. It completes at completes_at(), so the
    // reader sleeps until then itself instead of arming a signal task, and
    // keeps the one hop that the signal's wake-up of it made
    // (docs/INTERNALS.md §4).
    SimTime p0 = Engine::current().now();
    auto c = fleet_.nic(t.node).PostReadUnarmed(kPageSize);
    co_await Delay{c->completes_at() - p0};
    RdmaNic::Complete(*c);
    co_await YieldNow{};
    SpanLeafUnder(op, SpanKind::kRdmaRead, p0, Engine::current().now(), core, vpn);
    co_return RemoteOpStatus::kOk;
  }
  // Split the retry budget across replicas so total attempts stay bounded by
  // the single-server policy; a replica that exhausts its share is excluded
  // and the read fails over to the next survivor.
  const int per_replica_budget =
      std::max(1, opt_.retry.max_retries / std::max(1, fleet_.replication()));
  uint16_t excluded = 0;
  for (; t.node >= 0; t = fleet_.ReadTargetFor(slot, excluded)) {
    SimTime a0 = Engine::current().now();
    bool ok = co_await OneOpOn(fleet_.nic(t.node), NodeBreaker(t.node, false),
                               /*span_channel=*/0, /*is_write=*/false, core, vpn,
                               per_replica_budget, op);
    if (ok) {
      if (t.degraded) {
        fleet_.NoteDegradedRead(slot, t.node, fleet_.DesiredReplicas(slot).node[0]);
        SpanLeafUnder(op, SpanKind::kDegradedRead, a0, Engine::current().now(),
                      t.node, vpn, {}, slot);
      }
      co_return RemoteOpStatus::kOk;
    }
    excluded |= static_cast<uint16_t>(1u << t.node);
  }
  ++reads_failed_;
  if (!allow_poison) co_return RemoteOpStatus::kAbandoned;
  if (opt_.terminal == TerminalPolicy::kFailRun) {
    FailRun("no live replica for demand read");
  }
  // Even under kFailRun the page is poisoned so the in-flight fault unwinds
  // cleanly while the engine drains.
  ++pages_poisoned_;
  TraceEmit(TraceEventType::kPagePoisoned, core, vpn);
  co_return RemoteOpStatus::kPoisoned;
}

std::shared_ptr<RdmaCompletion> ResilienceManager::PostWrites(
    const std::vector<uint64_t>& slots) {
  // Only the latest write is awaited. The others' completion events signal
  // no waiter, so nothing but a Tracer's rdma_write_done records observes
  // them: without one they are never armed (docs/INTERNALS.md §4).
  const bool arm_all = Tracer::Get() != nullptr;
  std::shared_ptr<RdmaCompletion> last;
  for (uint64_t slot : slots) {
    ReplicaSet targets = fleet_.WriteTargetsFor(slot);
    for (int j = 0; j < targets.count; ++j) {
      auto c = fleet_.nic(targets.node[j]).PostWriteUnarmed(kPageSize);
      if (arm_all) RdmaNic::Arm(c);
      if (last == nullptr || c->completes_at() >= last->completes_at()) last = std::move(c);
    }
    fleet_.CommitWrite(slot, targets.Mask());
  }
  if (!arm_all && last != nullptr) RdmaNic::Arm(last);
  return last;
}

Task<> ResilienceManager::WriteBack(int evictor_id, std::vector<uint64_t> slots,
                                    SpanHandle op) {
  if (fleet_.ops_can_fail()) {
    co_await WriteSlots(evictor_id, std::move(slots), op);
    co_return;
  }
  // Nothing can fail: the pipelined split, awaited in place. The retrying
  // path above stays inline; spawning its writer would reorder events.
  co_await FinishWriteback(StartWriteback(evictor_id, std::move(slots), op), evictor_id, op);
}

Writeback ResilienceManager::StartWriteback(int evictor_id, std::vector<uint64_t> slots,
                                            SpanHandle batch_span) {
  Writeback wb;
  if (slots.empty()) return wb;
  if (!fleet_.ops_can_fail()) {
    wb.last_ = PostWrites(slots);
    return wb;
  }
  wb.done_ = std::make_shared<SimEvent>("writeback-done");
  Engine::current().Spawn(WriteSlotsMain(evictor_id, std::move(slots), wb.done_, batch_span));
  return wb;
}

Task<> ResilienceManager::FinishWriteback(Writeback wb, int evictor_id,
                                          SpanHandle batch_span) {
  if (wb.last_ != nullptr) {
    SimTime w0 = Engine::current().now();
    co_await wb.last_->Wait();
    SpanLeafUnder(batch_span, SpanKind::kRdmaWrite, w0, Engine::current().now(),
                  evictor_id, kTraceNoPage);
  } else if (wb.done_ != nullptr) {
    // The retrying writer emits its own rdma/retry/backoff leaves under the
    // batch span from its spawned task.
    co_await wb.done_->Wait();
  }
}

Task<> ResilienceManager::WriteSlots(int evictor_id, std::vector<uint64_t> slots,
                                     SpanHandle op) {
  if (slots.empty()) co_return;
  // Gate once per server this batch will touch (ascending, deterministic).
  uint16_t touch_mask = 0;
  for (uint64_t slot : slots) touch_mask |= fleet_.WriteTargetsFor(slot).Mask();
  for (int n = 0; n < fleet_.num_nodes(); ++n) {
    if ((touch_mask & (1u << n)) == 0) continue;
    SimTime g0 = Engine::current().now();
    co_await NodeBreaker(n, /*is_write=*/true).Admit();
    if (SpanTracer* st = SpanTracer::Get(); st != nullptr) {
      st->LeafUnder(op, SpanKind::kBreakerWait, g0, Engine::current().now(),
                    evictor_id, kTraceNoPage, st->breaker_open(1));
    }
  }
  // Post every (slot, replica) op back-to-back, then await in FIFO order;
  // only failures pay retry latency. Targets are re-resolved after the
  // admission gates so a server that died while we waited is skipped.
  struct PendingOp {
    size_t idx;
    int node;
    std::shared_ptr<RdmaCompletion> c;
  };
  std::vector<PendingOp> ops;
  std::vector<uint16_t> acked(slots.size(), 0);
  ops.reserve(slots.size() * static_cast<size_t>(fleet_.replication()));
  for (size_t i = 0; i < slots.size(); ++i) {
    ReplicaSet targets = fleet_.WriteTargetsFor(slots[i]);
    for (int j = 0; j < targets.count; ++j) {
      ops.push_back(
          {i, targets.node[j], fleet_.nic(targets.node[j]).PostWrite(kPageSize)});
    }
  }
  for (PendingOp& p : ops) {
    SimTime w0 = Engine::current().now();
    OpOutcome out = co_await DeadlineWait(std::move(p.c), opt_.retry.op_grace_ns);
    if (out == OpOutcome::kTimeout) NoteTimeout(evictor_id, slots[p.idx], w0);
    SpanLeafUnder(op, SpanKind::kRdmaWrite, w0, Engine::current().now(), evictor_id,
                  slots[p.idx], {}, 1);
    CircuitBreaker& br = NodeBreaker(p.node, /*is_write=*/true);
    if (out == OpOutcome::kOk) {
      br.OnSuccess();
      acked[p.idx] |= static_cast<uint16_t>(1u << p.node);
      continue;
    }
    bool was_degraded = br.degraded();
    br.OnFailure();
    if (SpanTracer* st = SpanTracer::Get();
        st != nullptr && !was_degraded && br.degraded()) {
      st->NoteBreakerOpen(1, op);
    }
    ++retries_;
    TraceEmit(TraceEventType::kRdmaRetry, evictor_id, slots[p.idx], kTraceNoFrame, 1);
    if (co_await OneOpOn(fleet_.nic(p.node), br, /*span_channel=*/1,
                         /*is_write=*/true, evictor_id, slots[p.idx],
                         std::max(0, opt_.retry.max_retries - 1), op)) {
      acked[p.idx] |= static_cast<uint16_t>(1u << p.node);
    }
  }
  size_t lost = 0;
  for (size_t i = 0; i < slots.size(); ++i) {
    fleet_.CommitWrite(slots[i], acked[i]);
    if (!fleet_.HasLiveCopy(slots[i])) ++lost;
  }
  if (lost > 0) {
    writebacks_lost_ += lost;
    TraceEmit(TraceEventType::kWritebackLost, evictor_id, kTraceNoPage, kTraceNoFrame,
              static_cast<uint64_t>(lost));
    if (opt_.terminal == TerminalPolicy::kFailRun) {
      FailRun("writeback lost every replica");
    }
  }
}

Task<> ResilienceManager::WriteSlotsMain(int evictor_id, std::vector<uint64_t> slots,
                                         std::shared_ptr<SimEvent> done,
                                         SpanHandle batch_span) {
  // The owning batch's span rides the call so WriteSlots' leaves parent
  // correctly. The batch closes only after `done` fires, so the handle
  // outlives every leaf emitted here.
  co_await WriteSlots(evictor_id, std::move(slots), batch_span);
  done->Set();
}

Task<> ResilienceManager::EvictionBackpressure(int evictor_id) {
  // Pause against the worst open write channel, for at most this long.
  constexpr SimTime kBackpressureMaxNs = 400 * kMicrosecond;
  const CircuitBreaker* gate = nullptr;
  for (const CircuitBreaker& b : node_write_breakers_) {
    if (b.degraded() && (gate == nullptr || b.open_until() > gate->open_until())) {
      gate = &b;
    }
  }
  if (gate == nullptr) co_return;
  SimTime now = Engine::current().now();
  SimTime wait = gate->open_until() - now;
  if (wait < 10 * kMicrosecond) wait = 10 * kMicrosecond;
  if (wait > kBackpressureMaxNs) wait = kBackpressureMaxNs;
  ++backpressure_waits_;
  TraceEmit(TraceEventType::kEvictBackpressure, evictor_id, kTraceNoPage, kTraceNoFrame,
            static_cast<uint64_t>(wait));
  SimTime b0 = Engine::current().now();
  co_await Delay{wait};
  if (SpanTracer* st = SpanTracer::Get(); st != nullptr) {
    // No operation is open here (the pause sits between batches), so the
    // leaf becomes a self-contained backpressure root op, linked to the
    // write op that opened the breaker.
    st->Leaf(SpanKind::kBackpressure, b0, evictor_id, kTraceNoPage, st->breaker_open(1),
             static_cast<uint64_t>(wait));
  }
}

void ResilienceManager::NotePrefetchThrottle(int core, uint64_t vpn) {
  ++prefetch_throttles_;
  TraceEmit(TraceEventType::kPrefetchThrottle, core, vpn);
}

void ResilienceManager::FailRun(const char* why) {
  if (run_failed_) return;
  run_failed_ = true;
  failure_reason_ = why;
  Engine::current().RequestShutdown();
}

}  // namespace magesim
