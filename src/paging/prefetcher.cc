#include "src/paging/prefetcher.h"

#include <algorithm>

#include "src/paging/kernel.h"
#include "src/resilience/resilient_rdma.h"
#include "src/sim/engine.h"
#include "src/tenancy/memcg.h"
#include "src/trace/trace.h"

namespace magesim {

Prefetcher::Prefetcher(Kernel& kernel, int max_window)
    : kernel_(kernel), max_window_(max_window) {
  history_.resize(static_cast<size_t>(kernel.topology().num_cores()));
}

Prefetcher::Stream* Prefetcher::MatchStream(CoreHistory& h, uint64_t vpn, bool* is_expected) {
  *is_expected = false;
  // 1. A stream whose readahead window just ran out (exact continuation).
  for (Stream& s : h.streams) {
    if (s.active && vpn == s.expected_next) {
      *is_expected = true;
      return &s;
    }
  }
  // 2. The nearest stream within the proximity radius (interleaved streams
  //    live in disjoint address regions, e.g. dataframe columns).
  Stream* best = nullptr;
  uint64_t best_dist = kProximityPages + 1;
  for (Stream& s : h.streams) {
    if (s.last_vpn == ~0ULL) continue;
    uint64_t dist = vpn > s.last_vpn ? vpn - s.last_vpn : s.last_vpn - vpn;
    if (dist <= kProximityPages && dist < best_dist) {
      best_dist = dist;
      best = &s;
    }
  }
  if (best != nullptr) return best;
  // 3. Recycle the LRU slot for a new stream.
  Stream* lru = &h.streams[0];
  for (Stream& s : h.streams) {
    if (s.last_use < lru->last_use) lru = &s;
  }
  *lru = Stream{};
  return lru;
}

void Prefetcher::OnFault(CoreId core, uint64_t vpn) {
  // Auto-throttle: while the read channel is degraded, speculative traffic
  // would only compete with demand faults for a failing link.
  if (kernel_.resilience().read_degraded()) {
    kernel_.resilience().NotePrefetchThrottle(core, vpn);
    return;
  }
  // Tenancy QoS gate: latency tenants keep their read-ahead (that is the
  // point of the class); batch tenants lose it first under memory pressure;
  // any tenant over its limits stops speculating against its own quota.
  if (TenancyManager* ten = kernel_.tenancy(); ten != nullptr && ten->num_tenants() > 0) {
    int t = ten->TenantOf(vpn);
    bool global_pressure = kernel_.free_pages() < kernel_.low_wm_pages();
    if (!ten->AllowPrefetch(t, global_pressure)) {
      TraceEmit(TraceEventType::kTenantThrottle, core, vpn, kTraceNoFrame,
                static_cast<uint64_t>(t));
      return;
    }
  }
  CoreHistory& h = history_[static_cast<size_t>(core)];
  bool is_expected = false;
  Stream& s = *MatchStream(h, vpn, &is_expected);
  s.last_use = ++h.use_counter;

  // Stream continuation: prefetched pages do not fault, so a tracked stream's
  // next major fault lands exactly one stride past the covered window. Grow
  // the window (Leap-style) and read further ahead.
  if (is_expected) {
    s.window = std::min(s.window * 2, max_window_);
    Engine::current().Spawn(
        PrefetchRange(core, vpn + static_cast<uint64_t>(s.stride), s.stride, s.window));
    s.expected_next =
        vpn + static_cast<uint64_t>(s.stride) * static_cast<uint64_t>(s.window + 1);
    s.last_vpn = vpn;
    return;
  }

  // Raw stride detection over this stream's consecutive fault addresses.
  if (s.last_vpn != ~0ULL) {
    int64_t stride = static_cast<int64_t>(vpn) - static_cast<int64_t>(s.last_vpn);
    if (stride != 0 && stride == s.stride) {
      ++s.streak;
    } else {
      s.streak = 0;
      s.stride = stride;
      s.active = false;
      s.window = 2;  // pattern broke: collapse read-ahead
    }
  }
  s.last_vpn = vpn;
  if (s.streak >= 2 && s.stride != 0) {
    s.active = true;
    Engine::current().Spawn(
        PrefetchRange(core, vpn + static_cast<uint64_t>(s.stride), s.stride, s.window));
    s.expected_next =
        vpn + static_cast<uint64_t>(s.stride) * static_cast<uint64_t>(s.window + 1);
  }
}

Task<> Prefetcher::PrefetchRange(CoreId core, uint64_t start_vpn, int64_t stride, int count) {
  Kernel& k = kernel_;
  uint64_t vpn = start_vpn;
  // Streams never read ahead across a tenant boundary: pages there would be
  // charged to (and evicted from) a different cgroup's quota.
  int owner = -1;
  if (k.tenancy() != nullptr && start_vpn < k.wss_pages()) {
    owner = k.tenancy()->TenantOf(start_vpn);
  }
  for (int i = 0; i < count; ++i, vpn = static_cast<uint64_t>(static_cast<int64_t>(vpn) + stride)) {
    if (vpn >= k.wss_pages()) co_return;
    if (owner >= 0 && k.tenancy()->TenantOf(vpn) != owner) co_return;
    Pte& pte = k.page_table().At(vpn);
    if (pte.present || !k.page_table().TryBeginFault(vpn)) continue;
    ++issued_;
    TraceEmit(TraceEventType::kPrefetchIssue, core, vpn);
    StageOp op{.core = core, .actor = core, .page = vpn, .beside_app = true};
    if (SpanTracer* st = SpanTracer::Get(); st != nullptr) {
      op.span = st->BeginDetached(SpanKind::kPrefetch, core, vpn, owner);
      st->NotePageSpan(vpn, op.span);  // demand faults that dedup onto this read
    }
    // Prefetch shares the fault path's allocation policy: under Hermit-style
    // configs it can therefore trigger synchronous eviction, which is exactly
    // how prefetching backfires for those systems (§6.2).
    PageFrame* frame = co_await k.AllocWithPressure(op);
    TraceEmit(TraceEventType::kFrameAlloc, core, vpn, frame->pfn);
    RemoteOpStatus st = co_await k.resilience().ReadPage(core, vpn, k.FleetSlotOf(vpn),
                                                         /*allow_poison=*/false, op.span);
    if (st == RemoteOpStatus::kAbandoned) {
      // Speculative read failed for good: unwind instead of poisoning.
      // Free the frame, release the in-flight fault, and stop reading
      // ahead on this (evidently unhealthy) channel.
      ++k.mutable_stats().prefetches_abandoned;
      TraceEmit(TraceEventType::kFrameFree, core, vpn, frame->pfn);
      std::vector<PageFrame*> unwound{frame};
      co_await k.allocator().FreeBatch(core, unwound);
      k.page_table().EndFault(vpn);
      if (SpanTracer* tr = SpanTracer::Get(); tr != nullptr && op.span) {
        if (tr->Sampled(op.span)) tr->ErasePageSpan(vpn);
        tr->EndDetached(op.span, /*arg=*/2);  // arg 2 marks an abandoned prefetch
      }
      co_return;
    }
    {
      StageScope s(Stage::kMapInstall, op);
      co_await Delay{k.topology().params().pte_update_ns};
      k.page_table().Map(vpn, frame);
      k.ChargePage(core, vpn, frame);
      TraceEmit(TraceEventType::kPageMap, core, vpn, frame->pfn);
    }
    // Speculative: not a real reference yet.
    pte.accessed = false;
    pte.prefetched = true;
    ++k.mutable_stats().prefetched_pages;
    {
      StageScope s(Stage::kAccountingInsert, op);
      co_await k.accounting().Insert(core, frame);
    }
    k.page_table().EndFault(vpn);
    if (SpanTracer* tr = SpanTracer::Get(); tr != nullptr && op.span) {
      if (tr->Sampled(op.span)) tr->ErasePageSpan(vpn);
      tr->EndDetached(op.span);
    }
  }
}

}  // namespace magesim
