// Causal span tracing with critical-path tail-latency attribution.
//
// A SpanTracer opens one root span per logical operation (page fault,
// eviction batch, prefetched page, evictor backpressure pause) and nests a
// child span under it for every stage the operation actually waited on:
// trap entry, fault dedup, tenant admission (QoS throttle / hard-limit
// park), mm locks, frame allocation, free-page waits, the RDMA-stack
// section, each RDMA attempt with its backoff, circuit-breaker admission,
// map install, accounting insert, victim unmap, TLB shootdown with per-IPI
// fan-out, and frame reclaim. Where one operation blocks on another, the waiting span carries
// a *causal link* to the span that unblocked it (a fault's free-page wait
// links to the eviction batch that published headroom; backpressure and
// batch-QoS throttles link to the RDMA op that opened the breaker; a
// dedup'd fault links to the in-flight fault it coalesced onto).
//
// When a root span closes, the tracer:
//   1. computes the operation's critical path — every nanosecond of the
//      root interval attributed to exactly one SpanKind via a cursor sweep
//      over the (start-sorted) children, recursing into non-overlapped
//      children and charging gaps to the parent's own kind;
//   2. folds the attribution into percentile-conditioned aggregates, one
//      Histogram slot per latency sub-bucket, so the report can break down
//      "where did the time go" separately for operations in the p50/p90/
//      p99/p99.9 latency bands — overall and per tenant;
//   3. keeps the operation in a bounded top-K slowest-exemplar reservoir
//      (full span tree, flattened) when it is among the worst seen;
//   4. streams the span tree as JSONL (one object per span) and, when a
//      ChromeTraceSink is attached, as trace_event complete slices plus
//      s/f flow arrows for the causal links; then
//   5. frees the whole tree in O(arena blocks), not O(spans).
//
// Hot-path budget (the spans-on perf_fault_path bound is ≤5% on faults/sec):
// records are bump-allocated from per-operation arena blocks — one slab
// allocation per op in steady state, not one per span — and each span is
// mixed into the determinism fingerprint (a word-wide multiply-xor seeded
// with the FNV-1a parameters TraceHashSink uses) at the moment it completes,
// so closing an op does no extra tree walk unless a JSONL/Chrome sink is
// attached.
//
// Like Tracer, at most one SpanTracer is installed at a time and every hook
// is a single pointer test when none is — goldens are byte-identical with
// spans disabled. Span ids are a plain counter, so two same-seed runs
// produce identical streams.
#ifndef MAGESIM_SPANS_SPANS_H_
#define MAGESIM_SPANS_SPANS_H_

#include <array>
#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/sim/engine.h"
#include "src/sim/slab_alloc.h"
#include "src/sim/stats.h"
#include "src/trace/trace.h"

namespace magesim {

class ChromeTraceSink;
class JsonWriter;

enum class SpanKind : uint8_t {
  // Root operation kinds.
  kFault,         // one page fault (major or dedup-coalesced)
  kEvictBatch,    // one eviction batch (sequential, pipelined, or sync)
  kPrefetch,      // one speculatively read page
  // Stage kinds (children; kBackpressure can also be a root op: the
  // evictor pauses *between* batches, with no operation open).
  kEntry,          // trap entry + page-table walk + VMA resolution
  kDedupWait,      // wait for an in-flight fault on the same page
  kTenantThrottle, // batch-QoS admission backoff
  kTenantPark,     // hard-limit park on the tenant's headroom event
  kMmLocks,        // serialized mm bookkeeping critical section
  kAlloc,          // frame allocation (allocator locks + cache refill)
  kFreeWait,       // MAGE-style wait for the evictors to free pages
  kRdmaRead,       // first read attempt, post -> completion/deadline
  kRdmaWrite,      // first write attempt (or one writeback completion wait)
  kRdmaRetry,      // retry attempt (read or write), post -> outcome
  kRetryBackoff,   // exponential backoff sleep between attempts
  kBreakerWait,    // parked at an open circuit breaker's admission gate
  kMapInstall,     // swap-slot free + residual OS work + PTE install
  kAccounting,     // page-accounting insert (LRU/FIFO locks)
  kUnmapVictims,   // victim isolation + per-page unmap/uncharge/swap-alloc
  kShootdownWait,  // full shootdown wait (local flush + IPI fan-out)
  kLazyTlbWait,    // lazy-TLB mode: park until the reconciliation tick
  kIpiDeliver,     // one IPI: send -> transit -> serialized handler -> ack
  kReclaim,        // freeing victim frames back into the allocator
  kBackpressure,   // evictor pause while the write breaker is open
  kDegradedRead,   // fleet read served from a non-primary surviving replica
  kRebuild,        // fleet re-replication batch (also a detached root op)
  kRdmaStack,      // serialized RDMA-stack section before a fault's read
  kNumKinds,
};

inline constexpr int kNumSpanKinds = static_cast<int>(SpanKind::kNumKinds);

// Stable snake_case name, used by the JSONL export, the run-report `tail`
// section, and the golden files.
const char* SpanKindName(SpanKind k);

// One node of an operation's span tree. Bump-allocated from the operation's
// arena blocks; the whole tree is recycled when the root closes. Tests may
// also stack-allocate these to hand-build trees for ComputeCriticalPath.
struct SpanRecord {
  uint64_t id = 0;
  uint64_t link = 0;  // span id this span causally waited on (0 = none)
  SimTime t0 = 0;
  SimTime t1 = 0;
  SimTime link_t = 0;  // when the linked span published (flow-arrow tail)
  uint64_t page = kTraceNoPage;
  uint64_t arg = 0;  // kind-specific (attempt number, pages freed, ...)
  SpanRecord* parent = nullptr;
  SpanRecord* first_child = nullptr;
  SpanRecord* last_child = nullptr;
  SpanRecord* next_sibling = nullptr;
  void* arena = nullptr;  // root only: newest arena block of the op's chain
  int32_t actor = -1;       // core or evictor id
  int32_t link_actor = -1;  // actor of the linked span
  SpanKind kind = SpanKind::kFault;
  int8_t tenant = -1;
  uint32_t open_slot = 0;  // root only: index in the tracer's open-root list
};

// Opaque reference to an open span. Null handle (default) = disabled/no-op.
struct SpanHandle {
  SpanRecord* rec = nullptr;
  explicit operator bool() const { return rec != nullptr; }
};

// A causal publisher: which span unblocked the waiter, who ran it, and when
// it published (for the Chrome flow arrow's tail).
struct SpanCausalPoint {
  uint64_t id = 0;
  int32_t actor = -1;
  SimTime t = 0;
};

// Critical-path attribution: distributes every nanosecond of
// [root->t0, root->t1] over SpanKinds. Children are swept in start order
// with a cursor: gaps (and the tail) are charged to the parent's own kind;
// a child starting at or after the cursor is recursed into; a child the
// cursor already entered contributes only its clipped remainder, charged to
// the child's kind; a child the cursor passed entirely is skipped (its time
// was concurrent with an earlier sibling — not on the critical path).
// `out` must have kNumSpanKinds entries and is NOT cleared first.
void ComputeCriticalPath(const SpanRecord* root, SimTime* out);

// One latency band of the percentile-conditioned breakdown. Band edges are
// Histogram sub-bucket boundaries (~6% relative blur; see INTERNALS §13).
struct SpanTailBand {
  int64_t threshold_ns = 0;  // latency at the band's lower percentile edge
  uint64_t ops = 0;
  std::array<SimTime, kNumSpanKinds> phase_ns{};

  SimTime total_ns() const;
  double Share(SpanKind k) const;  // phase_ns[k] / total, 0 when empty
};

// Aggregated tail view for one root-op kind (or one tenant's faults):
// overall critical-path attribution plus the four percentile bands
// [p50,p90) [p90,p99) [p99,p99.9) [p99.9,max].
struct SpanTailSummary {
  uint64_t count = 0;
  Histogram latency;
  std::array<SimTime, kNumSpanKinds> phase_ns{};
  std::array<SpanTailBand, 4> bands{};
};

inline constexpr std::array<const char*, 4> kSpanBandNames = {"p50", "p90", "p99",
                                                              "p999"};

// One retained slowest-operation exemplar: the flattened span tree
// (pre-order; parent = index into `spans`, -1 for the root) plus its
// critical-path attribution.
struct SpanExemplar {
  struct FlatSpan {
    uint64_t id = 0;
    uint64_t link = 0;
    SimTime t0 = 0;
    SimTime t1 = 0;
    uint64_t page = kTraceNoPage;
    uint64_t arg = 0;
    int32_t parent = -1;
    int32_t actor = -1;
    SpanKind kind = SpanKind::kFault;
    int8_t tenant = -1;
  };
  int64_t latency_ns = 0;
  uint64_t id = 0;  // root span id
  int8_t tenant = -1;
  uint32_t dropped_spans = 0;  // tree nodes beyond the retention cap
  std::vector<FlatSpan> spans;
  std::array<SimTime, kNumSpanKinds> phase_ns{};
};

class SpanTracer {
 public:
  struct Options {
    std::string out_path;  // JSONL span export ("" = none)
    int top_k = 8;         // slowest exemplars retained per root kind
    // Head-based sampling: trace every Nth root operation per kind in full
    // fidelity; the other N-1 ops are suppressed at Begin for a few cycles
    // each (no records, no aggregation). 1 = trace everything. Deterministic:
    // plain per-kind counters, so same-seed runs sample the same ops.
    int sample_every = 1;
  };

  // Spans retained per exemplar tree; bigger trees record the overflow in
  // `dropped_spans` instead of growing without bound.
  static constexpr size_t kMaxExemplarSpans = 256;

  explicit SpanTracer(const Options& opt);
  ~SpanTracer();
  SpanTracer(const SpanTracer&) = delete;
  SpanTracer& operator=(const SpanTracer&) = delete;

  void Install();    // make this the process-wide span tracer
  void Uninstall();  // no-op unless currently installed
  static SpanTracer* Get() { return current_; }

  // --- Instrumentation hooks (hot while installed) ---
  // Opens a root operation. Spans are not tied to any task: the hot paths
  // (fault, pipelined eviction, prefetch) propagate the handle explicitly,
  // so a sampled-out op costs a few inlined compares per hook. `t0` < 0
  // means "now"; a root may backdate t0 to cover work done before the
  // decision to open it (e.g. trap entry before fault dedup).
  SpanHandle BeginDetached(SpanKind k, int32_t actor, uint64_t page, int tenant = -1,
                           SimTime t0 = -1) {
    if (!SampleRoot(k)) return SpanHandle{&suppress_};
    return BeginDetachedSampled(k, actor, page, tenant, t0);
  }
  // Opens a span nested under `parent` (sync eviction runs its batch under
  // the faulting op). Null parent = root op; a suppressed parent suppresses
  // the child.
  SpanHandle BeginChild(SpanHandle parent, SpanKind k, int32_t actor, uint64_t page,
                        int tenant = -1) {
    if (parent.rec == &suppress_) return SpanHandle{&suppress_};
    if (parent.rec == nullptr) return BeginDetached(k, actor, page, tenant);
    return BeginChildSampled(parent, k, actor, page, tenant);
  }
  // Closes a span; finalizes the operation when `h` is a root.
  void EndDetached(SpanHandle h, uint64_t arg = 0) {
    if (h.rec == nullptr || h.rec == &suppress_) return;
    EndDetachedSampled(h, arg);
  }
  // False for null handles and sampled-out ops: lets call sites skip side
  // work (page-span registration/erase) that only matters for traced ops.
  bool Sampled(SpanHandle h) const { return h.rec != nullptr && h.rec != &suppress_; }

  // Retro-emits a completed wait [t0, now] as a self-contained root
  // operation of its own kind (evictor backpressure between batches), subject
  // to the root sampler. Returns the span's id, or 0 when skipped (zero
  // duration or sampled out).
  uint64_t Leaf(SpanKind k, SimTime t0, int32_t actor, uint64_t page,
                SpanCausalPoint link = {}, uint64_t arg = 0);
  // A completed wait [t0, t1] as a leaf under `parent` (IPI fan-out,
  // pipelined batch stages).
  uint64_t LeafUnder(SpanHandle parent, SpanKind k, SimTime t0, SimTime t1,
                     int32_t actor, uint64_t page, SpanCausalPoint link = {},
                     uint64_t arg = 0) {
    if (parent.rec == nullptr || parent.rec == &suppress_ || t1 <= t0) return 0;
    return LeafUnderSampled(parent, k, t0, t1, actor, page, link, arg);
  }

  // --- Causal registries ---
  // Inline suppressed-handle guards for the same reason as the hot hooks
  // above: uncharges run per evicted page, so a sampled-out batch must not
  // pay a call per note.
  // The eviction batch about to publish free-page headroom.
  void NoteHeadroomPublisher(SpanHandle h) {
    if (h.rec == nullptr || h.rec == &suppress_) return;
    NoteHeadroomPublisherSampled(h);
  }
  SpanCausalPoint headroom_publisher() const { return headroom_; }
  // The operation whose failure opened the breaker (0 = read, 1 = write).
  void NoteBreakerOpen(int channel, SpanHandle h) {
    if (h.rec == nullptr || h.rec == &suppress_) return;
    NoteBreakerOpenSampled(channel, h);
  }
  SpanCausalPoint breaker_open(int channel) const;
  // The eviction batch that last uncharged a page from tenant `t`.
  void NoteTenantRelease(int tenant, SpanHandle h) {
    if (tenant < 0 || h.rec == nullptr || h.rec == &suppress_) return;
    NoteTenantReleaseSampled(tenant, h);
  }
  SpanCausalPoint tenant_release(int tenant) const;
  // The in-flight fault/prefetch span servicing `vpn` (dedup-wait links).
  void NotePageSpan(uint64_t vpn, SpanHandle h);
  void ErasePageSpan(uint64_t vpn);
  SpanCausalPoint page_span(uint64_t vpn) const;

  // --- Aggregated results ---
  // Tail view for one root-op kind / one tenant's faults. Bands are
  // computed on demand from the slot-conditioned aggregates.
  SpanTailSummary Tail(SpanKind root_kind) const;
  SpanTailSummary TenantTail(int tenant) const;
  // Root kinds with at least one finalized op, enum order; tenants with at
  // least one finalized fault, ascending.
  std::vector<SpanKind> ActiveRootKinds() const;
  std::vector<int> ActiveTenants() const;
  // Slowest exemplars for one root kind, worst first.
  const std::vector<SpanExemplar>& Exemplars(SpanKind root_kind) const;

  uint64_t ops(SpanKind root_kind) const {
    return ops_[static_cast<size_t>(root_kind)];
  }
  uint64_t span_count(SpanKind k) const {
    return span_counts_[static_cast<size_t>(k)];
  }
  uint64_t spans_total() const { return spans_total_; }
  uint64_t links_total() const { return links_total_; }
  uint64_t exemplar_trunc_spans() const { return exemplar_trunc_spans_; }
  // Root operations opened and not yet closed: nonzero when threads are
  // parked mid-op as the run ends. Their records are freed at teardown.
  uint64_t open_spans() const { return open_roots_.size(); }
  uint64_t hash() const { return hash_; }
  int top_k() const { return opt_.top_k; }
  int sample_every() const { return opt_.sample_every; }
  bool export_ok() const { return !out_.is_open() || out_.good(); }

  // Determinism fingerprint: "hash=<hex> total=<n> ops.<kind>=<n>... " plus
  // one "<kind>=<count>" per non-zero span kind (golden format).
  std::string FingerprintSummary() const;

  // Chrome trace_event riding: complete slices per span + s/f flow arrows
  // per causal link, appended to `sink` as ops close. Not owned.
  void AttachChrome(ChromeTraceSink* sink) { chrome_ = sink; }

  // The run-report `tail` section (object at the current value position).
  void AppendTailJson(JsonWriter& w,
                      const std::vector<std::string>& tenant_names) const;

 private:
  // Per-op-kind aggregate: latency histogram plus per-latency-slot op count
  // and critical-path attribution (lazily allocated, ~190 KiB when used).
  struct Agg {
    Histogram latency;
    std::vector<uint64_t> slot_ops;
    std::vector<std::array<SimTime, kNumSpanKinds>> slot_phase;
    void Fold(int64_t latency_ns, const SimTime* phase);
  };

  // True when the next root op of kind `k` is selected by the sampler: the
  // first op of each kind, then every `sample_every`th after it. Runs on
  // every root op, so it is a countdown rather than a modulo (no divide).
  bool SampleRoot(SpanKind k) {
    if (opt_.sample_every <= 1) return true;
    uint64_t& left = sample_left_[static_cast<size_t>(k)];
    if (left == 0) {
      left = static_cast<uint64_t>(opt_.sample_every) - 1;
      return true;
    }
    --left;
    return false;
  }
  // Out-of-line continuations of the inline hot hooks: only reached once
  // the inline guard has established the op is traced (not sampled out).
  SpanHandle BeginDetachedSampled(SpanKind k, int32_t actor, uint64_t page, int tenant,
                                  SimTime t0);
  SpanHandle BeginChildSampled(SpanHandle parent, SpanKind k, int32_t actor,
                               uint64_t page, int tenant);
  void EndDetachedSampled(SpanHandle h, uint64_t arg);
  uint64_t LeafUnderSampled(SpanHandle parent, SpanKind k, SimTime t0, SimTime t1,
                            int32_t actor, uint64_t page, SpanCausalPoint link,
                            uint64_t arg);
  void NoteHeadroomPublisherSampled(SpanHandle h);
  void NoteBreakerOpenSampled(int channel, SpanHandle h);
  void NoteTenantReleaseSampled(int tenant, SpanHandle h);
  // Allocates a record from `root`'s arena chain (a fresh chain when `root`
  // is null, i.e. the record starts a new operation).
  SpanRecord* NewRecord(SpanRecord* root, SpanKind k, int32_t actor,
                        uint64_t page, int tenant, SimTime t0);
  static SpanRecord* RootOf(SpanRecord* s);
  void Adopt(SpanRecord* parent, SpanRecord* child);
  // Fingerprint + counters, called once per record when its fields go final.
  void Seal(const SpanRecord* s);
  void FinalizeOp(SpanRecord* root);
  // JSONL/Chrome emission, pre-order; `op` is the root kind ("op" field).
  void ExportTree(const SpanRecord* s, SpanKind op);
  void MaybeKeepExemplar(SpanRecord* root, int64_t latency_ns, const SimTime* phase);
  void Flatten(const SpanRecord* s, int parent_idx, SpanExemplar* ex);
  void FreeOp(SpanRecord* root);
  void ExportSpan(const SpanRecord* s, SpanKind op);
  void ChromeSpan(const SpanRecord* s);
  void Mix(uint64_t v);
  static SpanTailSummary TailFromAgg(const Agg& a);

  Options opt_;
  std::ofstream out_;
  ChromeTraceSink* chrome_ = nullptr;
  // Sentinel handle target marking a sampled-out operation: BeginDetached
  // returns it instead of a record, every other hook tests against it and
  // bails. Never allocated from, never finalized.
  SpanRecord suppress_;
  std::array<uint64_t, kNumSpanKinds> sample_left_{};  // ops until next sample
  uint64_t next_id_ = 1;
  uint64_t hash_;
  uint64_t spans_total_ = 0;
  uint64_t links_total_ = 0;
  uint64_t exemplar_trunc_spans_ = 0;
  std::array<uint64_t, kNumSpanKinds> ops_{};
  std::array<uint64_t, kNumSpanKinds> span_counts_{};

  // Open root operations, each record holding its own index (open_slot) so
  // closing one is a swap-remove, not a lookup.
  std::vector<SpanRecord*> open_roots_;

  SpanCausalPoint headroom_;
  std::array<SpanCausalPoint, 2> breaker_open_{};
  std::vector<SpanCausalPoint> tenant_release_;
  std::unordered_map<uint64_t, SpanCausalPoint, std::hash<uint64_t>,
                     std::equal_to<uint64_t>,
                     SlabStdAllocator<std::pair<const uint64_t, SpanCausalPoint>>>
      page_spans_;

  std::array<Agg, kNumSpanKinds> aggs_{};       // by root kind
  std::map<int, Agg> tenant_aggs_;              // fault ops by tenant
  std::array<std::vector<SpanExemplar>, kNumSpanKinds> exemplars_{};

  static SpanTracer* current_;
};

// --- Inline no-op-when-disabled wrappers for the instrumented layers ---

inline void SpanEndDetached(SpanHandle h, uint64_t arg = 0) {
  if (SpanTracer* st = SpanTracer::Get(); st != nullptr) st->EndDetached(h, arg);
}

inline uint64_t SpanLeafUnder(SpanHandle parent, SpanKind k, SimTime t0, SimTime t1,
                              int32_t actor, uint64_t page, SpanCausalPoint link = {},
                              uint64_t arg = 0) {
  SpanTracer* st = SpanTracer::Get();
  return st != nullptr ? st->LeafUnder(parent, k, t0, t1, actor, page, link, arg) : 0;
}

}  // namespace magesim

#endif  // MAGESIM_SPANS_SPANS_H_
