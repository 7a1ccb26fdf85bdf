#include "src/spans/spans.h"

#include <algorithm>
#include <cassert>
#include <cinttypes>
#include <cstdio>

#include "src/metrics/run_report.h"

namespace magesim {

namespace {
// FNV offset/prime seed a word-at-a-time multiply-xor mix. Byte-wise FNV-1a
// (as in TraceHashSink) costs 8 dependent multiplies per field, which at
// ~9 fields/span dominated spans-on overhead; one multiply per word keeps
// the fingerprint deterministic and field-sensitive at ~1/8 the cost.
constexpr uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

// Arena block: one slab allocation holding many SpanRecords. A root record
// is the first allocation of its op's first block; spill blocks are chained
// newest-first off root->arena. Closing the op frees the chain — O(blocks),
// not O(spans).
struct ArenaBlock {
  ArenaBlock* next = nullptr;
  uint32_t used = 0;
};
constexpr size_t kArenaHeader =
    (sizeof(ArenaBlock) + alignof(SpanRecord) - 1) & ~(alignof(SpanRecord) - 1);
// Sized so slab header + block lands exactly on a 2 KiB size class; holds a
// whole fault tree (and most eviction batches) in one block.
constexpr size_t kArenaBytes = 2032;
constexpr uint32_t kRecordsPerBlock =
    static_cast<uint32_t>((kArenaBytes - kArenaHeader) / sizeof(SpanRecord));
static_assert(kRecordsPerBlock >= 8, "arena block too small for a fault tree");

SpanRecord* BlockRecords(ArenaBlock* b) {
  return reinterpret_cast<SpanRecord*>(reinterpret_cast<char*>(b) + kArenaHeader);
}

ArenaBlock* NewBlock() {
  void* p = SlabAllocator::Allocate(kArenaBytes);
  return new (p) ArenaBlock();
}

const char* const kSpanKindNames[kNumSpanKinds] = {
    "fault",          "evict_batch",  "prefetch",      "entry",
    "dedup_wait",     "tenant_throttle", "tenant_park", "mm_locks",
    "alloc",          "free_wait",    "rdma_read",     "rdma_write",
    "rdma_retry",     "retry_backoff", "breaker_wait", "map_install",
    "accounting",     "unmap_victims", "shootdown_wait", "lazy_tlb_wait",
    "ipi_deliver",    "reclaim",      "backpressure",  "degraded_read",
    "rebuild",        "rdma_stack",
};
}  // namespace

SpanTracer* SpanTracer::current_ = nullptr;

const char* SpanKindName(SpanKind k) {
  int i = static_cast<int>(k);
  if (i < 0 || i >= kNumSpanKinds) return "?";
  return kSpanKindNames[i];
}

void ComputeCriticalPath(const SpanRecord* root, SimTime* out) {
  size_t self = static_cast<size_t>(root->kind);
  if (root->first_child == nullptr) {  // leaf: every ns is the span's own work
    if (root->t1 > root->t0) out[self] += root->t1 - root->t0;
    return;
  }
  // Most spans have a handful of children; collect into a stack buffer and
  // spill to the slab only for wide fan-out (large eviction batches).
  const SpanRecord* stack_kids[16];
  std::vector<const SpanRecord*, SlabStdAllocator<const SpanRecord*>> heap_kids;
  const SpanRecord** kids = stack_kids;
  size_t n = 0;
  for (const SpanRecord* c = root->first_child; c != nullptr; c = c->next_sibling) {
    if (n == 16 && heap_kids.empty()) {
      heap_kids.assign(stack_kids, stack_kids + 16);
    }
    if (n >= 16) {
      heap_kids.push_back(c);
      kids = heap_kids.data();
    } else {
      stack_kids[n] = c;
    }
    ++n;
  }
  if (!heap_kids.empty()) kids = heap_kids.data();
  // Children are appended in *emit* order; retro-emitted wait leaves can
  // start earlier than a sibling appended before them, so sort by start.
  std::sort(kids, kids + n, [](const SpanRecord* a, const SpanRecord* b) {
    return a->t0 != b->t0 ? a->t0 < b->t0 : a->id < b->id;
  });
  SimTime cursor = root->t0;
  for (size_t i = 0; i < n; ++i) {
    const SpanRecord* c = kids[i];
    if (c->t1 <= cursor) continue;  // concurrent with an earlier sibling
    if (c->t0 >= cursor) {
      out[self] += c->t0 - cursor;  // gap: the parent's own work
      ComputeCriticalPath(c, out);
    } else {
      // Partially overlapped: only the clipped remainder is on the critical
      // path; charge it to the child's kind without recursing (its internal
      // structure belongs to the overlapped prefix).
      out[static_cast<size_t>(c->kind)] += c->t1 - cursor;
    }
    cursor = c->t1;
  }
  if (root->t1 > cursor) out[self] += root->t1 - cursor;
}

SimTime SpanTailBand::total_ns() const {
  SimTime t = 0;
  for (SimTime v : phase_ns) t += v;
  return t;
}

double SpanTailBand::Share(SpanKind k) const {
  SimTime t = total_ns();
  if (t <= 0) return 0.0;
  return static_cast<double>(phase_ns[static_cast<size_t>(k)]) / static_cast<double>(t);
}

void SpanTracer::Agg::Fold(int64_t latency_ns, const SimTime* phase) {
  latency.Record(latency_ns);
  if (slot_ops.empty()) {
    slot_ops.assign(Histogram::kNumSlots, 0);
    slot_phase.assign(Histogram::kNumSlots, {});
  }
  size_t slot = static_cast<size_t>(Histogram::SlotFor(latency_ns));
  ++slot_ops[slot];
  auto& p = slot_phase[slot];
  for (int k = 0; k < kNumSpanKinds; ++k) p[static_cast<size_t>(k)] += phase[k];
}

SpanTracer::SpanTracer(const Options& opt) : opt_(opt), hash_(kFnvOffset) {
  if (opt_.top_k < 0) opt_.top_k = 0;
  if (!opt_.out_path.empty()) out_.open(opt_.out_path);
}

SpanTracer::~SpanTracer() {
  Uninstall();
  // Operations still open at teardown (threads parked mid-op at shutdown)
  // never finalized; reclaim their records.
  for (SpanRecord* root : open_roots_) FreeOp(root);
}

void SpanTracer::Install() {
  assert(current_ == nullptr || current_ == this);
  current_ = this;
}

void SpanTracer::Uninstall() {
  if (current_ == this) current_ = nullptr;
}

SpanRecord* SpanTracer::NewRecord(SpanRecord* root, SpanKind k, int32_t actor,
                                  uint64_t page, int tenant, SimTime t0) {
  ArenaBlock* b;
  if (root == nullptr) {
    b = NewBlock();
  } else {
    b = static_cast<ArenaBlock*>(root->arena);
    if (b->used == kRecordsPerBlock) {
      ArenaBlock* spill = NewBlock();
      spill->next = b;
      root->arena = spill;
      b = spill;
    }
  }
  SpanRecord* rec = new (BlockRecords(b) + b->used++) SpanRecord();
  rec->id = next_id_++;
  rec->kind = k;
  rec->actor = actor;
  rec->page = page;
  rec->tenant = static_cast<int8_t>(tenant);
  rec->t0 = t0;
  rec->t1 = t0;
  if (root == nullptr) rec->arena = b;
  return rec;
}

SpanRecord* SpanTracer::RootOf(SpanRecord* s) {
  while (s->parent != nullptr) s = s->parent;
  return s;
}

void SpanTracer::Adopt(SpanRecord* parent, SpanRecord* child) {
  child->parent = parent;
  if (parent->last_child == nullptr) {
    parent->first_child = child;
  } else {
    parent->last_child->next_sibling = child;
  }
  parent->last_child = child;
}

SpanHandle SpanTracer::BeginDetachedSampled(SpanKind k, int32_t actor, uint64_t page,
                                            int tenant, SimTime t0) {
  if (t0 < 0) t0 = Engine::NowOrZero();
  SpanRecord* rec = NewRecord(nullptr, k, actor, page, tenant, t0);
  rec->open_slot = static_cast<uint32_t>(open_roots_.size());
  open_roots_.push_back(rec);
  return SpanHandle{rec};
}

SpanHandle SpanTracer::BeginChildSampled(SpanHandle parent, SpanKind k, int32_t actor,
                                         uint64_t page, int tenant) {
  SpanRecord* rec =
      NewRecord(RootOf(parent.rec), k, actor, page, tenant, Engine::NowOrZero());
  Adopt(parent.rec, rec);
  return SpanHandle{rec};
}

void SpanTracer::EndDetachedSampled(SpanHandle h, uint64_t arg) {
  SpanRecord* rec = h.rec;
  rec->t1 = Engine::NowOrZero();
  rec->arg = arg;
  Seal(rec);
  if (rec->parent != nullptr) return;
  SpanRecord* last = open_roots_.back();
  last->open_slot = rec->open_slot;
  open_roots_[rec->open_slot] = last;
  open_roots_.pop_back();
  FinalizeOp(rec);
}

uint64_t SpanTracer::Leaf(SpanKind k, SimTime t0, int32_t actor, uint64_t page,
                          SpanCausalPoint link, uint64_t arg) {
  SimTime now = Engine::NowOrZero();
  if (now <= t0 || !SampleRoot(k)) return 0;
  SpanRecord* rec = NewRecord(nullptr, k, actor, page, -1, t0);
  rec->t1 = now;
  rec->arg = arg;
  if (link.id != 0) {
    rec->link = link.id;
    rec->link_actor = link.actor;
    rec->link_t = link.t;
  }
  uint64_t id = rec->id;
  Seal(rec);
  FinalizeOp(rec);
  return id;
}

uint64_t SpanTracer::LeafUnderSampled(SpanHandle parent, SpanKind k, SimTime t0,
                                      SimTime t1, int32_t actor, uint64_t page,
                                      SpanCausalPoint link, uint64_t arg) {
  SpanRecord* rec = NewRecord(RootOf(parent.rec), k, actor, page, -1, t0);
  rec->t1 = t1;
  rec->arg = arg;
  if (link.id != 0) {
    rec->link = link.id;
    rec->link_actor = link.actor;
    rec->link_t = link.t;
  }
  Seal(rec);
  Adopt(parent.rec, rec);
  return rec->id;
}

void SpanTracer::NoteHeadroomPublisherSampled(SpanHandle h) {
  headroom_ = SpanCausalPoint{h.rec->id, h.rec->actor, Engine::NowOrZero()};
}

void SpanTracer::NoteBreakerOpenSampled(int channel, SpanHandle h) {
  breaker_open_[static_cast<size_t>(channel & 1)] =
      SpanCausalPoint{h.rec->id, h.rec->actor, Engine::NowOrZero()};
}

SpanCausalPoint SpanTracer::breaker_open(int channel) const {
  return breaker_open_[static_cast<size_t>(channel & 1)];
}

void SpanTracer::NoteTenantReleaseSampled(int tenant, SpanHandle h) {
  if (static_cast<size_t>(tenant) >= tenant_release_.size()) {
    tenant_release_.resize(static_cast<size_t>(tenant) + 1);
  }
  tenant_release_[static_cast<size_t>(tenant)] =
      SpanCausalPoint{h.rec->id, h.rec->actor, Engine::NowOrZero()};
}

SpanCausalPoint SpanTracer::tenant_release(int tenant) const {
  if (tenant < 0 || static_cast<size_t>(tenant) >= tenant_release_.size()) return {};
  return tenant_release_[static_cast<size_t>(tenant)];
}

void SpanTracer::NotePageSpan(uint64_t vpn, SpanHandle h) {
  if (h.rec == nullptr || h.rec == &suppress_) return;
  page_spans_[vpn] = SpanCausalPoint{h.rec->id, h.rec->actor, h.rec->t0};
}

void SpanTracer::ErasePageSpan(uint64_t vpn) { page_spans_.erase(vpn); }

SpanCausalPoint SpanTracer::page_span(uint64_t vpn) const {
  auto it = page_spans_.find(vpn);
  return it != page_spans_.end() ? it->second : SpanCausalPoint{};
}

void SpanTracer::Mix(uint64_t v) {
  uint64_t h = (hash_ ^ v) * kFnvPrime;
  hash_ = h ^ (h >> 29);
}

void SpanTracer::Seal(const SpanRecord* s) {
  Mix(s->id);
  Mix(static_cast<uint64_t>(s->kind));
  Mix(static_cast<uint64_t>(s->t0));
  Mix(static_cast<uint64_t>(s->t1));
  Mix(static_cast<uint64_t>(static_cast<int64_t>(s->actor)));
  Mix(s->page);
  Mix(s->link);
  Mix(s->arg);
  Mix(static_cast<uint64_t>(static_cast<int64_t>(s->tenant)));
  ++span_counts_[static_cast<size_t>(s->kind)];
  ++spans_total_;
  if (s->link != 0) ++links_total_;
}

void SpanTracer::ExportTree(const SpanRecord* s, SpanKind op) {
  if (out_.is_open()) ExportSpan(s, op);
  if (chrome_ != nullptr) ChromeSpan(s);
  for (const SpanRecord* c = s->first_child; c != nullptr; c = c->next_sibling) {
    ExportTree(c, op);
  }
}

void SpanTracer::ExportSpan(const SpanRecord* s, SpanKind op) {
  char buf[352];
  int n = std::snprintf(buf, sizeof(buf),
                        "{\"id\":%" PRIu64 ",\"op\":\"%s\",\"kind\":\"%s\",\"t0\":%" PRId64
                        ",\"t1\":%" PRId64 ",\"actor\":%d",
                        s->id, SpanKindName(op), SpanKindName(s->kind),
                        static_cast<int64_t>(s->t0), static_cast<int64_t>(s->t1),
                        s->actor);
  auto append = [&](const char* fmt, auto... args) {
    if (n < 0 || static_cast<size_t>(n) >= sizeof(buf)) return;
    int w = std::snprintf(buf + n, sizeof(buf) - static_cast<size_t>(n), fmt, args...);
    if (w > 0) n += w;
  };
  if (s->parent != nullptr) append(",\"parent\":%" PRIu64, s->parent->id);
  if (s->page != kTraceNoPage) append(",\"page\":%" PRIu64, s->page);
  if (s->tenant >= 0) append(",\"tenant\":%d", static_cast<int>(s->tenant));
  if (s->link != 0) {
    append(",\"link\":%" PRIu64 ",\"link_t\":%" PRId64, s->link,
           static_cast<int64_t>(s->link_t));
  }
  if (s->arg != 0) append(",\"arg\":%" PRIu64, s->arg);
  append("}");
  out_ << buf << "\n";
}

void SpanTracer::ChromeSpan(const SpanRecord* s) {
  // Spans ride the attached sink as pid-2 complete slices so they overlay
  // the pid-1 event stream without colliding with its B/E nesting.
  char buf[288];
  std::snprintf(buf, sizeof(buf),
                "{\"name\":\"%s\",\"cat\":\"span\",\"ph\":\"X\",\"ts\":%.3f,"
                "\"dur\":%.3f,\"pid\":2,\"tid\":%d,\"args\":{\"id\":%" PRIu64
                ",\"page\":%" PRId64 ",\"arg\":%" PRIu64 "}}",
                SpanKindName(s->kind), NsToUs(s->t0), NsToUs(s->t1 - s->t0),
                s->actor >= 0 ? s->actor : 999, s->id,
                s->page == kTraceNoPage ? -1 : static_cast<int64_t>(s->page), s->arg);
  chrome_->AppendRaw(buf);
  if (s->link != 0) {
    // Flow arrow from the publisher's track at publish time to this span's
    // completion; flow id = waiter span id (unique per arrow).
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"causal\",\"cat\":\"span\",\"ph\":\"s\",\"id\":%" PRIu64
                  ",\"ts\":%.3f,\"pid\":2,\"tid\":%d}",
                  s->id, NsToUs(s->link_t), s->link_actor >= 0 ? s->link_actor : 999);
    chrome_->AppendRaw(buf);
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"causal\",\"cat\":\"span\",\"ph\":\"f\",\"bp\":\"e\","
                  "\"id\":%" PRIu64 ",\"ts\":%.3f,\"pid\":2,\"tid\":%d}",
                  s->id, NsToUs(s->t1), s->actor >= 0 ? s->actor : 999);
    chrome_->AppendRaw(buf);
  }
}

void SpanTracer::Flatten(const SpanRecord* s, int parent_idx, SpanExemplar* ex) {
  if (ex->spans.size() >= kMaxExemplarSpans) {
    ++ex->dropped_spans;
    ++exemplar_trunc_spans_;
  } else {
    ex->spans.push_back(SpanExemplar::FlatSpan{s->id, s->link, s->t0, s->t1, s->page,
                                               s->arg, parent_idx, s->actor, s->kind,
                                               s->tenant});
    parent_idx = static_cast<int>(ex->spans.size()) - 1;
  }
  for (const SpanRecord* c = s->first_child; c != nullptr; c = c->next_sibling) {
    Flatten(c, parent_idx, ex);
  }
}

void SpanTracer::MaybeKeepExemplar(SpanRecord* root, int64_t latency_ns,
                                   const SimTime* phase) {
  if (opt_.top_k <= 0) return;
  auto& pool = exemplars_[static_cast<size_t>(root->kind)];
  if (pool.size() >= static_cast<size_t>(opt_.top_k) &&
      latency_ns <= pool.back().latency_ns) {
    return;  // ties keep the earlier (lower-id) op — deterministic
  }
  SpanExemplar ex;
  ex.latency_ns = latency_ns;
  ex.id = root->id;
  ex.tenant = root->tenant;
  for (int k = 0; k < kNumSpanKinds; ++k) ex.phase_ns[static_cast<size_t>(k)] = phase[k];
  Flatten(root, -1, &ex);
  auto pos = std::upper_bound(pool.begin(), pool.end(), ex,
                              [](const SpanExemplar& a, const SpanExemplar& b) {
                                return a.latency_ns != b.latency_ns
                                           ? a.latency_ns > b.latency_ns
                                           : a.id < b.id;
                              });
  pool.insert(pos, std::move(ex));
  if (pool.size() > static_cast<size_t>(opt_.top_k)) pool.pop_back();
}

void SpanTracer::FreeOp(SpanRecord* root) {
  // The chain is newest-first; the root record lives inside the last block,
  // so grab each `next` before its block is recycled.
  ArenaBlock* b = static_cast<ArenaBlock*>(root->arena);
  while (b != nullptr) {
    ArenaBlock* next = b->next;
    SlabAllocator::Deallocate(b);
    b = next;
  }
}

void SpanTracer::FinalizeOp(SpanRecord* root) {
  int64_t latency_ns = root->t1 - root->t0;
  if (latency_ns < 0) latency_ns = 0;
  SimTime phase[kNumSpanKinds] = {};
  {
    ComputeCriticalPath(root, phase);
  }
  ++ops_[static_cast<size_t>(root->kind)];
  aggs_[static_cast<size_t>(root->kind)].Fold(latency_ns, phase);
  if (root->kind == SpanKind::kFault && root->tenant >= 0) {
    tenant_aggs_[root->tenant].Fold(latency_ns, phase);
  }
  MaybeKeepExemplar(root, latency_ns, phase);
  if (out_.is_open() || chrome_ != nullptr) ExportTree(root, root->kind);
  FreeOp(root);
}

SpanTailSummary SpanTracer::TailFromAgg(const Agg& a) {
  SpanTailSummary out;
  out.count = a.latency.count();
  out.latency = a.latency;
  if (out.count == 0 || a.slot_ops.empty()) return out;
  for (size_t slot = 0; slot < a.slot_ops.size(); ++slot) {
    for (int k = 0; k < kNumSpanKinds; ++k) {
      out.phase_ns[static_cast<size_t>(k)] += a.slot_phase[slot][static_cast<size_t>(k)];
    }
  }
  constexpr double kPcts[4] = {50.0, 90.0, 99.0, 99.9};
  int edges[5];
  for (int i = 0; i < 4; ++i) {
    int64_t threshold = a.latency.Percentile(kPcts[i]);
    out.bands[static_cast<size_t>(i)].threshold_ns = threshold;
    edges[i] = Histogram::SlotFor(threshold);
    if (i > 0 && edges[i] < edges[i - 1]) edges[i] = edges[i - 1];
  }
  edges[4] = Histogram::kNumSlots;
  for (int i = 0; i < 4; ++i) {
    SpanTailBand& band = out.bands[static_cast<size_t>(i)];
    for (int slot = edges[i]; slot < edges[i + 1]; ++slot) {
      band.ops += a.slot_ops[static_cast<size_t>(slot)];
      for (int k = 0; k < kNumSpanKinds; ++k) {
        band.phase_ns[static_cast<size_t>(k)] +=
            a.slot_phase[static_cast<size_t>(slot)][static_cast<size_t>(k)];
      }
    }
  }
  return out;
}

SpanTailSummary SpanTracer::Tail(SpanKind root_kind) const {
  return TailFromAgg(aggs_[static_cast<size_t>(root_kind)]);
}

SpanTailSummary SpanTracer::TenantTail(int tenant) const {
  auto it = tenant_aggs_.find(tenant);
  if (it == tenant_aggs_.end()) return SpanTailSummary{};
  return TailFromAgg(it->second);
}

std::vector<SpanKind> SpanTracer::ActiveRootKinds() const {
  std::vector<SpanKind> out;
  for (int k = 0; k < kNumSpanKinds; ++k) {
    if (ops_[static_cast<size_t>(k)] > 0) out.push_back(static_cast<SpanKind>(k));
  }
  return out;
}

std::vector<int> SpanTracer::ActiveTenants() const {
  std::vector<int> out;
  out.reserve(tenant_aggs_.size());
  for (const auto& [t, agg] : tenant_aggs_) out.push_back(t);
  return out;
}

const std::vector<SpanExemplar>& SpanTracer::Exemplars(SpanKind root_kind) const {
  return exemplars_[static_cast<size_t>(root_kind)];
}

std::string SpanTracer::FingerprintSummary() const {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "hash=%016" PRIx64 " total=%" PRIu64, hash_,
                spans_total_);
  std::string out = buf;
  for (int k = 0; k < kNumSpanKinds; ++k) {
    if (ops_[static_cast<size_t>(k)] == 0) continue;
    std::snprintf(buf, sizeof(buf), " ops.%s=%" PRIu64,
                  SpanKindName(static_cast<SpanKind>(k)), ops_[static_cast<size_t>(k)]);
    out += buf;
  }
  for (int k = 0; k < kNumSpanKinds; ++k) {
    if (span_counts_[static_cast<size_t>(k)] == 0) continue;
    std::snprintf(buf, sizeof(buf), " %s=%" PRIu64,
                  SpanKindName(static_cast<SpanKind>(k)),
                  span_counts_[static_cast<size_t>(k)]);
    out += buf;
  }
  return out;
}

namespace {
void AppendPhasesJson(JsonWriter& w, const std::array<SimTime, kNumSpanKinds>& phase) {
  SimTime total = 0;
  for (SimTime v : phase) total += v;
  w.BeginObject();
  for (int k = 0; k < kNumSpanKinds; ++k) {
    SimTime v = phase[static_cast<size_t>(k)];
    if (v == 0) continue;
    w.Key(SpanKindName(static_cast<SpanKind>(k)));
    w.BeginObject();
    w.KV("ns", static_cast<int64_t>(v));
    w.KV("share", total > 0 ? static_cast<double>(v) / static_cast<double>(total) : 0.0);
    w.EndObject();
  }
  w.EndObject();
}

void AppendTailSummaryJson(JsonWriter& w, const SpanTailSummary& t,
                           const std::vector<SpanExemplar>* slowest) {
  w.BeginObject();
  w.KV("count", t.count);
  w.Key("latency");
  AppendHistogramJson(w, t.latency);
  w.Key("phases");
  AppendPhasesJson(w, t.phase_ns);
  w.Key("bands");
  w.BeginObject();
  for (size_t i = 0; i < t.bands.size(); ++i) {
    w.Key(kSpanBandNames[i]);
    w.BeginObject();
    w.KV("threshold_ns", t.bands[i].threshold_ns);
    w.KV("ops", t.bands[i].ops);
    w.Key("phases");
    AppendPhasesJson(w, t.bands[i].phase_ns);
    w.EndObject();
  }
  w.EndObject();
  if (slowest != nullptr) {
    w.Key("slowest");
    w.BeginArray();
    for (const SpanExemplar& ex : *slowest) {
      w.BeginObject();
      w.KV("latency_ns", ex.latency_ns);
      w.KV("id", ex.id);
      if (ex.tenant >= 0) w.KV("tenant", static_cast<int>(ex.tenant));
      if (ex.dropped_spans > 0) w.KV("dropped_spans", static_cast<uint64_t>(ex.dropped_spans));
      w.Key("phases");
      AppendPhasesJson(w, ex.phase_ns);
      w.Key("spans");
      w.BeginArray();
      for (const SpanExemplar::FlatSpan& s : ex.spans) {
        w.BeginObject();
        w.KV("id", s.id);
        w.KV("parent", s.parent);
        w.KV("kind", SpanKindName(s.kind));
        w.KV("t0", static_cast<int64_t>(s.t0));
        w.KV("t1", static_cast<int64_t>(s.t1));
        w.KV("actor", static_cast<int>(s.actor));
        if (s.page != kTraceNoPage) w.KV("page", s.page);
        if (s.link != 0) w.KV("link", s.link);
        if (s.arg != 0) w.KV("arg", s.arg);
        w.EndObject();
      }
      w.EndArray();
      w.EndObject();
    }
    w.EndArray();
  }
  w.EndObject();
}
}  // namespace

void SpanTracer::AppendTailJson(JsonWriter& w,
                                const std::vector<std::string>& tenant_names) const {
  w.BeginObject();
  w.KV("top_k", opt_.top_k);
  w.KV("spans_total", spans_total_);
  w.KV("links_total", links_total_);
  w.Key("ops");
  w.BeginObject();
  for (SpanKind k : ActiveRootKinds()) {
    w.Key(SpanKindName(k));
    SpanTailSummary t = Tail(k);
    AppendTailSummaryJson(w, t, &Exemplars(k));
  }
  w.EndObject();
  w.Key("tenants");
  w.BeginObject();
  for (int t : ActiveTenants()) {
    std::string name = static_cast<size_t>(t) < tenant_names.size()
                           ? tenant_names[static_cast<size_t>(t)]
                           : "tenant" + std::to_string(t);
    w.Key(name);
    SpanTailSummary ts = TenantTail(t);
    AppendTailSummaryJson(w, ts, nullptr);
  }
  w.EndObject();
  w.EndObject();
}

}  // namespace magesim
