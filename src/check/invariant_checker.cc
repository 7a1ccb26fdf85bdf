#include "src/check/invariant_checker.h"

#include <cinttypes>
#include <cstdio>

#include "src/analysis/lock_analyzer.h"
#include "src/fleet/fleet.h"
#include "src/resilience/resilient_rdma.h"
#include "src/sim/engine.h"
#include "src/tenancy/memcg.h"

namespace magesim {

namespace {

// Where the ownership census last saw a frame.
enum class Owner : uint8_t { kNone, kBuddy, kCache, kPte };

const char* OwnerName(Owner o) {
  switch (o) {
    case Owner::kNone: return "nobody";
    case Owner::kBuddy: return "buddy free list";
    case Owner::kCache: return "allocator cache";
    case Owner::kPte: return "present PTE";
  }
  return "?";
}

std::string Describe(const char* fmt, uint64_t a) {
  char buf[192];
  std::snprintf(buf, sizeof(buf), fmt, a);
  return buf;
}

std::string Describe(const char* fmt, uint64_t a, uint64_t b) {
  char buf[192];
  std::snprintf(buf, sizeof(buf), fmt, a, b);
  return buf;
}

}  // namespace

const char* ViolationClassName(ViolationClass c) {
  switch (c) {
    case ViolationClass::kPteFrameMismatch: return "pte_frame_mismatch";
    case ViolationClass::kFrameAliased: return "frame_aliased";
    case ViolationClass::kBuddyCorruption: return "buddy_corruption";
    case ViolationClass::kBuddyNotCoalesced: return "buddy_not_coalesced";
    case ViolationClass::kAccountingLeak: return "accounting_leak";
    case ViolationClass::kEvictFaultOverlap: return "evict_fault_overlap";
    case ViolationClass::kFrameLeak: return "frame_leak";
    case ViolationClass::kStaleRemoteRead: return "stale_remote_read";
    case ViolationClass::kTransitLeak: return "transit_leak";
    case ViolationClass::kStuckFault: return "stuck_fault";
    case ViolationClass::kLockQuiescence: return "lock_quiescence";
    case ViolationClass::kTenantCharge: return "tenant_charge";
    case ViolationClass::kFleetReplica: return "fleet_replica";
    case ViolationClass::kNumClasses: break;
  }
  return "unknown";
}

InvariantChecker::InvariantChecker(Kernel& kernel, const TraceRingBuffer* recent,
                                   InvariantCheckerOptions opts)
    : kernel_(kernel), recent_(recent), opts_(opts) {}

void InvariantChecker::Add(ViolationClass cls, uint64_t vpn, uint64_t pfn, std::string msg) {
  if (!seen_.emplace(static_cast<uint8_t>(cls), vpn, pfn).second) return;
  ++total_violations_;
  if (violations_.size() >= opts_.max_recorded) return;
  if (recent_ != nullptr && (vpn != kTraceNoPage || pfn != kTraceNoFrame)) {
    for (const TraceEvent& e : recent_->LastTouching(vpn, pfn, opts_.trace_context)) {
      msg += "\n      ";
      msg += FormatTraceEvent(e);
    }
  }
  violations_.push_back(Violation{cls, vpn, pfn, std::move(msg)});
}

size_t InvariantChecker::CheckNow() {
  ++checks_run_;
  uint64_t before = total_violations_;

  FramePool& pool = kernel_.frame_pool();
  PageTable& pt = kernel_.page_table();
  BuddyAllocator& buddy = kernel_.buddy();
  uint64_t num_frames = pool.size();

  // --- Rule 2: buddy internal consistency + coalescing ---
  if (!buddy.CheckConsistency()) {
    Add(ViolationClass::kBuddyCorruption, kTraceNoPage, kTraceNoFrame,
        "buddy free lists inconsistent (overlapping blocks, stale block "
        "orders, non-free frames on a free list, or free_pages drift)");
  }
  std::vector<std::pair<uint32_t, int>> blocks = buddy.FreeBlocks();
  std::set<std::pair<uint32_t, int>> block_set(blocks.begin(), blocks.end());
  for (const auto& [pfn, order] : blocks) {
    if (order >= BuddyAllocator::kMaxOrder) continue;
    uint32_t sibling = pfn ^ (1u << order);
    if (pfn < sibling && block_set.count({sibling, order}) > 0) {
      Add(ViolationClass::kBuddyNotCoalesced, kTraceNoPage, pfn,
          Describe("buddy pair pfn=%" PRIu64 "/+%" PRIu64
                   " both free at the same order without merging",
                   pfn, static_cast<uint64_t>(sibling)));
    }
  }

  // --- Ownership census: who holds each frame right now ---
  std::vector<Owner> owner(num_frames, Owner::kNone);
  auto claim = [&](uint32_t pfn, Owner who) {
    if (owner[pfn] != Owner::kNone) {
      Add(ViolationClass::kFrameAliased, kTraceNoPage, pfn,
          std::string("frame owned twice: ") + OwnerName(owner[pfn]) + " and " +
              OwnerName(who) + Describe(" (pfn=%" PRIu64 ")", pfn));
      return false;
    }
    owner[pfn] = who;
    return true;
  };
  for (const auto& [start, order] : blocks) {
    for (uint32_t i = 0; i < (1u << order); ++i) {
      uint32_t pfn = start + i;
      if (pfn >= num_frames) break;  // CheckConsistency already flagged it
      claim(pfn, Owner::kBuddy);
      if (pool.frame(pfn).state != PageFrame::State::kFree) {
        Add(ViolationClass::kBuddyCorruption, kTraceNoPage, pfn,
            Describe("pfn=%" PRIu64 " is on a buddy free list but not in "
                     "state kFree", pfn));
      }
    }
  }
  std::vector<PageFrame*> cached;
  kernel_.allocator().AppendCached(&cached);
  for (PageFrame* f : cached) {
    claim(f->pfn, Owner::kCache);
    if (f->state != PageFrame::State::kFree && f->state != PageFrame::State::kAllocated) {
      Add(ViolationClass::kFrameAliased, f->vpn, f->pfn,
          Describe("pfn=%" PRIu64 " sits in an allocator cache while "
                   "mapped/isolated (vpn=%" PRIu64 ")", f->pfn, f->vpn));
    }
    if (f->linked()) {
      Add(ViolationClass::kAccountingLeak, f->vpn, f->pfn,
          Describe("pfn=%" PRIu64 " sits in an allocator cache but is still "
                   "linked into accounting list %" PRIu64, f->pfn,
                   static_cast<uint64_t>(f->lru_list)));
    }
  }

  // --- Rule 1: present PTE <-> frame bijection ---
  uint64_t present = 0;
  for (uint64_t vpn = 0; vpn < pt.num_pages(); ++vpn) {
    const Pte& pte = pt.At(vpn);
    if (!pte.present) continue;
    ++present;
    if (pte.frame == nullptr) {
      Add(ViolationClass::kPteFrameMismatch, vpn, kTraceNoFrame,
          Describe("vpn=%" PRIu64 " is present with a null frame", vpn));
      continue;
    }
    const PageFrame& f = *pte.frame;
    claim(f.pfn, Owner::kPte);
    if (f.vpn != vpn) {
      Add(ViolationClass::kPteFrameMismatch, vpn, f.pfn,
          Describe("vpn=%" PRIu64 " maps a frame that points back at vpn=%" PRIu64, vpn,
                   f.vpn));
    }
    if (f.state != PageFrame::State::kMapped && f.state != PageFrame::State::kIsolated) {
      Add(ViolationClass::kPteFrameMismatch, vpn, f.pfn,
          Describe("vpn=%" PRIu64 " maps pfn=%" PRIu64
                   " whose state is neither kMapped nor kIsolated", vpn, f.pfn));
    }
    // Rule 4: a frame an evictor isolated must not belong to an in-flight
    // fault — dedup guarantees faults never complete on a page an eviction
    // batch is concurrently tearing down.
    if (f.state == PageFrame::State::kIsolated && pte.fault_in_flight) {
      Add(ViolationClass::kEvictFaultOverlap, vpn, f.pfn,
          Describe("vpn=%" PRIu64 " (pfn=%" PRIu64
                   ") is in an eviction batch while a fault is in flight", vpn, f.pfn));
    }
  }
  if (present != pt.mapped_pages()) {
    Add(ViolationClass::kPteFrameMismatch, kTraceNoPage, kTraceNoFrame,
        Describe("page table reports %" PRIu64 " mapped pages but %" PRIu64
                 " PTEs are present", pt.mapped_pages(), present));
  }

  // --- Rules 3 + 5: frame walk (accounting sync, leaks, stale refaults) ---
  uint64_t linked = 0;
  for (uint64_t i = 0; i < num_frames; ++i) {
    const PageFrame& f = pool.frame(static_cast<uint32_t>(i));
    uint32_t pfn = f.pfn;
    if (f.linked()) {
      ++linked;
      if (f.state != PageFrame::State::kMapped) {
        Add(ViolationClass::kAccountingLeak, f.vpn, pfn,
            Describe("pfn=%" PRIu64 " is linked into accounting but not mapped "
                     "(vpn=%" PRIu64 ")", pfn, f.vpn));
        continue;
      }
    }
    switch (f.state) {
      case PageFrame::State::kFree:
        if (owner[pfn] == Owner::kNone) {
          Add(ViolationClass::kFrameLeak, kTraceNoPage, pfn,
              Describe("pfn=%" PRIu64 " is free but owned by no allocator (leaked)",
                       pfn));
        }
        break;
      case PageFrame::State::kAllocated:
        // In transit between Alloc and Map inside a fault (or parked in a
        // cache, already claimed above); never resident, never linked.
        if (f.linked()) {
          Add(ViolationClass::kAccountingLeak, f.vpn, pfn,
              Describe("pfn=%" PRIu64 " is merely allocated yet linked into accounting",
                       pfn));
        }
        break;
      case PageFrame::State::kMapped: {
        bool backed = f.vpn != kInvalidVpn && f.vpn < pt.num_pages() &&
                      pt.At(f.vpn).present && pt.At(f.vpn).frame == &f;
        if (!backed) {
          Add(ViolationClass::kPteFrameMismatch, f.vpn, pfn,
              Describe("pfn=%" PRIu64 " claims to be mapped at vpn=%" PRIu64
                       " but that PTE does not map it", pfn, f.vpn));
        } else if (!f.linked() && !pt.At(f.vpn).fault_in_flight) {
          // A mapped page outside accounting is only legal while its fault
          // (or prefetch) is still completing the Insert.
          Add(ViolationClass::kAccountingLeak, f.vpn, pfn,
              Describe("vpn=%" PRIu64 " (pfn=%" PRIu64 ") is resident but "
                       "missing from the accounting lists", f.vpn, pfn));
        }
        break;
      }
      case PageFrame::State::kIsolated:
        // Inside an eviction batch: owned by the evictor, not by any census
        // owner. Rule 4 handled the still-present case above.
        if (opts_.check_stale_remote_reads && f.dirty && f.vpn != kInvalidVpn &&
            f.vpn < pt.num_pages() && !pt.At(f.vpn).present &&
            pt.At(f.vpn).fault_in_flight && !kernel_.remote_valid(f.vpn)) {
          Add(ViolationClass::kStaleRemoteRead, f.vpn, pfn,
              Describe("vpn=%" PRIu64 " is refaulting while its dirty victim "
                       "(pfn=%" PRIu64 ") has not been written back", f.vpn, pfn));
        }
        break;
    }
  }
  if (linked != kernel_.accounting().tracked_pages()) {
    Add(ViolationClass::kAccountingLeak, kTraceNoPage, kTraceNoFrame,
        Describe("accounting tracks %" PRIu64 " pages but %" PRIu64
                 " frames are linked", kernel_.accounting().tracked_pages(), linked));
  }

  // --- Resilience rule: frames in transit are bounded by in-flight faults ---
  // Each non-present in-flight fault (demand or prefetch) holds at most one
  // kAllocated frame between Alloc and Map. A retry/poison/abandon path that
  // bails out without freeing its frame pushes the transit count above the
  // in-flight count — a leak no single-frame rule can see, because any
  // individual transit frame looks legitimate.
  uint64_t transit = 0;
  for (uint64_t i = 0; i < num_frames; ++i) {
    const PageFrame& f = pool.frame(static_cast<uint32_t>(i));
    if (f.state == PageFrame::State::kAllocated && owner[f.pfn] == Owner::kNone) {
      ++transit;
    }
  }
  uint64_t inflight = 0;
  for (uint64_t vpn = 0; vpn < pt.num_pages(); ++vpn) {
    const Pte& pte = pt.At(vpn);
    if (pte.fault_in_flight && !pte.present) ++inflight;
  }
  if (transit > inflight) {
    Add(ViolationClass::kTransitLeak, kTraceNoPage, kTraceNoFrame,
        Describe("%" PRIu64 " frames are in transit (kAllocated, unowned) but "
                 "only %" PRIu64 " faults are in flight: a failed remote op "
                 "leaked its frame", transit, inflight));
  }

  CheckTenantCharges();
  CheckFleetReplicas();

  return static_cast<size_t>(total_violations_ - before);
}

size_t InvariantChecker::CheckFleetReplicas() {
  const FleetManager& fleet = kernel_.resilience().fleet();
  uint64_t before = total_violations_;

  PageTable& pt = kernel_.page_table();
  for (uint64_t vpn = 0; vpn < pt.num_pages(); ++vpn) {
    if (pt.At(vpn).present) continue;
    uint64_t slot = kernel_.FleetSlotOf(vpn);
    if (!fleet.HasLiveCopy(slot) && !fleet.IsLostReported(slot)) {
      Add(ViolationClass::kFleetReplica, vpn, kTraceNoFrame,
          Describe("vpn=%" PRIu64 " lives remotely in slot %" PRIu64
                   " which has no live replica and was never surfaced as lost",
                   vpn, slot));
    }
  }
  uint64_t silent = fleet.CheckConsistency();
  if (silent != 0) {
    Add(ViolationClass::kFleetReplica, kTraceNoPage, kTraceNoFrame,
        Describe("fleet replica table holds %" PRIu64
                 " slot(s) with zero live copies and no loss report", silent));
  }
  return static_cast<size_t>(total_violations_ - before);
}

size_t InvariantChecker::CheckTenantCharges() {
  TenancyManager* ten = kernel_.tenancy();
  if (ten == nullptr || ten->num_tenants() == 0) return 0;
  uint64_t before = total_violations_;

  PageTable& pt = kernel_.page_table();
  std::vector<uint64_t> resident(static_cast<size_t>(ten->num_tenants()), 0);
  uint64_t total_resident = 0;
  for (uint64_t vpn = 0; vpn < pt.num_pages(); ++vpn) {
    bool present = pt.At(vpn).present;
    int charged = ten->charged_tenant(vpn);
    if (present) {
      ++total_resident;
      int owner = ten->TenantOf(vpn);
      if (owner >= 0 && owner < ten->num_tenants()) ++resident[static_cast<size_t>(owner)];
      if (charged < 0) {
        Add(ViolationClass::kTenantCharge, vpn, kTraceNoFrame,
            Describe("vpn=%" PRIu64 " is resident but charged to no tenant", vpn));
      } else if (charged != owner) {
        Add(ViolationClass::kTenantCharge, vpn, kTraceNoFrame,
            Describe("vpn=%" PRIu64 " is charged to tenant %" PRIu64
                     " but its vpn window belongs to another tenant",
                     vpn, static_cast<uint64_t>(charged)));
      }
    } else if (charged >= 0) {
      Add(ViolationClass::kTenantCharge, vpn, kTraceNoFrame,
          Describe("vpn=%" PRIu64 " is not resident but still charged to tenant %" PRIu64,
                   vpn, static_cast<uint64_t>(charged)));
    }
  }
  for (int t = 0; t < ten->num_tenants(); ++t) {
    uint64_t usage = ten->cgroup(t).usage();
    if (usage != resident[static_cast<size_t>(t)]) {
      Add(ViolationClass::kTenantCharge, kTraceNoPage, kTraceNoFrame,
          Describe("tenant %" PRIu64 " cgroup usage %" PRIu64
                   " disagrees with its resident page count",
                   static_cast<uint64_t>(t), usage));
    }
  }
  if (ten->root().usage() != total_resident) {
    Add(ViolationClass::kTenantCharge, kTraceNoPage, kTraceNoFrame,
        Describe("root cgroup usage %" PRIu64 " disagrees with %" PRIu64
                 " total resident pages", ten->root().usage(), total_resident));
  }
  if (ten->double_charges() != 0) {
    Add(ViolationClass::kTenantCharge, kTraceNoPage, kTraceNoFrame,
        Describe("%" PRIu64 " double charges observed (a vpn charged while "
                 "already charged)", ten->double_charges()));
  }
  if (ten->missing_uncharges() != 0) {
    Add(ViolationClass::kTenantCharge, kTraceNoPage, kTraceNoFrame,
        Describe("%" PRIu64 " uncharges observed for vpns that were not "
                 "charged", ten->missing_uncharges()));
  }
  return static_cast<size_t>(total_violations_ - before);
}

size_t InvariantChecker::CheckQuiescent() {
  uint64_t before = total_violations_;
  CheckNow();

  PageTable& pt = kernel_.page_table();
  for (uint64_t vpn = 0; vpn < pt.num_pages(); ++vpn) {
    if (pt.At(vpn).fault_in_flight) {
      Add(ViolationClass::kStuckFault, vpn, kTraceNoFrame,
          Describe("vpn=%" PRIu64 " still has fault_in_flight at quiescence: "
                   "some path bailed out without EndFault", vpn));
    }
  }

  // With no faults in flight, every unowned kAllocated frame is a leak.
  FramePool& pool = kernel_.frame_pool();
  std::vector<PageFrame*> cached;
  kernel_.allocator().AppendCached(&cached);
  std::vector<bool> in_cache(pool.size(), false);
  for (PageFrame* f : cached) in_cache[f->pfn] = true;
  for (uint64_t i = 0; i < pool.size(); ++i) {
    const PageFrame& f = pool.frame(static_cast<uint32_t>(i));
    if (f.state == PageFrame::State::kAllocated && !in_cache[f.pfn]) {
      Add(ViolationClass::kTransitLeak, f.vpn, f.pfn,
          Describe("pfn=%" PRIu64 " is still kAllocated at quiescence "
                   "(last vpn=%" PRIu64 "): leaked in transit", f.pfn, f.vpn));
    }
  }

  CheckLockQuiescence();

  return static_cast<size_t>(total_violations_ - before);
}

size_t InvariantChecker::CheckLockQuiescence() {
  LockAnalyzer* la = LockAnalyzer::Get();
  if (la == nullptr) return 0;
  std::vector<std::string> held = la->QuiescenceReport();
  if (held.empty()) return 0;
  // One aggregated violation naming every offending lock: the lines are
  // task-dependent free text, so folding them keeps the (class, vpn, pfn)
  // dedup key meaningful.
  std::string msg = "lock state not quiescent at drain:";
  for (const std::string& line : held) {
    msg += "\n      ";
    msg += line;
  }
  Add(ViolationClass::kLockQuiescence, kTraceNoPage, kTraceNoFrame, std::move(msg));
  return 1;
}

Task<> InvariantChecker::PeriodicMain(SimTime interval) {
  Engine& eng = Engine::current();
  while (!eng.shutdown_requested()) {
    co_await Delay{interval};
    if (eng.shutdown_requested()) break;
    CheckNow();
  }
}

std::string InvariantChecker::Report() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "invariant checks: %" PRIu64 " runs, %" PRIu64 " violations",
                checks_run_, total_violations_);
  std::string s = buf;
  std::array<uint64_t, static_cast<size_t>(ViolationClass::kNumClasses)> per_class{};
  for (const Violation& v : violations_) {
    ++per_class[static_cast<size_t>(v.cls)];
  }
  for (size_t c = 0; c < per_class.size(); ++c) {
    if (per_class[c] == 0) continue;
    std::snprintf(buf, sizeof(buf), "\n  %s: %" PRIu64,
                  ViolationClassName(static_cast<ViolationClass>(c)), per_class[c]);
    s += buf;
  }
  for (const Violation& v : violations_) {
    s += "\n  [";
    s += ViolationClassName(v.cls);
    s += "] ";
    s += v.message;
  }
  return s;
}

}  // namespace magesim
