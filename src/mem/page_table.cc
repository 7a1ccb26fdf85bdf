#include "src/mem/page_table.h"

#include <cassert>

#include "src/analysis/lock_analyzer.h"

namespace magesim {

PageTable::PageTable(uint64_t num_pages) : num_pages_(num_pages) {
  ptes_.resize(num_pages);
}

void PageTable::Map(uint64_t vpn, PageFrame* frame) {
  assert(vpn < num_pages_);
  Pte& pte = ptes_[vpn];
  assert(!pte.present);
  if (LockAnalyzer* la = LockAnalyzer::Active()) {
    la->CheckFaultOwner(vpn, "Map");
  }
  pte.frame = frame;
  pte.present = true;
  pte.accessed = true;  // the faulting access counts as a reference
  pte.dirty = false;
  frame->state = PageFrame::State::kMapped;
  frame->vpn = vpn;
  ++mapped_;
}

PageFrame* PageTable::Unmap(uint64_t vpn) {
  assert(vpn < num_pages_);
  Pte& pte = ptes_[vpn];
  assert(pte.present);
  PageFrame* f = pte.frame;
  if (LockAnalyzer* la = LockAnalyzer::Active()) {
    // Eviction protocol: a frame must be isolated from the accounting lists
    // (IsolateBatch) before its mapping is torn down; unmapping a frame still
    // on the LRU/FIFO lists races the accounting scan. Modeling shortcuts
    // (instant/ideal reclaim) run under AnalysisExemptScope.
    la->CheckFrameIsolated(f->state == PageFrame::State::kIsolated, vpn, "Unmap");
  }
  f->dirty = pte.dirty;
  f->referenced = false;
  f->freq = 0;
  f->state = PageFrame::State::kIsolated;
  pte.frame = nullptr;
  pte.present = false;
  pte.accessed = false;
  pte.dirty = false;
  pte.prefetched = false;
  --mapped_;
  return f;
}

bool PageTable::TryBeginFault(uint64_t vpn) {
  Pte& pte = ptes_[vpn];
  if (pte.fault_in_flight) return false;
  pte.fault_in_flight = true;
  if (LockAnalyzer* la = LockAnalyzer::Active()) {
    la->OnFaultBegin(vpn);
  }
  return true;
}

Task<> PageTable::WaitForFault(uint64_t vpn) {
  auto it = fault_waiters_.find(vpn);
  std::shared_ptr<SimEvent> ev;
  if (it == fault_waiters_.end()) {
    ev = std::make_shared<SimEvent>("fault-wait");
    fault_waiters_.emplace(vpn, ev);
  } else {
    ev = it->second;
  }
  ++dedup_waits_;
  co_await ev->Wait();
}

void PageTable::EndFault(uint64_t vpn) {
  Pte& pte = ptes_[vpn];
  assert(pte.fault_in_flight);
  pte.fault_in_flight = false;
  if (LockAnalyzer* la = LockAnalyzer::Active()) {
    la->OnFaultEnd(vpn);
  }
  auto it = fault_waiters_.find(vpn);
  if (it != fault_waiters_.end()) {
    it->second->Set();
    fault_waiters_.erase(it);
  }
}

}  // namespace magesim
