#include "src/analysis/lock_analyzer.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "src/sim/engine.h"
#include "src/trace/trace.h"

namespace magesim {

LockAnalyzer* LockAnalyzer::current_ = nullptr;

const char* AnalysisViolationKindName(AnalysisViolationKind k) {
  switch (k) {
    case AnalysisViolationKind::kUnlockNotOwner: return "unlock_not_owner";
    case AnalysisViolationKind::kDoubleUnlock: return "double_unlock";
    case AnalysisViolationKind::kGuardedAccess: return "guarded_access";
    case AnalysisViolationKind::kLockOrderCycle: return "lock_order_cycle";
    case AnalysisViolationKind::kHeldAcrossAwait: return "held_across_await";
    case AnalysisViolationKind::kFaultProtocol: return "fault_protocol";
    case AnalysisViolationKind::kCoreAffinity: return "core_affinity";
    case AnalysisViolationKind::kLockQuiescence: return "lock_quiescence";
    case AnalysisViolationKind::kNumKinds: break;
  }
  return "unknown";
}

namespace {

const char* AwaitKindName(AwaitKind k) {
  switch (k) {
    case AwaitKind::kDelay: return "delay";
    case AwaitKind::kYield: return "yield";
    case AwaitKind::kEvent: return "event-wait";
    case AwaitKind::kSemaphore: return "semaphore-wait";
    case AwaitKind::kChannel: return "channel-wait";
  }
  return "await";
}

}  // namespace

LockAnalyzer::LockAnalyzer(AnalysisOptions opts) : opts_(opts) {
  hooks_.ctx = this;
  hooks_.on_acquire = &OnAcquireTramp;
  hooks_.on_unlock = &OnUnlockTramp;
  hooks_.on_await = &OnAwaitTramp;
  hooks_.on_assert_held = &OnAssertHeldTramp;
}

LockAnalyzer::~LockAnalyzer() { Uninstall(); }

void LockAnalyzer::Install() {
  if (current_ == this) return;
  if (current_ != nullptr) {
    std::fprintf(stderr, "magesim-analysis: only one LockAnalyzer may be installed\n");
    std::abort();
  }
  current_ = this;
  installed_ = true;
  SetAnalysisHooks(&hooks_);
}

void LockAnalyzer::Uninstall() {
  if (current_ != this) return;
  SetAnalysisHooks(nullptr);
  current_ = nullptr;
  installed_ = false;
}

void LockAnalyzer::OnAcquireTramp(void* ctx, const void* lock, const char* name,
                                  TaskId task, bool shared) {
  static_cast<LockAnalyzer*>(ctx)->OnAcquire(lock, name, task, shared);
}

void LockAnalyzer::OnUnlockTramp(void* ctx, const void* lock, const char* name,
                                 TaskId task, bool shared, bool was_locked) {
  static_cast<LockAnalyzer*>(ctx)->OnUnlock(lock, name, task, shared, was_locked);
}

void LockAnalyzer::OnAwaitTramp(void* ctx, const void* obj, const char* site,
                                AwaitKind kind, TaskId task) {
  (void)obj;
  static_cast<LockAnalyzer*>(ctx)->OnAwait(site, kind, task);
}

void LockAnalyzer::OnAssertHeldTramp(void* ctx, const void* lock, const char* name,
                                     TaskId task, const char* what) {
  static_cast<LockAnalyzer*>(ctx)->OnAssertHeld(lock, name, task, what);
}

uint32_t LockAnalyzer::RegisterLock(const void* lock, const char* name) {
  auto it = lock_index_.find(lock);
  if (it != lock_index_.end()) return it->second;
  std::string cls = (name != nullptr && name[0] != '\0') ? name : "<unnamed>";
  auto [cit, inserted] =
      class_ids_.emplace(cls, static_cast<uint32_t>(class_names_.size()));
  if (inserted) {
    class_names_.push_back(cls);
    class_instances_.push_back(0);
    adj_.emplace_back();
  }
  uint32_t class_id = cit->second;
  uint32_t idx = static_cast<uint32_t>(locks_.size());
  LockState st;
  st.class_id = class_id;
  st.instance = class_instances_[class_id]++;
  locks_.push_back(std::move(st));
  lock_index_.emplace(lock, idx);
  return idx;
}

std::string LockAnalyzer::LockLabel(uint32_t lock_idx) const {
  const LockState& st = locks_[lock_idx];
  std::string label = class_names_[st.class_id];
  if (st.instance > 0) {
    label += "#";
    label += std::to_string(st.instance);
  }
  return label;
}

std::string LockAnalyzer::TaskLabel(TaskId task) const {
  if (task == kNoTask) return "setup";
  std::string label = "task " + std::to_string(task);
  auto it = tasks_.find(task);
  if (it != tasks_.end() && !it->second.name.empty()) {
    label += " (" + it->second.name + ")";
  }
  return label;
}

std::string LockAnalyzer::HeldDesc(TaskId task) const {
  auto it = held_.find(task);
  if (it == held_.end() || it->second.empty()) return "[]";
  std::string out = "[";
  for (size_t i = 0; i < it->second.size(); ++i) {
    if (i > 0) out += ", ";
    out += LockLabel(it->second[i].lock_idx);
    if (it->second[i].shared) out += " (shared)";
  }
  out += "]";
  return out;
}

void LockAnalyzer::NameCurrentTask(std::string name, int core) {
  TaskId task = Engine::CurrentTaskOrNone();
  if (task == kNoTask) return;
  tasks_[task] = TaskInfo{std::move(name), core};
}

void LockAnalyzer::AllowHeldAcrossAwait(std::string lock_name, std::string site) {
  await_allowlist_.emplace(std::move(lock_name), std::move(site));
}

bool LockAnalyzer::Allowed(const std::string& cls, const char* site) const {
  if (await_allowlist_.count({cls, "*"}) > 0) return true;
  return await_allowlist_.count({cls, site != nullptr ? site : ""}) > 0;
}

void LockAnalyzer::AddEdge(uint32_t from_cls, uint32_t to_cls, TaskId task) {
  auto key = std::make_pair(from_cls, to_cls);
  if (edges_.find(key) != edges_.end()) return;
  edges_.emplace(key, EdgeInfo{from_cls, to_cls, task, Engine::NowOrZero(),
                               HeldDesc(task)});
  adj_[from_cls].push_back(to_cls);
  ++edge_count_;
  TraceEmit(TraceEventType::kAnalysisLockOrderEdge, static_cast<int32_t>(task),
            from_cls, to_cls);
  // A path to_cls -> ... -> from_cls through the pre-existing edges plus this
  // one closes a cycle: somewhere these classes are taken in both orders.
  std::vector<uint32_t> path = FindPath(to_cls, from_cls);
  if (path.empty()) return;
  std::ostringstream msg;
  msg << "lock-order cycle: ";
  for (uint32_t c : path) msg << "'" << class_names_[c] << "' -> ";
  msg << "'" << class_names_[to_cls] << "'";
  msg << "; new edge '" << class_names_[from_cls] << "' -> '"
      << class_names_[to_cls] << "' acquired by " << TaskLabel(task)
      << " at t=" << Engine::NowOrZero() << "ns holding " << HeldDesc(task);
  for (size_t i = 0; i + 1 < path.size(); ++i) {
    auto eit = edges_.find({path[i], path[i + 1]});
    if (eit == edges_.end()) continue;
    const EdgeInfo& e = eit->second;
    msg << "; edge '" << class_names_[e.from] << "' -> '" << class_names_[e.to]
        << "' first by " << TaskLabel(e.task) << " at t=" << e.t
        << "ns holding " << e.held_desc;
  }
  // The closing hop path.back() -> to_cls is this new edge itself when the
  // path ends at from_cls; already described above.
  ReportViolation(AnalysisViolationKind::kLockOrderCycle, task, msg.str());
}

std::vector<uint32_t> LockAnalyzer::FindPath(uint32_t from_cls, uint32_t to_cls) const {
  std::vector<uint32_t> stack{from_cls};
  std::vector<bool> visited(adj_.size(), false);
  std::vector<uint32_t> parent(adj_.size(), ~0u);
  visited[from_cls] = true;
  while (!stack.empty()) {
    uint32_t c = stack.back();
    stack.pop_back();
    if (c == to_cls) {
      std::vector<uint32_t> path;
      for (uint32_t x = to_cls; x != ~0u; x = parent[x]) path.push_back(x);
      std::reverse(path.begin(), path.end());
      return path;
    }
    for (uint32_t succ : adj_[c]) {
      if (visited[succ]) continue;
      visited[succ] = true;
      parent[succ] = c;
      stack.push_back(succ);
    }
  }
  return {};
}

void LockAnalyzer::OnAcquire(const void* lock, const char* name, TaskId task,
                             bool shared) {
  uint32_t idx = RegisterLock(lock, name);
  uint32_t class_id = locks_[idx].class_id;
  std::vector<HeldEntry>& held = held_[task];
  for (const HeldEntry& e : held) {
    if (e.class_id != class_id) AddEdge(e.class_id, class_id, task);
  }
  held.push_back(HeldEntry{idx, class_id, shared});
  LockState& st = locks_[idx];
  if (shared) {
    st.shared_holders.push_back(task);
  } else {
    st.exclusive = true;
    st.owner = task;
  }
}

void LockAnalyzer::OnUnlock(const void* lock, const char* name, TaskId task,
                            bool shared, bool was_locked) {
  uint32_t idx = RegisterLock(lock, name);
  LockState& st = locks_[idx];
  if (!was_locked) {
    ReportViolation(AnalysisViolationKind::kDoubleUnlock, task,
                    "double unlock of '" + LockLabel(idx) + "' by " +
                        TaskLabel(task) + " at t=" +
                        std::to_string(Engine::NowOrZero()) + "ns");
    return;
  }
  TaskId holder = task;
  if (shared) {
    auto hit = std::find(st.shared_holders.begin(), st.shared_holders.end(), task);
    if (hit != st.shared_holders.end()) {
      st.shared_holders.erase(hit);
    } else if (!st.shared_holders.empty()) {
      // Holders are known and this task is not among them. (An empty holder
      // list means the lock predates Install(); nothing to check.)
      holder = st.shared_holders.front();
      ReportViolation(AnalysisViolationKind::kUnlockNotOwner, task,
                      "shared unlock of '" + LockLabel(idx) + "' by " +
                          TaskLabel(task) + " which does not hold it (holder: " +
                          TaskLabel(holder) + ") at t=" +
                          std::to_string(Engine::NowOrZero()) + "ns");
      st.shared_holders.erase(st.shared_holders.begin());
    } else {
      return;
    }
  } else {
    if (st.exclusive && st.owner != task && st.owner != kNoTask && task != kNoTask) {
      ReportViolation(AnalysisViolationKind::kUnlockNotOwner, task,
                      "unlock of '" + LockLabel(idx) + "' by " + TaskLabel(task) +
                          " which does not own it (owner: " + TaskLabel(st.owner) +
                          ") at t=" + std::to_string(Engine::NowOrZero()) + "ns");
      // The primitive releases regardless; keep our state in sync with it.
      holder = st.owner;
    } else if (st.exclusive) {
      holder = st.owner;
    }
    st.exclusive = false;
    st.owner = kNoTask;
  }
  std::vector<HeldEntry>& held = held_[holder];
  for (auto it = held.rbegin(); it != held.rend(); ++it) {
    if (it->lock_idx == idx && it->shared == shared) {
      held.erase(std::next(it).base());
      break;
    }
  }
}

void LockAnalyzer::OnAwait(const char* site, AwaitKind kind, TaskId task) {
  if ((kind == AwaitKind::kDelay || kind == AwaitKind::kYield) &&
      !opts_.flag_delay_awaits) {
    return;
  }
  auto it = held_.find(task);
  if (it == held_.end() || it->second.empty()) return;
  for (const HeldEntry& e : it->second) {
    const std::string& cls = class_names_[e.class_id];
    if (Allowed(cls, site)) continue;
    std::ostringstream msg;
    msg << "lock '" << LockLabel(e.lock_idx) << "' held across "
        << AwaitKindName(kind) << " '" << (site != nullptr ? site : "?")
        << "' by " << TaskLabel(task) << " at t=" << Engine::NowOrZero()
        << "ns (held " << HeldDesc(task) << ")";
    ReportViolation(AnalysisViolationKind::kHeldAcrossAwait, task, msg.str());
  }
}

void LockAnalyzer::OnAssertHeld(const void* lock, const char* name, TaskId task,
                                const char* what) {
  if (task == kNoTask) return;  // setup/teardown code runs outside the protocol
  auto it = lock_index_.find(lock);
  std::string desc = (what != nullptr && what[0] != '\0') ? what : "guarded state";
  if (it == lock_index_.end()) {
    uint32_t idx = RegisterLock(lock, name);
    ReportViolation(AnalysisViolationKind::kGuardedAccess, task,
                    "guarded access (" + desc + ") without holding '" +
                        LockLabel(idx) + "' (never acquired) by " +
                        TaskLabel(task) + " at t=" +
                        std::to_string(Engine::NowOrZero()) + "ns");
    return;
  }
  const LockState& st = locks_[it->second];
  if (st.exclusive && st.owner == task) return;
  if (std::find(st.shared_holders.begin(), st.shared_holders.end(), task) !=
      st.shared_holders.end()) {
    return;
  }
  std::string owner_desc;
  if (st.exclusive) {
    owner_desc = "owner: " + TaskLabel(st.owner);
  } else if (!st.shared_holders.empty()) {
    owner_desc = "shared holder: " + TaskLabel(st.shared_holders.front());
  } else {
    owner_desc = "owner: none";
  }
  ReportViolation(AnalysisViolationKind::kGuardedAccess, task,
                  "guarded access (" + desc + ") without holding '" +
                      LockLabel(it->second) + "' by " + TaskLabel(task) + " (" +
                      owner_desc + ") at t=" +
                      std::to_string(Engine::NowOrZero()) + "ns");
}

void LockAnalyzer::CheckCoreAffinity(int core, const char* what) {
  TaskId task = Engine::CurrentTaskOrNone();
  if (task == kNoTask) return;
  auto it = tasks_.find(task);
  if (it == tasks_.end() || it->second.core < 0) return;
  if (it->second.core == core) return;
  std::ostringstream msg;
  msg << "per-CPU access (" << (what != nullptr ? what : "?") << ") for core "
      << core << " by " << TaskLabel(task) << " bound to core "
      << it->second.core << " at t=" << Engine::NowOrZero() << "ns";
  ReportViolation(AnalysisViolationKind::kCoreAffinity, task, msg.str());
}

void LockAnalyzer::OnFaultBegin(uint64_t vpn) {
  fault_owner_[vpn] = Engine::CurrentTaskOrNone();
}

void LockAnalyzer::CheckFaultOwner(uint64_t vpn, const char* what) {
  TaskId task = Engine::CurrentTaskOrNone();
  if (task == kNoTask) return;
  auto it = fault_owner_.find(vpn);
  if (it == fault_owner_.end() || it->second == kNoTask) return;
  if (it->second == task) return;
  std::ostringstream msg;
  msg << "fault protocol: " << (what != nullptr ? what : "?") << " of vpn "
      << vpn << " by " << TaskLabel(task) << " but the fault is owned by "
      << TaskLabel(it->second) << " at t=" << Engine::NowOrZero() << "ns";
  ReportViolation(AnalysisViolationKind::kFaultProtocol, task, msg.str());
}

void LockAnalyzer::OnFaultEnd(uint64_t vpn) {
  CheckFaultOwner(vpn, "EndFault");
  fault_owner_.erase(vpn);
}

void LockAnalyzer::CheckFrameIsolated(bool isolated, uint64_t vpn, const char* what) {
  TaskId task = Engine::CurrentTaskOrNone();
  if (task == kNoTask || isolated) return;
  std::ostringstream msg;
  msg << "eviction protocol: " << (what != nullptr ? what : "?") << " of vpn "
      << vpn << " by " << TaskLabel(task)
      << " while its frame is still on the accounting lists (not isolated)"
      << " at t=" << Engine::NowOrZero() << "ns";
  ReportViolation(AnalysisViolationKind::kFaultProtocol, task, msg.str());
}

std::vector<std::string> LockAnalyzer::QuiescenceReport() const {
  std::vector<std::string> out;
  for (uint32_t idx = 0; idx < locks_.size(); ++idx) {
    const LockState& st = locks_[idx];
    if (st.exclusive) {
      out.push_back("lock '" + LockLabel(idx) + "' still held by " +
                    TaskLabel(st.owner) + " at quiescence");
    } else if (!st.shared_holders.empty()) {
      out.push_back("lock '" + LockLabel(idx) + "' still shared-held by " +
                    std::to_string(st.shared_holders.size()) +
                    " task(s), first " + TaskLabel(st.shared_holders.front()) +
                    ", at quiescence");
    }
  }
  return out;
}

void LockAnalyzer::ReportViolation(AnalysisViolationKind kind, TaskId task,
                                   std::string msg) {
  ++total_violations_;
  ++counts_[static_cast<size_t>(kind)];
  TraceEmit(TraceEventType::kAnalysisViolation, static_cast<int32_t>(task),
            kTraceNoPage, kTraceNoFrame, static_cast<uint64_t>(kind));
  if (opts_.abort_on_violation) {
    std::fprintf(stderr, "magesim-analysis: FATAL %s: %s\n",
                 AnalysisViolationKindName(kind), msg.c_str());
    std::abort();
  }
  if (violations_.size() < opts_.max_recorded) {
    violations_.push_back(
        AnalysisViolation{kind, Engine::NowOrZero(), task, std::move(msg)});
  }
}

std::string LockAnalyzer::Report() const {
  std::ostringstream out;
  out << "lock analyzer: " << locks_registered() << " locks in "
      << lock_classes() << " classes, " << order_edges()
      << " order edges, " << total_violations_ << " violations\n";
  for (int k = 0; k < kNumAnalysisViolationKinds; ++k) {
    if (counts_[static_cast<size_t>(k)] == 0) continue;
    out << "  " << AnalysisViolationKindName(static_cast<AnalysisViolationKind>(k))
        << ": " << counts_[static_cast<size_t>(k)] << "\n";
  }
  for (const AnalysisViolation& v : violations_) {
    out << "  [" << AnalysisViolationKindName(v.kind) << "] " << v.message << "\n";
  }
  return out.str();
}

}  // namespace magesim
