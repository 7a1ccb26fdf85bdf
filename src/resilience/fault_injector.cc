#include "src/resilience/fault_injector.h"

#include <algorithm>
#include <vector>

#include "src/fleet/fleet.h"
#include "src/trace/trace.h"

namespace magesim {

namespace {

bool ChannelMatches(FaultChannel c, bool is_write) {
  uint8_t bit = is_write ? static_cast<uint8_t>(FaultChannel::kWrite)
                         : static_cast<uint8_t>(FaultChannel::kRead);
  return (static_cast<uint8_t>(c) & bit) != 0;
}

}  // namespace

FaultInjector::FaultInjector(FaultPlan plan, uint64_t seed)
    : plan_(std::move(plan)), rng_(seed ^ 0xfa17'1e57'0d15'ea5eULL) {}

RdmaOpFate FaultInjector::OnRdmaPost(bool is_write, SimTime now, int node) {
  RdmaOpFate fate;
  const auto& ws = plan_.windows();
  while (cursor_ < ws.size() && ws[cursor_].until <= now) ++cursor_;
  for (size_t i = cursor_; i < ws.size() && ws[i].from <= now; ++i) {
    const FaultWindow& w = ws[i];
    if (now >= w.until) continue;  // short window nested inside a longer one
    if (w.node >= 0 && w.node != node) continue;  // targets another server
    switch (w.kind) {
      case FaultKind::kBrownout:
        fate.bandwidth_factor *= w.bandwidth_factor;
        fate.extra_latency_ns += w.extra_latency_ns;
        break;
      case FaultKind::kDegrade:
        fate.bandwidth_factor *= w.bandwidth_factor;
        fate.extra_latency_ns += w.extra_latency_ns;
        if (w.probability > 0.0 && rng_.NextBool(w.probability) && !fate.error) {
          fate.error = true;
          ++errors_;
        }
        break;
      case FaultKind::kDrop:
        if (ChannelMatches(w.channel, is_write) && rng_.NextBool(w.probability) &&
            !fate.drop) {
          fate.drop = true;
          ++drops_;
        }
        break;
      case FaultKind::kError:
        if (ChannelMatches(w.channel, is_write) && rng_.NextBool(w.probability) &&
            !fate.error) {
          fate.error = true;
          ++errors_;
        }
        break;
      case FaultKind::kSpike:
        if (rng_.NextBool(w.probability)) {
          fate.extra_latency_ns += w.extra_latency_ns;
          ++spikes_;
        }
        break;
      case FaultKind::kCrash:
        if (!fate.drop) {
          fate.drop = true;
          ++drops_;
        }
        break;
      case FaultKind::kIpiDelay:
      case FaultKind::kNumKinds:
        break;
    }
  }
  return fate;
}

SimTime FaultInjector::ExtraIpiDelayNs(SimTime now) {
  SimTime extra = 0;
  const auto& ws = plan_.windows();
  while (cursor_ < ws.size() && ws[cursor_].until <= now) ++cursor_;
  for (size_t i = cursor_; i < ws.size() && ws[i].from <= now; ++i) {
    const FaultWindow& w = ws[i];
    if (now >= w.until) continue;
    if (w.kind == FaultKind::kIpiDelay) extra += w.extra_latency_ns;
  }
  return extra;
}

void FaultInjector::Start(Engine& eng, FleetManager& fleet) {
  if (plan_.empty()) return;
  fleet_ = &fleet;
  eng.Spawn(EpisodeMain());
}

Task<> FaultInjector::EpisodeMain() {
  // Window opens and crash-window closes, processed in global time order.
  struct Marker {
    SimTime t;
    int type;  // 0 = window opens, 1 = crash window closes
    size_t idx;
  };
  std::vector<Marker> marks;
  const auto& ws = plan_.windows();
  for (size_t i = 0; i < ws.size(); ++i) {
    marks.push_back({ws[i].from, 0, i});
    if (ws[i].kind == FaultKind::kCrash) marks.push_back({ws[i].until, 1, i});
  }
  std::sort(marks.begin(), marks.end(), [](const Marker& a, const Marker& b) {
    if (a.t != b.t) return a.t < b.t;
    if (a.type != b.type) return a.type < b.type;
    return a.idx < b.idx;
  });

  // Overlapping crash windows on the same node stack: one episode, and the
  // node comes back only when its last crash window closes. An untargeted
  // crash hits node 0.
  std::vector<int> active_crashes(static_cast<size_t>(fleet_->num_nodes()), 0);
  for (const Marker& m : marks) {
    Engine& eng = Engine::current();
    if (m.t > eng.now()) co_await Delay{m.t - eng.now()};
    const FaultWindow& w = ws[m.idx];
    if (w.kind == FaultKind::kCrash) {
      int target = w.node >= 0 ? w.node : 0;
      int& open = active_crashes[static_cast<size_t>(target)];
      if (m.type == 0) {
        ++windows_opened_;
        TraceEmit(TraceEventType::kFaultWindow, -1, kTraceNoPage, kTraceNoFrame,
                  static_cast<uint64_t>(w.kind));
        if (open++ == 0) fleet_->OnNodeCrash(target);
      } else if (--open == 0) {
        fleet_->OnNodeRecover(target);
      }
    } else {
      ++windows_opened_;
      TraceEmit(TraceEventType::kFaultWindow, -1, kTraceNoPage, kTraceNoFrame,
                static_cast<uint64_t>(w.kind));
    }
  }
}

}  // namespace magesim
