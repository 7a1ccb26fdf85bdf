// Declarative fault schedules. A FaultPlan is an ordered list of failure
// windows targeting the simulated hardware; the FaultInjector executes it.
//
// A plan has one syntax, a compact one-line spec; the `@path` form of the
// fault-plan option loads the same text from a file:
//
//   brownout@2ms-6ms:bw=0.2,lat=20us;drop@3ms-4ms:p=0.05,ch=read
//
//   plan   := event (';' event)*
//   event  := kind '@' time '-' time [':' key '=' value (',' key=value)*]
//   kind   := brownout | degrade | drop | error | spike | crash | ipidelay
//   key    := p (probability) | bw (bandwidth factor) | lat (extra latency)
//             | ch (read|write|both) | node (memory-server id; default all)
//   time   := decimal with optional ns/us/ms/s suffix (default ns)
//
// Window semantics (active over [from, until)):
//   brownout  RDMA link at bw x rate, +lat per op, both channels
//   degrade   brownout + each op errors with probability p (sick memory node)
//   drop      op's completion is lost with probability p (per `ch`)
//   error     op's completion arrives flagged failed with probability p
//   spike     +lat per op with probability p
//   crash     memory node dark: every RDMA completion lost, node unavailable
//   ipidelay  +lat interconnect delay per IPI delivery
//
// Any window may carry `node=<id>` to target one memory server of a fleet
// (crash kills just that node; drop/error/brownout affect only its link).
// Without it a window applies to every node. The machine rejects plans naming
// nodes outside the configured fleet at construction time.
#ifndef MAGESIM_RESILIENCE_FAULT_PLAN_H_
#define MAGESIM_RESILIENCE_FAULT_PLAN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/time.h"

namespace magesim {

enum class FaultKind : uint8_t {
  kBrownout,
  kDegrade,
  kDrop,
  kError,
  kSpike,
  kCrash,
  kIpiDelay,
  kNumKinds,
};

const char* FaultKindName(FaultKind k);

enum class FaultChannel : uint8_t { kRead = 1, kWrite = 2, kBoth = 3 };

struct FaultWindow {
  FaultKind kind = FaultKind::kBrownout;
  SimTime from = 0;
  SimTime until = 0;
  double probability = 1.0;       // drop / error / spike / degrade draws
  double bandwidth_factor = 1.0;  // brownout / degrade
  SimTime extra_latency_ns = 0;   // brownout / degrade / spike / ipidelay
  FaultChannel channel = FaultChannel::kBoth;  // drop / error
  int node = -1;                  // target memory node; -1 = every node

  bool operator==(const FaultWindow&) const = default;
};

class FaultPlan {
 public:
  // Parses the compact spec. On failure returns false and, if non-null,
  // fills `error` with a human-readable reason.
  static bool Parse(const std::string& text, FaultPlan* out, std::string* error);

  // Round-trippable rendering: Parse(ToSpec()) rebuilds an equal plan.
  std::string ToSpec() const;

  // Inserts keeping windows sorted by start time (stable for equal starts).
  void Add(const FaultWindow& w);

  const std::vector<FaultWindow>& windows() const { return windows_; }
  bool empty() const { return windows_.empty(); }
  SimTime end_time() const;
  // Largest node id any window targets (-1 when no window is node-targeted).
  // The machine validates this against the configured fleet size.
  int max_target_node() const;

  bool operator==(const FaultPlan&) const = default;

 private:
  std::vector<FaultWindow> windows_;
};

// "12us" / "3ms" / "250" (ns) -> nanoseconds. Returns false on malformed
// input or a negative result.
bool ParseTimeNs(const std::string& text, SimTime* out);
// Renders with the largest unit that divides evenly: 3000000 -> "3ms".
std::string FormatTimeNs(SimTime ns);

}  // namespace magesim

#endif  // MAGESIM_RESILIENCE_FAULT_PLAN_H_
