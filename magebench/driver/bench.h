// Shared declarations of the magebench driver: the workload scenarios, the
// per-layer replay drivers, and the ordered JSON record every repetition is
// reported as. The driver only measures; aggregation, the correctness gate
// and the final result line live in magebench/aggregate.py.
#ifndef MAGEBENCH_DRIVER_BENCH_H_
#define MAGEBENCH_DRIVER_BENCH_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/farmem.h"
#include "src/workloads/workload.h"

namespace magebench {

// Host wall clock in seconds (steady, arbitrary origin).
inline double WallNow() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Flat JSON object with insertion-ordered keys. Numbers are printed with
// all their digits so deterministic values compare exactly downstream.
class Record {
 public:
  void U(const std::string& k, uint64_t v);
  void F(const std::string& k, double v);
  void S(const std::string& k, const std::string& v);
  void Obj(const std::string& k, const Record& v);
  // Raw JSON value (already rendered).
  void Raw(const std::string& k, const std::string& json);
  std::string Json() const;

 private:
  std::vector<std::pair<std::string, std::string>> kv_;
};

// One benchmark workload: how to build its inputs, how to configure the
// machine, and how to check the program's outputs after Run().
struct Scenario {
  std::string name;
  std::function<std::unique_ptr<magesim::Workload>()> make_workload;
  std::function<magesim::FarMemoryMachine::Options()> options;
  // Workload-specific output checks. Adds deterministic output digests to
  // `sim` (compared across repetitions) and returns "" when every check
  // passes, otherwise a description of the first failure.
  std::function<std::string(magesim::FarMemoryMachine&, magesim::Workload&,
                            const magesim::RunResult&, Record* sim)>
      check;
  // Set-ups timed per untraced repetition (the one that runs plus extras
  // torn down unrun). Cheap set-ups take many samples so that the median of
  // a run is steady; the cost of the extras stays a few percent of a
  // repetition.
  int setup_samples = 1;
  // Untraced repetitions that share one generated workload, each running a
  // fresh copy of it (copy_workload) that is not timed as set-up. Used where
  // generation dominates a repetition, so that a run holds more Run()
  // samples.
  int runs_per_workload = 1;
  std::function<std::unique_ptr<magesim::Workload>(const magesim::Workload&)> copy_workload;
};

// `size` 1.0 is the benchmark; smaller values shrink every workload for the
// smoke tests. Throws std::invalid_argument for an unknown name.
Scenario MakeScenario(const std::string& name, uint64_t seed, double size);

// Host cost of one layer, measured by replaying the layer's public calls on
// the machine after Run(): wall ns per operation, plus the engine events the
// replay dispatched per operation (so the ledger can remove them from the
// engine's own term instead of counting them twice).
struct LayerCost {
  uint64_t ops = 0;
  double ns_per_op = 0;
  double events_per_op = 0;
};

struct ReplayCosts {
  LayerCost sim;         // Engine spawn + Delay dispatch
  LayerCost mem_alloc;   // PageAllocator Alloc / FreeBatch
  LayerCost mem_pt;      // PageTable TryBeginFault / Map / EndFault / Unmap
  LayerCost accounting;  // PageAccounting IsolateBatch / Insert / Unlink
  LayerCost hw_nic;      // RdmaNic Read / Write
  LayerCost hw_tlb;      // TlbShootdownManager Shootdown
};

// Records back-to-back host-time spans around the driver's own calls; each
// Mark closes the open span at the current instant and opens the next, so
// the spans partition the traced interval exactly.
class SpanLog {
 public:
  void Mark(const std::string& next);
  void Close();
  // [[name, start_s, end_s], ...] relative to the first Mark.
  std::string Json() const;

 private:
  struct Span {
    std::string name;
    double t0 = 0;
    double t1 = 0;
  };
  std::vector<Span> spans_;
  double origin_ = -1;
};

// Runs the magebench_reference program (driver/reference.cc) beside the
// driver and times its fixed work on request, so that host times can be
// scaled by the host's speed of the moment. The destructor ends the process
// and waits for it.
class Yardsticks {
 public:
  // Throws std::runtime_error when `path` cannot be started.
  explicit Yardsticks(const std::string& path);
  ~Yardsticks();
  Yardsticks(const Yardsticks&) = delete;
  Yardsticks& operator=(const Yardsticks&) = delete;
  // Host seconds of one run of the memory ('m') or allocation ('a') work,
  // on the CPU the driver runs on. Throws std::runtime_error on failure.
  double Seconds(char kind);

 private:
  int pid_ = -1;
  std::FILE* to_ = nullptr;
  std::FILE* from_ = nullptr;
};

// Replays each layer on `m` after Run() returned. `events` is the run's
// engine event count and `tasks` its spawned task count; the engine replay
// dispatches that many events over that many tasks. `spans` (optional)
// receives one span per replay driver.
ReplayCosts ReplayLayers(magesim::FarMemoryMachine& m, uint64_t events, int tasks,
                         SpanLog* spans);

}  // namespace magebench

#endif  // MAGEBENCH_DRIVER_BENCH_H_
