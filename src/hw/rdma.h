// RDMA NIC model: two simplex channels (read = remote->local, write =
// local->remote), each a single FIFO server with finite data rate. An op
// queues for wire serialization, then experiences the fixed base latency
// (doorbell, PCIe DMA, propagation, completion). Throughput saturates at
// bandwidth/page-size — the paper's 5.83 M pages/s ideal — and tail latency
// grows with queue depth, reproducing the congestion knee of Fig. 15.
#ifndef MAGESIM_HW_RDMA_H_
#define MAGESIM_HW_RDMA_H_

#include <cstdint>
#include <memory>

#include "src/hw/fault_hooks.h"
#include "src/hw/machine_params.h"
#include "src/sim/engine.h"
#include "src/sim/stats.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"
#include "src/trace/trace.h"

namespace magesim {

// Completion handle for asynchronously posted operations. Posting fixes the
// op's completion time and outcome; arming (RdmaNic::Arm) schedules the event
// that delivers them.
class RdmaCompletion {
 public:
  enum class Status : uint8_t {
    kPending,  // not yet signaled
    kOk,       // completed successfully
    kError,    // completion arrived flagged failed (remote NAK / CQE error)
    kLost,     // completion never arrives (lost CQE / dead memory node)
  };

  RdmaCompletion(SimTime posted_at, SimTime completes_at, bool is_write)
      : posted_at_(posted_at), completes_at_(completes_at), is_write_(is_write) {}
  SimEvent::Awaiter Wait() { return event_.Wait(); }
  void Signal(Status s = Status::kOk) {
    status_ = s;
    event_.Set();
  }
  bool done() const { return event_.is_set(); }
  bool ok() const { return status_ == Status::kOk; }
  Status status() const { return status_; }
  // A dropped op is marked lost at post time but its event never fires; a
  // caller that must survive drops pairs Wait() with its own deadline.
  void MarkLost() { status_ = Status::kLost; }
  SimTime completes_at() const { return completes_at_; }

 private:
  friend class RdmaNic;

  SimEvent event_{"rdma-completion"};
  SimTime posted_at_;
  SimTime completes_at_;
  bool is_write_;
  Status status_ = Status::kPending;
  // What the armed completion signals at completes_at (kOk or kError).
  Status outcome_ = Status::kOk;
};

class RdmaNic {
 public:
  // `node_id` identifies the memory server this NIC's channels reach (the
  // fleet runs one RdmaNic per server). It is forwarded to the fault model
  // so injection windows can target individual nodes.
  explicit RdmaNic(const MachineParams& params, int node_id = 0);

  // Posts a one-sided op; completion time is computed at post (FIFO channel).
  // The returned handle's event fires at that time. Posting itself is free of
  // simulated delay; callers model host-stack CPU cost themselves.
  std::shared_ptr<RdmaCompletion> PostRead(uint64_t bytes);
  std::shared_ptr<RdmaCompletion> PostWrite(uint64_t bytes);

  // PostWrite without arming: the op takes its channel time, stats and fate,
  // but schedules nothing until Arm(c). For a writer that awaits only one of
  // its ops and so leaves the rest unarmed (ResilienceManager::PostWrites).
  std::shared_ptr<RdmaCompletion> PostWriteUnarmed(uint64_t bytes);
  // Schedules `c`'s completion event: at completes_at() it emits the op's
  // done/error trace record and signals the handle. A dropped op never
  // completes, so arming it schedules nothing.
  static void Arm(std::shared_ptr<RdmaCompletion> c);

  // Synchronous helpers.
  Task<> Read(uint64_t bytes);
  Task<> Write(uint64_t bytes);

  // Optional per-op failure model (scripted injection: errors, drops and
  // brownout windows); nullptr disables.
  void SetFaultModel(HwFaultModel* model) { fault_model_ = model; }
  HwFaultModel* fault_model() const { return fault_model_; }

  int node_id() const { return node_id_; }

  uint64_t bytes_read() const { return bytes_read_; }
  uint64_t bytes_written() const { return bytes_written_; }
  uint64_t reads_posted() const { return reads_posted_; }
  uint64_t writes_posted() const { return writes_posted_; }
  uint64_t reads_dropped() const { return reads_dropped_; }
  uint64_t writes_dropped() const { return writes_dropped_; }
  uint64_t reads_errored() const { return reads_errored_; }
  uint64_t writes_errored() const { return writes_errored_; }

  // End-to-end op latency (queueing + wire + base).
  const Histogram& read_latency() const { return read_latency_; }
  const Histogram& write_latency() const { return write_latency_; }
  // Queueing-only component (congestion).
  const Histogram& read_queueing() const { return read_queueing_; }

  // Cumulative channel-busy time since the last ResetStats — the metrics
  // sampler derives windowed utilization from deltas of these (with
  // counter-reset detection for the warmup reset).
  uint64_t read_busy_ns() const { return static_cast<uint64_t>(read_ch_.busy_ns); }
  uint64_t write_busy_ns() const { return static_cast<uint64_t>(write_ch_.busy_ns); }

  void ResetStats();

  const MachineParams& params() const { return params_; }

 private:
  struct Channel {
    SimTime next_free = 0;
    SimTime busy_ns = 0;
  };

  // Posts an op unarmed (see PostWriteUnarmed).
  std::shared_ptr<RdmaCompletion> Post(Channel& ch, uint64_t bytes, Histogram& lat,
                                       Histogram* queueing, bool is_write);
  static Task<> SignalAt(std::shared_ptr<RdmaCompletion> c);

  MachineParams params_;
  int node_id_;
  HwFaultModel* fault_model_ = nullptr;
  Channel read_ch_;
  Channel write_ch_;

  uint64_t bytes_read_ = 0;
  uint64_t bytes_written_ = 0;
  uint64_t reads_posted_ = 0;
  uint64_t writes_posted_ = 0;
  uint64_t reads_dropped_ = 0;
  uint64_t writes_dropped_ = 0;
  uint64_t reads_errored_ = 0;
  uint64_t writes_errored_ = 0;
  Histogram read_latency_;
  Histogram write_latency_;
  Histogram read_queueing_;
};

}  // namespace magesim

#endif  // MAGESIM_HW_RDMA_H_
