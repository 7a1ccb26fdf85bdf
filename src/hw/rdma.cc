#include "src/hw/rdma.h"

#include <algorithm>
#include <memory>

#include "src/sim/slab_alloc.h"

namespace magesim {

RdmaNic::RdmaNic(const MachineParams& params, int node_id)
    : params_(params), node_id_(node_id) {}

Task<> RdmaNic::SignalAt(std::shared_ptr<RdmaCompletion> c) {
  co_await Delay{c->completes_at() - Engine::current().now()};
  const bool ok = c->outcome_ == RdmaCompletion::Status::kOk;
  TraceEventType done_ev =
      c->is_write_ ? (ok ? TraceEventType::kRdmaWriteDone : TraceEventType::kRdmaWriteError)
                   : (ok ? TraceEventType::kRdmaReadDone : TraceEventType::kRdmaReadError);
  TraceEmit(done_ev, -1, kTraceNoPage, kTraceNoFrame,
            static_cast<uint64_t>(c->completes_at_ - c->posted_at_));
  c->Signal(c->outcome_);
}

void RdmaNic::Arm(std::shared_ptr<RdmaCompletion> c) {
  if (c->status() == RdmaCompletion::Status::kLost) return;
  Engine::current().Spawn(SignalAt(std::move(c)));
}

std::shared_ptr<RdmaCompletion> RdmaNic::Post(Channel& ch, uint64_t bytes, Histogram& lat,
                                              Histogram* queueing, bool is_write) {
  Engine& eng = Engine::current();
  SimTime now = eng.now();
  RdmaOpFate fate;
  if (fault_model_ != nullptr) fate = fault_model_->OnRdmaPost(is_write, now, node_id_);
  double rate = std::max(params_.nic_gbps * fate.bandwidth_factor, 1e-6);
  SimTime wire = static_cast<SimTime>(
      std::max<double>(1.0, static_cast<double>(bytes) * 8.0 / rate));
  SimTime start = std::max(now, ch.next_free);
  ch.next_free = start + wire;
  ch.busy_ns += wire;
  SimTime completes = start + wire + params_.rdma_base_ns + fate.extra_latency_ns;
  // allocate_shared + slab: completion object and control block live in one
  // recyclable block (one completion per RDMA op adds up to millions).
  auto c = std::allocate_shared<RdmaCompletion>(SlabStdAllocator<RdmaCompletion>{}, now,
                                                completes, is_write);
  if (fate.drop) {
    // The op still consumed channel time (the payload may even have reached
    // the far side) but its completion is lost: the event never fires and no
    // latency is recorded.
    c->MarkLost();
    if (is_write) {
      ++writes_dropped_;
    } else {
      ++reads_dropped_;
    }
    TraceEmit(is_write ? TraceEventType::kRdmaWriteDrop : TraceEventType::kRdmaReadDrop, -1,
              kTraceNoPage, kTraceNoFrame, bytes);
    return c;
  }
  lat.Record(completes - now);
  if (queueing != nullptr) {
    queueing->Record(start - now);
  }
  if (fate.error) {
    c->outcome_ = RdmaCompletion::Status::kError;
    if (is_write) {
      ++writes_errored_;
    } else {
      ++reads_errored_;
    }
  }
  return c;
}

std::shared_ptr<RdmaCompletion> RdmaNic::PostRead(uint64_t bytes) {
  bytes_read_ += bytes;
  ++reads_posted_;
  TraceEmit(TraceEventType::kRdmaReadPost, -1, kTraceNoPage, kTraceNoFrame, bytes);
  auto c = Post(read_ch_, bytes, read_latency_, &read_queueing_, /*is_write=*/false);
  Arm(c);
  return c;
}

std::shared_ptr<RdmaCompletion> RdmaNic::PostWrite(uint64_t bytes) {
  auto c = PostWriteUnarmed(bytes);
  Arm(c);
  return c;
}

std::shared_ptr<RdmaCompletion> RdmaNic::PostWriteUnarmed(uint64_t bytes) {
  bytes_written_ += bytes;
  ++writes_posted_;
  TraceEmit(TraceEventType::kRdmaWritePost, -1, kTraceNoPage, kTraceNoFrame, bytes);
  return Post(write_ch_, bytes, write_latency_, nullptr, /*is_write=*/true);
}

Task<> RdmaNic::Read(uint64_t bytes) {
  auto c = PostRead(bytes);
  co_await c->Wait();
}

Task<> RdmaNic::Write(uint64_t bytes) {
  auto c = PostWrite(bytes);
  co_await c->Wait();
}

void RdmaNic::ResetStats() {
  read_ch_.busy_ns = 0;
  write_ch_.busy_ns = 0;
  bytes_read_ = bytes_written_ = 0;
  reads_posted_ = writes_posted_ = 0;
  reads_dropped_ = writes_dropped_ = 0;
  reads_errored_ = writes_errored_ = 0;
  read_latency_.Reset();
  write_latency_.Reset();
  read_queueing_.Reset();
}

}  // namespace magesim
