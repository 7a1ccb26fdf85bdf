#include "src/hw/rdma.h"

#include <algorithm>
#include <memory>

#include "src/sim/prof_counters.h"
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

const RdmaNic::Brownout* RdmaNic::ActiveBrownout(SimTime now) const {
  while (brownout_cursor_ < brownouts_.size() &&
         brownouts_[brownout_cursor_].until <= now) {
    ++brownout_cursor_;
  }
  if (brownout_cursor_ < brownouts_.size()) {
    const Brownout& b = brownouts_[brownout_cursor_];
    if (now >= b.from) return &b;
  }
  return nullptr;
}

void RdmaNic::InjectBrownout(SimTime from, SimTime until, double bandwidth_factor,
                             SimTime extra_latency_ns) {
  if (until <= from) return;
  brownouts_.push_back(Brownout{from, until, bandwidth_factor, extra_latency_ns});
  std::sort(brownouts_.begin(), brownouts_.end(),
            [](const Brownout& a, const Brownout& b) { return a.from < b.from; });
  // Merge overlapping/adjacent windows so the active-window lookup can assume
  // sorted disjoint intervals. Overlap degrades to the worst of both.
  std::vector<Brownout> merged;
  merged.reserve(brownouts_.size());
  for (const Brownout& b : brownouts_) {
    if (!merged.empty() && b.from <= merged.back().until) {
      Brownout& m = merged.back();
      m.until = std::max(m.until, b.until);
      m.bandwidth_factor = std::min(m.bandwidth_factor, b.bandwidth_factor);
      m.extra_latency_ns = std::max(m.extra_latency_ns, b.extra_latency_ns);
    } else {
      merged.push_back(b);
    }
  }
  brownouts_ = std::move(merged);
  brownout_cursor_ = 0;
}

std::shared_ptr<RdmaCompletion> RdmaNic::Post(Channel& ch, uint64_t bytes, Histogram& lat,
                                              Histogram* queueing, bool is_write) {
  MAGESIM_PROF_SCOPE(rdma_post);
  Engine& eng = Engine::current();
  SimTime now = eng.now();
  double rate = params_.nic_gbps;
  SimTime extra = 0;
  if (const Brownout* b = ActiveBrownout(now)) {
    rate *= b->bandwidth_factor;
    extra = b->extra_latency_ns;
  }
  RdmaOpFate fate;
  if (fault_model_ != nullptr) {
    fate = fault_model_->OnRdmaPost(is_write, now, node_id_);
    rate *= fate.bandwidth_factor;
    extra += fate.extra_latency_ns;
  }
  if (rate < 1e-6) rate = 1e-6;
  SimTime wire = static_cast<SimTime>(
      std::max<double>(1.0, static_cast<double>(bytes) * 8.0 / rate));
  SimTime start = std::max(now, ch.next_free);
  ch.next_free = start + wire;
  ch.busy_ns += wire;
  SimTime completes = start + wire + params_.rdma_base_ns + extra;
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

double RdmaNic::ReadUtilization() const {
  SimTime elapsed = Engine::current().now() - stats_epoch_;
  return elapsed <= 0 ? 0.0
                      : static_cast<double>(read_ch_.busy_ns) / static_cast<double>(elapsed);
}

double RdmaNic::WriteUtilization() const {
  SimTime elapsed = Engine::current().now() - stats_epoch_;
  return elapsed <= 0 ? 0.0
                      : static_cast<double>(write_ch_.busy_ns) / static_cast<double>(elapsed);
}

double RdmaNic::AchievedReadGbps() const {
  SimTime elapsed = Engine::current().now() - stats_epoch_;
  return elapsed <= 0 ? 0.0 : static_cast<double>(bytes_read_) * 8.0 / elapsed;
}

double RdmaNic::AchievedWriteGbps() const {
  SimTime elapsed = Engine::current().now() - stats_epoch_;
  return elapsed <= 0 ? 0.0 : static_cast<double>(bytes_written_) * 8.0 / elapsed;
}

void RdmaNic::ResetStats() {
  stats_epoch_ = Engine::current().now();
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
