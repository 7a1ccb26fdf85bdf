#include "src/workloads/trace.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>

namespace magesim {

namespace {

constexpr char kMagic[8] = {'M', 'A', 'G', 'E', 'T', 'R', 'C', '1'};

struct FileHeader {
  char magic[8];
  uint64_t wss_pages;
  uint32_t num_streams;
  uint32_t reserved;
};

struct PackedRecord {
  uint64_t vpn;
  uint32_t compute_ns;
  uint32_t write;
};

}  // namespace

uint64_t Trace::total_accesses() const {
  uint64_t n = 0;
  for (const auto& s : streams) n += s.size();
  return n;
}

bool Trace::SaveTo(const std::string& path) const {
  std::unique_ptr<FILE, int (*)(FILE*)> f(std::fopen(path.c_str(), "wb"), &std::fclose);
  if (!f) return false;
  FileHeader h{};
  std::memcpy(h.magic, kMagic, sizeof(kMagic));
  h.wss_pages = wss_pages;
  h.num_streams = static_cast<uint32_t>(streams.size());
  if (std::fwrite(&h, sizeof(h), 1, f.get()) != 1) return false;
  for (const auto& s : streams) {
    uint64_t n = s.size();
    if (std::fwrite(&n, sizeof(n), 1, f.get()) != 1) return false;
    for (const TraceRecord& r : s) {
      PackedRecord p{r.vpn, r.compute_ns, r.write ? 1u : 0u};
      if (std::fwrite(&p, sizeof(p), 1, f.get()) != 1) return false;
    }
  }
  return true;
}

bool Trace::LoadFrom(const std::string& path, Trace* out) {
  std::unique_ptr<FILE, int (*)(FILE*)> f(std::fopen(path.c_str(), "rb"), &std::fclose);
  if (!f) return false;
  FileHeader h{};
  if (std::fread(&h, sizeof(h), 1, f.get()) != 1) return false;
  if (std::memcmp(h.magic, kMagic, sizeof(kMagic)) != 0) return false;
  out->wss_pages = h.wss_pages;
  out->streams.assign(h.num_streams, {});
  for (auto& s : out->streams) {
    uint64_t n = 0;
    if (std::fread(&n, sizeof(n), 1, f.get()) != 1) return false;
    s.reserve(n);
    for (uint64_t i = 0; i < n; ++i) {
      PackedRecord p{};
      if (std::fread(&p, sizeof(p), 1, f.get()) != 1) return false;
      if (p.vpn >= h.wss_pages) return false;  // corrupt trace
      s.push_back(TraceRecord{p.vpn, p.compute_ns, p.write != 0});
    }
  }
  return true;
}

namespace {
// Every thread's shard must hold a page (scan and mixed traces).
void RequireShards(const char* who, const TraceGenOptions& opt) {
  RequireAtLeast(who, "wss_pages", opt.wss_pages,
                 static_cast<uint64_t>(std::max(opt.threads, 1)));
}
}  // namespace

Trace GenerateScanTrace(const TraceGenOptions& opt) {
  RequireShards("scan trace", opt);
  Trace t;
  t.wss_pages = opt.wss_pages;
  t.streams.resize(static_cast<size_t>(opt.threads));
  uint64_t shard = opt.wss_pages / static_cast<uint64_t>(opt.threads);
  Rng rng(opt.seed);
  for (int tid = 0; tid < opt.threads; ++tid) {
    auto& s = t.streams[static_cast<size_t>(tid)];
    uint64_t base = shard * static_cast<uint64_t>(tid);
    for (uint64_t i = 0; i < opt.accesses_per_thread; ++i) {
      uint64_t vpn = base + (i % shard);
      s.push_back({vpn, opt.compute_ns, rng.NextBool(opt.write_fraction)});
    }
  }
  return t;
}

Trace GenerateZipfTrace(const TraceGenOptions& opt, double theta) {
  RequireAtLeast("zipf trace", "wss_pages", opt.wss_pages, 1);
  Trace t;
  t.wss_pages = opt.wss_pages;
  t.streams.resize(static_cast<size_t>(opt.threads));
  ZipfGenerator zipf(opt.wss_pages, theta);
  for (int tid = 0; tid < opt.threads; ++tid) {
    Rng rng(opt.seed * 7919 + static_cast<uint64_t>(tid));
    auto& s = t.streams[static_cast<size_t>(tid)];
    for (uint64_t i = 0; i < opt.accesses_per_thread; ++i) {
      uint64_t vpn = ScrambleIndex(zipf.Next(rng), opt.wss_pages);
      s.push_back({vpn, opt.compute_ns, rng.NextBool(opt.write_fraction)});
    }
  }
  return t;
}

Trace GenerateMixedTrace(const TraceGenOptions& opt, double theta, double scan_fraction) {
  RequireShards("mixed trace", opt);
  if (!(scan_fraction >= 0.0 && scan_fraction <= 1.0)) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", scan_fraction);
    throw std::invalid_argument(std::string("mixed trace: scan=") + buf +
                                " must be in [0, 1]");
  }
  Trace t;
  t.wss_pages = opt.wss_pages;
  t.streams.resize(static_cast<size_t>(opt.threads));
  ZipfGenerator zipf(opt.wss_pages, theta);
  uint64_t shard = opt.wss_pages / static_cast<uint64_t>(opt.threads);
  for (int tid = 0; tid < opt.threads; ++tid) {
    Rng rng(opt.seed * 104729 + static_cast<uint64_t>(tid));
    auto& s = t.streams[static_cast<size_t>(tid)];
    uint64_t base = shard * static_cast<uint64_t>(tid);
    uint64_t i = 0;
    while (i < opt.accesses_per_thread) {
      if (rng.NextDouble() < scan_fraction) {
        // Burst: scan a 64-page extent of this thread's shard.
        uint64_t start = base + rng.NextU64(shard);
        for (uint64_t k = 0; k < 64 && i < opt.accesses_per_thread; ++k, ++i) {
          s.push_back({base + (start - base + k) % shard, opt.compute_ns, false});
        }
      } else {
        uint64_t vpn = ScrambleIndex(zipf.Next(rng), opt.wss_pages);
        s.push_back({vpn, opt.compute_ns, rng.NextBool(opt.write_fraction)});
        ++i;
      }
    }
  }
  return t;
}

Task<> TraceReplayWorkload::ThreadBody(AppThread& t, int tid) {
  const auto& stream = trace_.streams[static_cast<size_t>(tid)];
  // Cursor: the next record, and whether its shutdown check and compute
  // (which come before its access) already ran.
  size_t next = 0;
  bool computed = false;
  bool stopped = false;
  co_await t.RunHits([&](AppThread::HitRun& r) {
    size_t i = next;
    bool done_compute = computed;
    while (i < stream.size()) {
      const TraceRecord& rec = stream[i];
      if (!done_compute) {
        if (r.shutdown_requested()) {
          stopped = true;
          break;
        }
        r.Compute(rec.compute_ns);
        done_compute = true;
      }
      if (!r.Touch(rec.vpn, rec.write)) break;
      done_compute = false;
      ++r.ops;
      ++i;
    }
    next = i;
    computed = done_compute;
  });
  if (stopped) co_return;
  co_await t.Sync();
}

}  // namespace magesim
