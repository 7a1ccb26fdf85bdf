#include "src/resilience/fault_plan.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "src/sim/parse.h"

namespace magesim {

namespace {

void SetError(std::string* error, const std::string& msg) {
  if (error != nullptr) *error = msg;
}

std::string Trim(const std::string& s) {
  size_t b = s.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) return "";
  size_t e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
}

bool KindFromName(const std::string& name, FaultKind* out) {
  for (int i = 0; i < static_cast<int>(FaultKind::kNumKinds); ++i) {
    FaultKind k = static_cast<FaultKind>(i);
    if (name == FaultKindName(k)) {
      *out = k;
      return true;
    }
  }
  return false;
}

bool ChannelFromName(const std::string& name, FaultChannel* out) {
  if (name == "read") {
    *out = FaultChannel::kRead;
  } else if (name == "write") {
    *out = FaultChannel::kWrite;
  } else if (name == "both") {
    *out = FaultChannel::kBoth;
  } else {
    return false;
  }
  return true;
}

const char* ChannelName(FaultChannel c) {
  switch (c) {
    case FaultChannel::kRead: return "read";
    case FaultChannel::kWrite: return "write";
    case FaultChannel::kBoth: return "both";
  }
  return "both";
}

// Shortest decimal rendering that parses back to exactly the same double.
std::string FormatDouble(double v) {
  char buf[64];
  for (int prec = 6; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

// Each kind starts from sensible non-noop defaults so terse specs like
// "brownout@2ms-6ms" are meaningful; explicit keys override.
void ApplyKindDefaults(FaultWindow* w) {
  switch (w->kind) {
    case FaultKind::kBrownout:
      w->bandwidth_factor = 0.25;
      break;
    case FaultKind::kDegrade:
      w->bandwidth_factor = 0.5;
      w->probability = 0.05;
      break;
    case FaultKind::kDrop:
    case FaultKind::kError:
      w->probability = 0.01;
      break;
    case FaultKind::kSpike:
      w->extra_latency_ns = 20 * kMicrosecond;
      break;
    case FaultKind::kIpiDelay:
      w->extra_latency_ns = 10 * kMicrosecond;
      break;
    case FaultKind::kCrash:
    case FaultKind::kNumKinds:
      break;
  }
}

bool SetWindowKey(FaultWindow* w, const std::string& key, const std::string& value,
                  std::string* error) {
  if (key == "p") {
    double p;
    if (!ParseFiniteNumber(value, &p) || p < 0.0 || p > 1.0) {
      SetError(error, "bad probability '" + value + "' (want 0..1)");
      return false;
    }
    w->probability = p;
  } else if (key == "bw") {
    double bw;
    if (!ParseFiniteNumber(value, &bw) || bw <= 0.0) {
      SetError(error, "bad bandwidth factor '" + value + "' (want > 0)");
      return false;
    }
    w->bandwidth_factor = bw;
  } else if (key == "lat") {
    if (!ParseTimeNs(value, &w->extra_latency_ns)) {
      SetError(error, "bad latency '" + value + "'");
      return false;
    }
  } else if (key == "ch") {
    if (!ChannelFromName(value, &w->channel)) {
      SetError(error, "bad channel '" + value + "' (want read|write|both)");
      return false;
    }
  } else if (key == "node") {
    char* end = nullptr;
    long n = std::strtol(value.c_str(), &end, 10);
    if (end == value.c_str() || *end != '\0' || n < 0 || n > 4096) {
      SetError(error, "bad node '" + value + "' (want a node id >= 0)");
      return false;
    }
    w->node = static_cast<int>(n);
  } else {
    SetError(error, "unknown key '" + key + "'");
    return false;
  }
  return true;
}

}  // namespace

const char* FaultKindName(FaultKind k) {
  switch (k) {
    case FaultKind::kBrownout: return "brownout";
    case FaultKind::kDegrade: return "degrade";
    case FaultKind::kDrop: return "drop";
    case FaultKind::kError: return "error";
    case FaultKind::kSpike: return "spike";
    case FaultKind::kCrash: return "crash";
    case FaultKind::kIpiDelay: return "ipidelay";
    case FaultKind::kNumKinds: break;
  }
  return "unknown";
}

bool ParseTimeNs(const std::string& text, SimTime* out) {
  std::string s = Trim(text);
  double v = 0;
  size_t used = ParseFinitePrefix(s, &v);
  if (used == 0) return false;
  std::string unit = Trim(s.substr(used));
  double scale = 1.0;
  if (unit == "" || unit == "ns") {
    scale = 1.0;
  } else if (unit == "us") {
    scale = 1e3;
  } else if (unit == "ms") {
    scale = 1e6;
  } else if (unit == "s") {
    scale = 1e9;
  } else {
    return false;
  }
  double ns = v * scale;
  if (ns < 0 || ns > 9.2e18) return false;
  *out = static_cast<SimTime>(ns + 0.5);
  return true;
}

std::string FormatTimeNs(SimTime ns) {
  char buf[48];
  if (ns != 0 && ns % kSecond == 0) {
    std::snprintf(buf, sizeof(buf), "%llds", static_cast<long long>(ns / kSecond));
  } else if (ns != 0 && ns % kMillisecond == 0) {
    std::snprintf(buf, sizeof(buf), "%lldms", static_cast<long long>(ns / kMillisecond));
  } else if (ns != 0 && ns % kMicrosecond == 0) {
    std::snprintf(buf, sizeof(buf), "%lldus", static_cast<long long>(ns / kMicrosecond));
  } else {
    std::snprintf(buf, sizeof(buf), "%lldns", static_cast<long long>(ns));
  }
  return buf;
}

bool FaultPlan::Parse(const std::string& text, FaultPlan* out, std::string* error) {
  FaultPlan plan;
  size_t pos = 0;
  while (pos <= text.size()) {
    size_t semi = text.find(';', pos);
    std::string ev = Trim(text.substr(pos, semi == std::string::npos ? std::string::npos
                                                                     : semi - pos));
    pos = semi == std::string::npos ? text.size() + 1 : semi + 1;
    if (ev.empty()) continue;

    size_t at = ev.find('@');
    if (at == std::string::npos) {
      SetError(error, "event '" + ev + "' missing '@'");
      return false;
    }
    FaultWindow w;
    if (!KindFromName(Trim(ev.substr(0, at)), &w.kind)) {
      SetError(error, "unknown fault kind '" + Trim(ev.substr(0, at)) + "'");
      return false;
    }
    ApplyKindDefaults(&w);

    size_t colon = ev.find(':', at + 1);
    std::string range = ev.substr(at + 1, colon == std::string::npos ? std::string::npos
                                                                     : colon - at - 1);
    size_t dash = range.find('-');
    if (dash == std::string::npos) {
      SetError(error, "range '" + range + "' missing '-'");
      return false;
    }
    if (!ParseTimeNs(range.substr(0, dash), &w.from) ||
        !ParseTimeNs(range.substr(dash + 1), &w.until)) {
      SetError(error, "bad time range '" + range + "'");
      return false;
    }

    if (colon != std::string::npos) {
      size_t kpos = colon + 1;
      while (kpos <= ev.size()) {
        size_t comma = ev.find(',', kpos);
        std::string kv = Trim(ev.substr(kpos, comma == std::string::npos ? std::string::npos
                                                                         : comma - kpos));
        kpos = comma == std::string::npos ? ev.size() + 1 : comma + 1;
        if (kv.empty()) continue;
        size_t eq = kv.find('=');
        if (eq == std::string::npos) {
          SetError(error, "key/value '" + kv + "' missing '='");
          return false;
        }
        if (!SetWindowKey(&w, Trim(kv.substr(0, eq)), Trim(kv.substr(eq + 1)), error)) {
          return false;
        }
      }
    }
    if (w.until <= w.from) {
      SetError(error, "window must satisfy until > from");
      return false;
    }
    plan.Add(w);
  }
  *out = std::move(plan);
  return true;
}

std::string FaultPlan::ToSpec() const {
  std::string s;
  for (const FaultWindow& w : windows_) {
    if (!s.empty()) s += ";";
    s += FaultKindName(w.kind);
    s += "@";
    s += FormatTimeNs(w.from);
    s += "-";
    s += FormatTimeNs(w.until);
    // Emit exactly the fields that differ from the kind's parse-time defaults
    // so Parse(ToSpec(p)) == p for any representable window.
    FaultWindow d;
    d.kind = w.kind;
    ApplyKindDefaults(&d);
    std::vector<std::string> kvs;
    if (w.probability != d.probability) kvs.push_back("p=" + FormatDouble(w.probability));
    if (w.bandwidth_factor != d.bandwidth_factor) {
      kvs.push_back("bw=" + FormatDouble(w.bandwidth_factor));
    }
    if (w.extra_latency_ns != d.extra_latency_ns) {
      kvs.push_back("lat=" + FormatTimeNs(w.extra_latency_ns));
    }
    if (w.channel != d.channel) kvs.push_back(std::string("ch=") + ChannelName(w.channel));
    if (w.node != d.node) kvs.push_back("node=" + std::to_string(w.node));
    for (size_t i = 0; i < kvs.size(); ++i) {
      s += (i == 0 ? ":" : ",") + kvs[i];
    }
  }
  return s;
}

void FaultPlan::Add(const FaultWindow& w) {
  auto it = std::upper_bound(
      windows_.begin(), windows_.end(), w,
      [](const FaultWindow& a, const FaultWindow& b) { return a.from < b.from; });
  windows_.insert(it, w);
}

SimTime FaultPlan::end_time() const {
  SimTime end = 0;
  for (const FaultWindow& w : windows_) end = std::max(end, w.until);
  return end;
}

int FaultPlan::max_target_node() const {
  int max_node = -1;
  for (const FaultWindow& w : windows_) max_node = std::max(max_node, w.node);
  return max_node;
}

}  // namespace magesim
