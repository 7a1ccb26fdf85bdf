#include "src/tenancy/tenant_spec.h"

#include <cctype>
#include <climits>
#include <cstdlib>
#include <set>
#include <stdexcept>

#include "src/sim/parse.h"

namespace magesim {

namespace {

std::vector<std::string> Split(const std::string& s, char sep) {
  std::vector<std::string> parts;
  size_t start = 0;
  for (;;) {
    size_t pos = s.find(sep, start);
    if (pos == std::string::npos) {
      parts.push_back(s.substr(start));
      return parts;
    }
    parts.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

bool ParseFrac(const std::string& s, double* out, std::string* err) {
  const std::string want = " (want a fraction like 0.4 or a percent like 40)";
  // strtod also reads "nan", "inf" and hex floats; a limit is none of them,
  // and each would reach the tenancy manager's page arithmetic as garbage.
  std::string lower = s;
  for (char& c : lower) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  const char* what = lower.find("nan") != std::string::npos   ? "is not a number"
                     : lower.find("inf") != std::string::npos ? "is not finite"
                     : lower.find('x') != std::string::npos   ? "is a hex float"
                                                              : nullptr;
  if (what != nullptr) {
    *err = "limit '" + s + "' " + what + want;
    return false;
  }
  char* end = nullptr;
  double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0' || v < 0) {
    *err = "bad limit '" + s + "'" + want;
    return false;
  }
  // Percentages read naturally ("40" = 40% of local DRAM).
  if (v > 1.0) v /= 100.0;
  if (v > 1.0) {
    *err = "limit '" + s + "' exceeds 100% of local memory";
    return false;
  }
  *out = v;
  return true;
}

}  // namespace

const char* QosClassName(QosClass q) {
  switch (q) {
    case QosClass::kLatency: return "latency";
    case QosClass::kNormal: return "normal";
    case QosClass::kBatch: return "batch";
  }
  return "?";
}

bool ParseQosClass(const std::string& s, QosClass* out) {
  if (s == "latency") {
    *out = QosClass::kLatency;
  } else if (s == "normal") {
    *out = QosClass::kNormal;
  } else if (s == "batch") {
    *out = QosClass::kBatch;
  } else {
    return false;
  }
  return true;
}

bool ParseTenantSpec(const std::string& s, TenantSpec* out, std::string* err) {
  size_t eq = s.find('=');
  if (eq == std::string::npos) {
    *err = "tenant spec '" + s + "' is missing '=workload'";
    return false;
  }
  std::vector<std::string> head = Split(s.substr(0, eq), ':');
  if (head.size() != 4 && head.size() != 5) {
    *err = "tenant spec '" + s + "' wants name:weight:limit[:soft]:qos=workload";
    return false;
  }
  TenantSpec t;
  t.name = head[0];
  if (t.name.empty()) {
    *err = "tenant spec '" + s + "' has an empty name";
    return false;
  }
  try {
    t.weight = static_cast<uint32_t>(
        ParseWholeNumber("tenant '" + t.name + "' weight", head[1], 1, UINT32_MAX));
  } catch (const std::invalid_argument& e) {
    *err = e.what();
    return false;
  }
  if (!ParseFrac(head[2], &t.hard_frac, err)) return false;
  size_t qos_at = 3;
  if (head.size() == 5) {
    if (!ParseFrac(head[3], &t.soft_frac, err)) return false;
    // Admission assumes soft <= hard; a hard limit of 0 means none.
    if (t.hard_frac > 0 && t.soft_frac > t.hard_frac) {
      *err = "tenant '" + t.name + "': soft limit '" + head[3] + "' is above the hard limit '" +
             head[2] + "'";
      return false;
    }
    qos_at = 4;
  }
  if (!ParseQosClass(head[qos_at], &t.qos)) {
    *err = "tenant '" + t.name + "': unknown qos '" + head[qos_at] +
           "' (want latency|normal|batch)";
    return false;
  }

  // Workload part: name[/threads][,k=v...]
  std::vector<std::string> wparts = Split(s.substr(eq + 1), ',');
  std::string wname = wparts[0];
  size_t slash = wname.find('/');
  if (slash != std::string::npos) {
    try {
      t.threads = static_cast<int>(ParseWholeNumber("tenant '" + t.name + "' threads",
                                                    wname.substr(slash + 1), 1, INT_MAX));
    } catch (const std::invalid_argument& e) {
      *err = e.what();
      return false;
    }
    wname = wname.substr(0, slash);
  }
  if (wname.empty()) {
    *err = "tenant '" + t.name + "' has an empty workload name";
    return false;
  }
  t.workload = wname;
  for (size_t i = 1; i < wparts.size(); ++i) {
    size_t kv = wparts[i].find('=');
    if (kv == std::string::npos || kv == 0) {
      *err = "tenant '" + t.name + "': bad workload option '" + wparts[i] + "'";
      return false;
    }
    t.workload_opts[wparts[i].substr(0, kv)] = wparts[i].substr(kv + 1);
  }
  *out = std::move(t);
  return true;
}

bool ParseTenancyList(const std::string& s, TenancyOptions* out, std::string* err) {
  std::set<std::string> names;
  for (const std::string& part : Split(s, ';')) {
    if (part.empty()) continue;
    TenantSpec t;
    if (!ParseTenantSpec(part, &t, err)) return false;
    if (!names.insert(t.name).second) {
      *err = "duplicate tenant name '" + t.name + "'";
      return false;
    }
    out->tenants.push_back(std::move(t));
  }
  if (out->tenants.empty()) {
    *err = "tenancy spec '" + s + "' defines no tenants";
    return false;
  }
  out->enabled = true;
  return true;
}

}  // namespace magesim
