#include "src/core/report.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>

#include "src/metrics/run_report.h"

namespace magesim {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void Table::AddRow(std::vector<std::string> cells) {
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
}

std::string Table::Num(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string Table::Pct(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f%%", precision, v);
  return buf;
}

std::string Table::ToString() const {
  std::vector<size_t> widths(headers_.size());
  for (size_t i = 0; i < headers_.size(); ++i) widths[i] = headers_[i].size();
  for (const auto& row : rows_) {
    for (size_t i = 0; i < row.size(); ++i) widths[i] = std::max(widths[i], row[i].size());
  }
  auto render_row = [&](const std::vector<std::string>& row) {
    std::string line;
    for (size_t i = 0; i < row.size(); ++i) {
      line += "  ";
      line += row[i];
      line.append(widths[i] - row[i].size() + 1, ' ');
    }
    line += "\n";
    return line;
  };
  std::string out = render_row(headers_);
  std::string sep;
  for (size_t w : widths) sep += "  " + std::string(w, '-') + " ";
  out += sep + "\n";
  for (const auto& row : rows_) out += render_row(row);
  return out;
}

std::string Table::ToCsv() const {
  // RFC 4180: cells containing commas, double quotes, or line breaks are
  // quoted, with embedded quotes doubled.
  auto quote = [](const std::string& cell) {
    if (cell.find_first_of(",\"\r\n") == std::string::npos) return cell;
    std::string q = "\"";
    for (char c : cell) {
      if (c == '"') q += '"';
      q += c;
    }
    q += '"';
    return q;
  };
  auto join = [&](const std::vector<std::string>& cells) {
    std::string line;
    for (size_t i = 0; i < cells.size(); ++i) {
      if (i > 0) line += ",";
      line += quote(cells[i]);
    }
    return line + "\n";
  };
  std::string out = join(headers_);
  for (const auto& row : rows_) out += join(row);
  return out;
}

void Table::Print() const { std::fputs(ToString().c_str(), stdout); }

void PrintBanner(const std::string& title) {
  std::printf("\n== %s ==\n", title.c_str());
}

std::string BenchFile::U64(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  return buf;
}

std::string BenchFile::F(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

std::string BenchFile::Str(const std::string& s) {
  JsonWriter w;
  w.String(s);
  return w.Take();
}

std::string BenchFile::ToJson() const {
  auto group = [](const char* group_name, const std::vector<Kv>& kvs) {
    std::string out = "  \"" + std::string(group_name) + "\": {";
    for (size_t i = 0; i < kvs.size(); ++i) {
      out += (i == 0 ? "\n" : ",\n");
      out += "    " + Str(kvs[i].first) + ": " + kvs[i].second;
    }
    return out + "\n  }";
  };
  std::string out = "{\n  \"schema\": \"magesim-bench-v1\",\n";
  out += "  \"name\": " + Str(name) + ",\n";
  if (!reps.empty()) out += "  \"reps\": " + reps + ",\n";
  out += "  \"scale\": " + F(scale) + ",\n";
  out += group("sim", sim) + ",\n";
  out += group("wall", wall) + "\n}\n";
  return out;
}

std::string BenchFile::Write() const {
  const char* dir = std::getenv("MAGESIM_BENCH_OUT_DIR");
  const std::string path =
      (dir != nullptr && *dir != '\0' ? std::string(dir) + "/" : std::string()) + "BENCH_" +
      name + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  const std::string json = ToJson();
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  return path;
}

}  // namespace magesim
