#include "ledger.h"

#include <fstream>

#include "obs/chrome_trace.h"

namespace perfbench {

void SpanLog::Add(const std::string& name, const std::string& category,
                  double begin_s, double end_s, int query, int client) {
  if (!enabled_) return;
  eedc::obs::TraceSpan span;
  span.query = query;
  span.worker = client;
  span.name = name;
  span.category = category;
  span.begin_s = begin_s;
  span.end_s = end_s;
  recorder_.AddSpan(std::move(span));
}

eedc::Status SpanLog::WriteChromeTrace(const std::string& path) const {
  return eedc::obs::WriteChromeTrace(recorder_, path);
}

eedc::Status WriteLedger(const std::string& path,
                         const std::vector<std::string>& info,
                         const Report& report) {
  std::ofstream out(path);
  if (!out) return eedc::Status::Internal("cannot write " + path);
  out << "{\n  \"info\": {";
  for (std::size_t i = 0; i < info.size(); ++i) {
    const std::size_t eq = info[i].find('=');
    out << (i == 0 ? "\n    " : ",\n    ")
        << JsonString(info[i].substr(0, eq)) << ": "
        << JsonString(eq == std::string::npos ? "" : info[i].substr(eq + 1));
  }
  out << "\n  },\n  \"metrics\": {";
  bool first = true;
  for (const Metric& m : report.metrics()) {
    out << (first ? "\n    " : ",\n    ") << JsonString(m.name)
        << ": {\"value\": "
        << (m.value.has_value() ? JsonNumber(*m.value) : "null")
        << ", \"unit\": " << JsonString(m.unit);
    if (m.samples.has_value()) out << ", \"samples\": " << *m.samples;
    if (!m.note.empty()) out << ", \"note\": " << JsonString(m.note);
    out << "}";
    first = false;
  }
  out << "\n  }\n}\n";
  out.close();
  if (!out) return eedc::Status::Internal("write failed: " + path);
  return eedc::Status::OK();
}

}  // namespace perfbench
