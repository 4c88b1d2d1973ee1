#include "report.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>

namespace perfbench {

namespace {

bool IsAlnum(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9');
}

void CheckNameAndUnit(const std::string& name, const std::string& unit) {
  if (!ValidMetricName(name) || !ValidUnit(unit)) {
    std::cerr << "perfbench: invalid metric name or unit: '" << name
              << "' [" << unit << "]\n";
    std::abort();
  }
}

}  // namespace

bool ValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64 || !IsAlnum(name.front())) {
    return false;
  }
  for (char c : name) {
    if (!IsAlnum(c) && c != '_' && c != '.' && c != '-') return false;
  }
  return true;
}

bool ValidUnit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  for (char c : unit) {
    if (!IsAlnum(c) && c != '_' && c != '/' && c != '%' && c != '.' &&
        c != '-') {
      return false;
    }
  }
  return true;
}

Report::Report(std::vector<MetricSpec> catalogue) {
  for (MetricSpec& spec : catalogue) {
    CheckNameAndUnit(spec.name, spec.unit);
    if (Find(spec.name) != nullptr) {
      std::cerr << "perfbench: duplicate metric " << spec.name << "\n";
      std::abort();
    }
    metrics_.push_back(Metric{std::move(spec.name), std::move(spec.unit),
                              std::nullopt, std::nullopt,
                              "not recorded by this workload"});
  }
}

Metric& Report::At(const std::string& name) {
  for (Metric& m : metrics_) {
    if (m.name == name) return m;
  }
  std::cerr << "perfbench: metric " << name << " is not in the catalogue\n";
  std::abort();
}

void Report::Add(const std::string& name, double value, std::string note) {
  Metric& m = At(name);
  m.value = value;
  m.note = std::move(note);
}

void Report::AddPercentile(const std::string& name,
                           const PercentileResult& p) {
  Metric& m = At(name);
  m.samples = p.samples;
  if (p.supported) {
    m.value = p.value;
    m.note.clear();
  } else {
    m.value.reset();
    m.note = "unsupported: fewer than " + std::to_string(kMinTailSamples) +
             " samples beyond it";
  }
}

void Report::AddNotMeasured(const std::string& name, std::string why) {
  Metric& m = At(name);
  m.value.reset();
  m.note = std::move(why);
}

const Metric* Report::Find(std::string_view name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

void Report::Print(std::ostream& out) const {
  for (const Metric& m : metrics_) {
    char line[160];
    if (m.value.has_value()) {
      std::snprintf(line, sizeof(line), "%-30s %16.6g %-8s", m.name.c_str(),
                    *m.value, m.unit.c_str());
    } else {
      std::snprintf(line, sizeof(line), "%-30s %16s %-8s", m.name.c_str(),
                    "not measured", m.unit.c_str());
    }
    out << line;
    if (m.samples.has_value()) out << " n=" << *m.samples;
    if (!m.note.empty()) out << "  (" << m.note << ")";
    out << "\n";
  }
}

std::optional<std::string> Report::ResultJson(
    bool correct, std::int64_t attempted, std::int64_t failed,
    const std::vector<std::string>& selected, std::string* error) const {
  std::string metrics;
  for (const std::string& name : selected) {
    const Metric* m = Find(name);
    if (m == nullptr || !m->value.has_value() || !std::isfinite(*m->value)) {
      *error = "metric " + name + " was not measured" +
               (m != nullptr && !m->note.empty() ? ": " + m->note : "");
      return std::nullopt;
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += JsonString(m->name) + ": {\"value\": " +
               JsonNumber(*m->value) + ", \"unit\": " + JsonString(m->unit) +
               "}";
  }
  return std::string("{\"correct\": ") + (correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {" +
         metrics + "}}";
}

std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  // Shortest text that reads back as exactly `v`.
  char buf[40];
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

}  // namespace perfbench
