#include "support/metrics.hpp"

#include <ostream>
#include <sstream>

#include "support/json.hpp"

namespace concert {

namespace {

/// Deterministic, locale-free double formatting (default ostream precision).
std::string fmt(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

void write_labels_json(std::ostream& os, const MetricLabels& labels) {
  os << "{";
  for (std::size_t i = 0; i < labels.size(); ++i) {
    os << (i ? ", " : "") << "\"" << json_escape(labels[i].first) << "\": \""
       << json_escape(labels[i].second) << "\"";
  }
  os << "}";
}

/// Prometheus exposition escapes (text format spec): HELP text escapes
/// backslash and newline; label values additionally escape double quotes.
std::string prom_escape_help(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '\\') out += "\\\\";
    else if (c == '\n') out += "\\n";
    else out += c;
  }
  return out;
}

std::string prom_escape_label(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '\\') out += "\\\\";
    else if (c == '"') out += "\\\"";
    else if (c == '\n') out += "\\n";
    else out += c;
  }
  return out;
}

/// Prometheus label block: `{k="v",...}` or empty. `extra` appends one more
/// label (used for `le`).
std::string prom_labels(const MetricLabels& labels, const std::string& extra_key = "",
                        const std::string& extra_val = "") {
  if (labels.empty() && extra_key.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ",";
    first = false;
    out += k + "=\"" + prom_escape_label(v) + "\"";
  }
  if (!extra_key.empty()) {
    if (!first) out += ",";
    out += extra_key + "=\"" + extra_val + "\"";
  }
  out += "}";
  return out;
}

}  // namespace

void MetricsRegistry::add_counter(std::string name, std::string help, std::uint64_t value,
                                  MetricLabels labels) {
  counters_.push_back(Counter{std::move(name), std::move(help), std::move(labels), value});
}

void MetricsRegistry::add_histogram(std::string name, std::string help, const Histogram& h,
                                    MetricLabels labels) {
  hists_.push_back(Hist{std::move(name), std::move(help), std::move(labels), h});
}

const MetricsRegistry::Counter* MetricsRegistry::find_counter(const std::string& name) const {
  for (const Counter& c : counters_) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

const MetricsRegistry::Hist* MetricsRegistry::find_histogram(const std::string& name,
                                                             const MetricLabels& labels) const {
  for (const Hist& h : hists_) {
    if (h.name == name && (labels.empty() || h.labels == labels)) return &h;
  }
  return nullptr;
}

void MetricsRegistry::clear() {
  counters_.clear();
  hists_.clear();
}

void MetricsRegistry::write_json(std::ostream& os) const {
  os << "{\n  \"counters\": [\n";
  for (std::size_t i = 0; i < counters_.size(); ++i) {
    const Counter& c = counters_[i];
    os << "    {\"name\": \"" << json_escape(c.name) << "\", \"labels\": ";
    write_labels_json(os, c.labels);
    os << ", \"value\": " << c.value << "}" << (i + 1 < counters_.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"histograms\": [\n";
  for (std::size_t i = 0; i < hists_.size(); ++i) {
    const Hist& h = hists_[i];
    const Histogram& g = h.hist;
    os << "    {\"name\": \"" << json_escape(h.name) << "\", \"labels\": ";
    write_labels_json(os, h.labels);
    os << ", \"count\": " << g.count() << ", \"sum\": " << g.sum() << ", \"min\": " << g.min()
       << ", \"max\": " << g.max() << ", \"mean\": " << fmt(g.mean())
       << ", \"p50\": " << fmt(g.quantile(0.5)) << ", \"p90\": " << fmt(g.quantile(0.9))
       << ", \"p99\": " << fmt(g.quantile(0.99)) << ", \"buckets\": [";
    bool first = true;
    for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
      if (g.bucket(b) == 0) continue;
      os << (first ? "" : ", ") << "[" << Histogram::bucket_hi(b) << ", " << g.bucket(b) << "]";
      first = false;
    }
    os << "]}" << (i + 1 < hists_.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

void MetricsRegistry::write_prometheus(std::ostream& os) const {
  // HELP/TYPE headers are emitted once per metric name, before its first
  // sample; repeated names (different label sets) share the header.
  std::vector<std::string> seen;
  auto header = [&](const std::string& name, const std::string& help, const char* type) {
    for (const std::string& s : seen) {
      if (s == name) return;
    }
    seen.push_back(name);
    if (!help.empty()) os << "# HELP " << name << " " << prom_escape_help(help) << "\n";
    os << "# TYPE " << name << " " << type << "\n";
  };

  for (const Counter& c : counters_) {
    header(c.name, c.help, "counter");
    os << c.name << prom_labels(c.labels) << " " << c.value << "\n";
  }
  for (const Hist& h : hists_) {
    header(h.name, h.help, "histogram");
    const Histogram& g = h.hist;
    std::uint64_t cum = 0;
    for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
      if (g.bucket(b) == 0) continue;
      cum += g.bucket(b);
      os << h.name << "_bucket" << prom_labels(h.labels, "le", fmt(static_cast<double>(Histogram::bucket_hi(b))))
         << " " << cum << "\n";
    }
    os << h.name << "_bucket" << prom_labels(h.labels, "le", "+Inf") << " " << g.count() << "\n";
    os << h.name << "_sum" << prom_labels(h.labels) << " " << g.sum() << "\n";
    os << h.name << "_count" << prom_labels(h.labels) << " " << g.count() << "\n";
  }
}

}  // namespace concert
