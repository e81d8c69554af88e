#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>

#include "util/check.h"

namespace rsr {
namespace obs {

namespace {

/// Prometheus-compatible number rendering: integers stay integral
/// ("123"), everything else gets shortest-ish decimal ("0.001",
/// "2.5e-06").
std::string FormatNumber(double v) {
  char buf[64];
  if (v == static_cast<double>(static_cast<long long>(v)) &&
      v > -1e15 && v < 1e15) {
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof buf, "%.10g", v);
  }
  return buf;
}

std::string EscapeLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

/// Renders `{k="v",...}` (empty string for an empty set); `extra` (the
/// histogram `le` pair) is appended last when non-null.
std::string RenderLabels(const LabelSet& labels,
                         const std::pair<std::string, std::string>* extra) {
  if (labels.empty() && extra == nullptr) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out += ",";
    first = false;
    out += key + "=\"" + EscapeLabelValue(value) + "\"";
  }
  if (extra != nullptr) {
    if (!first) out += ",";
    out += extra->first + "=\"" + extra->second + "\"";
  }
  out += "}";
  return out;
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      buckets_(new std::atomic<uint64_t>[bounds_.size() + 1]) {
  for (size_t i = 1; i < bounds_.size(); ++i) {
    RSR_CHECK_MSG(bounds_[i - 1] < bounds_[i],
                  "histogram bounds must be strictly increasing");
  }
  for (size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
}

void Histogram::Observe(double value) {
  // `le` semantics: first bound >= value owns the observation; past the
  // last bound it lands in the implicit +Inf bucket.
  const size_t index = static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin());
  buckets_[index].fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  snap.bounds = bounds_;
  snap.buckets.resize(bounds_.size() + 1);
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    snap.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
    snap.count += snap.buckets[i];
  }
  snap.sum = sum_.load(std::memory_order_relaxed);
  return snap;
}

double HistogramSnapshot::Quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count);
  uint64_t cumulative = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    const uint64_t in_bucket = buckets[i];
    if (in_bucket == 0) continue;
    if (static_cast<double>(cumulative + in_bucket) < target) {
      cumulative += in_bucket;
      continue;
    }
    if (i >= bounds.size()) {
      // +Inf bucket: no finite upper edge to interpolate toward.
      return bounds.empty() ? 0.0 : bounds.back();
    }
    const double lower = i == 0 ? std::min(0.0, bounds[0]) : bounds[i - 1];
    const double upper = bounds[i];
    return lower + (upper - lower) *
                       (target - static_cast<double>(cumulative)) /
                       static_cast<double>(in_bucket);
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

std::vector<double> DefaultLatencyBounds() {
  return {1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4,
          5e-4, 1e-3,   2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1,
          0.25, 0.5,    1.0,   2.5,  5.0,  10.0};
}

std::vector<double> DefaultDepthBounds() {
  return {0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024};
}

MetricsRegistry::Instrument* MetricsRegistry::FindOrCreate(
    const std::string& name, const std::string& help, Kind kind,
    const LabelSet& labels) {
  Family& family = families_[name];
  if (family.instruments.empty()) {
    family.help = help;
    family.kind = kind;
  } else {
    RSR_CHECK_MSG(family.kind == kind,
                  "metric family registered with two kinds");
  }
  for (Instrument& instrument : family.instruments) {
    if (instrument.labels == labels) return &instrument;
  }
  family.instruments.emplace_back();
  Instrument& instrument = family.instruments.back();
  instrument.labels = labels;
  return &instrument;
}

const MetricsRegistry::Instrument* MetricsRegistry::Find(
    const std::string& name, Kind kind, const LabelSet& labels) const {
  auto it = families_.find(name);
  if (it == families_.end() || it->second.kind != kind) return nullptr;
  for (const Instrument& instrument : it->second.instruments) {
    if (instrument.labels == labels) return &instrument;
  }
  return nullptr;
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const std::string& help,
                                     const LabelSet& labels) {
  MutexLock lock(mu_);
  Instrument* instrument = FindOrCreate(name, help, Kind::kCounter, labels);
  if (instrument->counter == nullptr) {
    instrument->counter = std::make_unique<Counter>();
  }
  return instrument->counter.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name,
                                 const std::string& help,
                                 const LabelSet& labels) {
  MutexLock lock(mu_);
  Instrument* instrument = FindOrCreate(name, help, Kind::kGauge, labels);
  if (instrument->gauge == nullptr) {
    instrument->gauge = std::make_unique<Gauge>();
  }
  return instrument->gauge.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         const std::string& help,
                                         std::vector<double> bounds,
                                         const LabelSet& labels) {
  MutexLock lock(mu_);
  Instrument* instrument = FindOrCreate(name, help, Kind::kHistogram, labels);
  if (instrument->histogram == nullptr) {
    instrument->histogram = std::make_unique<Histogram>(std::move(bounds));
  }
  return instrument->histogram.get();
}

uint64_t MetricsRegistry::CounterValue(const std::string& name,
                                       const LabelSet& labels) const {
  MutexLock lock(mu_);
  const Instrument* instrument = Find(name, Kind::kCounter, labels);
  return instrument != nullptr ? instrument->counter->value() : 0;
}

int64_t MetricsRegistry::GaugeValue(const std::string& name,
                                    const LabelSet& labels) const {
  MutexLock lock(mu_);
  const Instrument* instrument = Find(name, Kind::kGauge, labels);
  return instrument != nullptr ? instrument->gauge->value() : 0;
}

std::optional<HistogramSnapshot> MetricsRegistry::SnapshotHistogram(
    const std::string& name, const LabelSet& labels) const {
  MutexLock lock(mu_);
  const Instrument* instrument = Find(name, Kind::kHistogram, labels);
  if (instrument == nullptr) return std::nullopt;
  return instrument->histogram->Snapshot();
}

std::optional<HistogramSnapshot> MetricsRegistry::SnapshotHistogramSum(
    const std::string& name) const {
  MutexLock lock(mu_);
  auto it = families_.find(name);
  if (it == families_.end() || it->second.kind != Kind::kHistogram ||
      it->second.instruments.empty()) {
    return std::nullopt;
  }
  std::optional<HistogramSnapshot> merged;
  for (const Instrument& instrument : it->second.instruments) {
    HistogramSnapshot snap = instrument.histogram->Snapshot();
    if (!merged.has_value()) {
      merged = std::move(snap);
      continue;
    }
    RSR_CHECK_MSG(snap.bounds == merged->bounds,
                  "histogram family with mismatched bounds");
    for (size_t i = 0; i < snap.buckets.size(); ++i) {
      merged->buckets[i] += snap.buckets[i];
    }
    merged->count += snap.count;
    merged->sum += snap.sum;
  }
  return merged;
}

uint64_t MetricsRegistry::SumCounters(const std::string& name,
                                      const LabelSet& match) const {
  MutexLock lock(mu_);
  auto it = families_.find(name);
  if (it == families_.end() || it->second.kind != Kind::kCounter) return 0;
  uint64_t total = 0;
  for (const Instrument& instrument : it->second.instruments) {
    const bool matches = std::all_of(
        match.begin(), match.end(), [&](const auto& label) {
          return std::find(instrument.labels.begin(), instrument.labels.end(),
                           label) != instrument.labels.end();
        });
    if (matches) total += instrument.counter->value();
  }
  return total;
}

std::string MetricsRegistry::RenderPrometheus() const {
  MutexLock lock(mu_);
  std::string out;
  for (const auto& [name, family] : families_) {
    out += "# HELP " + name + " " + family.help + "\n";
    out += "# TYPE " + name + " ";
    switch (family.kind) {
      case Kind::kCounter: out += "counter\n"; break;
      case Kind::kGauge: out += "gauge\n"; break;
      case Kind::kHistogram: out += "histogram\n"; break;
    }
    for (const Instrument& instrument : family.instruments) {
      switch (family.kind) {
        case Kind::kCounter:
          out += name + RenderLabels(instrument.labels, nullptr) + " " +
                 FormatNumber(
                     static_cast<double>(instrument.counter->value())) +
                 "\n";
          break;
        case Kind::kGauge:
          out += name + RenderLabels(instrument.labels, nullptr) + " " +
                 FormatNumber(
                     static_cast<double>(instrument.gauge->value())) +
                 "\n";
          break;
        case Kind::kHistogram: {
          const HistogramSnapshot snap = instrument.histogram->Snapshot();
          uint64_t cumulative = 0;
          for (size_t i = 0; i < snap.buckets.size(); ++i) {
            cumulative += snap.buckets[i];
            const std::pair<std::string, std::string> le = {
                "le", i < snap.bounds.size() ? FormatNumber(snap.bounds[i])
                                             : "+Inf"};
            out += name + "_bucket" + RenderLabels(instrument.labels, &le) +
                   " " + FormatNumber(static_cast<double>(cumulative)) + "\n";
          }
          out += name + "_sum" + RenderLabels(instrument.labels, nullptr) +
                 " " + FormatNumber(snap.sum) + "\n";
          out += name + "_count" + RenderLabels(instrument.labels, nullptr) +
                 " " + FormatNumber(static_cast<double>(snap.count)) + "\n";
          break;
        }
      }
    }
  }
  return out;
}

}  // namespace obs
}  // namespace rsr
