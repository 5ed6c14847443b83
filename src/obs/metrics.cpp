#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "common/json_escape.hpp"

namespace reconf::obs {

namespace detail {

std::atomic<bool> g_metrics_enabled{true};

std::size_t thread_cell_index() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t idx =
      next.fetch_add(1, std::memory_order_relaxed);
  return idx;
}

namespace {

bool env_disables_obs() noexcept {
  const char* v = std::getenv("RECONF_OBS");
  if (v == nullptr) return false;
  return std::strcmp(v, "0") == 0 || std::strcmp(v, "off") == 0 ||
         std::strcmp(v, "false") == 0;
}

/// Applies the RECONF_OBS env override before main() runs.
const bool g_env_applied = [] {
  if (env_disables_obs()) g_metrics_enabled.store(false);
  return true;
}();

}  // namespace
}  // namespace detail

void set_enabled(bool on) noexcept {
  detail::g_metrics_enabled.store(on, std::memory_order_relaxed);
}

// ------------------------------------------------------------ Histogram ----

std::vector<std::uint64_t> Histogram::default_latency_bounds() {
  // 1–2–5 ladder per decade: 10ns … 10s. Coarse enough that a histogram is
  // ~30 buckets, fine enough that p50/p95/p99 resolve to within ~2x.
  std::vector<std::uint64_t> bounds;
  for (std::uint64_t decade = 10; decade <= 1'000'000'000ull;
       decade *= 10) {
    bounds.push_back(decade);
    bounds.push_back(decade * 2);
    bounds.push_back(decade * 5);
  }
  bounds.push_back(10'000'000'000ull);  // 10 s
  return bounds;
}

Histogram::Histogram(std::vector<std::uint64_t> bounds)
    : bounds_(bounds.empty() ? default_latency_bounds() : std::move(bounds)) {
  for (std::size_t i = 1; i < bounds_.size(); ++i) {
    if (bounds_[i] <= bounds_[i - 1]) {
      throw std::invalid_argument(
          "histogram bounds must be strictly increasing");
    }
  }
  cells_.reserve(kCells);
  for (std::size_t c = 0; c < kCells; ++c) {
    cells_.push_back(std::make_unique<Cell>(bounds_.size() + 1));
  }
}

void Histogram::record(std::uint64_t value) noexcept {
  if (!enabled()) return;
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  const std::size_t bucket =
      static_cast<std::size_t>(it - bounds_.begin());  // overflow = last
  Cell& cell = *cells_[detail::thread_cell_index() & (kCells - 1)];
  cell.counts[bucket].fetch_add(1, std::memory_order_relaxed);
  cell.sum.fetch_add(value, std::memory_order_relaxed);
  std::uint64_t seen = cell.max.load(std::memory_order_relaxed);
  while (value > seen && !cell.max.compare_exchange_weak(
                             seen, value, std::memory_order_relaxed)) {
  }
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot out;
  out.bounds = bounds_;
  out.bucket_counts.assign(bounds_.size() + 1, 0);
  for (const auto& cell : cells_) {
    for (std::size_t b = 0; b < out.bucket_counts.size(); ++b) {
      out.bucket_counts[b] +=
          cell->counts[b].load(std::memory_order_relaxed);
    }
    out.sum += cell->sum.load(std::memory_order_relaxed);
    out.max = std::max(out.max, cell->max.load(std::memory_order_relaxed));
  }
  for (const std::uint64_t c : out.bucket_counts) out.count += c;
  return out;
}

std::uint64_t Histogram::count() const noexcept {
  std::uint64_t total = 0;
  for (const auto& cell : cells_) {
    for (const auto& c : cell->counts) {
      total += c.load(std::memory_order_relaxed);
    }
  }
  return total;
}

std::uint64_t HistogramSnapshot::percentile(double q) const noexcept {
  if (count == 0) return 0;
  const double clamped = std::min(1.0, std::max(0.0, q));
  std::uint64_t rank = static_cast<std::uint64_t>(
      std::ceil(clamped * static_cast<double>(count)));
  rank = std::max<std::uint64_t>(1, std::min(rank, count));
  std::uint64_t cum = 0;
  for (std::size_t b = 0; b < bucket_counts.size(); ++b) {
    cum += bucket_counts[b];
    if (cum >= rank) {
      return b < bounds.size() ? bounds[b] : max;
    }
  }
  return max;  // unreachable: cum == count >= rank
}

// ------------------------------------------------------ MetricsRegistry ----

MetricsRegistry& MetricsRegistry::instance() {
  static MetricsRegistry* registry = new MetricsRegistry();  // leaky: handles
  return *registry;  // stay valid through static destruction
}

namespace {

/// Registered under exactly one kind; naming a metric as two kinds throws.
void require_unregistered_elsewhere(
    const std::string& name, const char* wanted,
    std::initializer_list<std::pair<const char*, bool>> others) {
  for (const auto& [kind, taken] : others) {
    if (taken) {
      throw std::invalid_argument("metric '" + name + "' is a " + kind +
                                  ", requested as " + wanted);
    }
  }
}

}  // namespace

Counter& MetricsRegistry::counter(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    require_unregistered_elsewhere(
        name, "counter",
        {{"gauge", gauges_.contains(name)},
         {"histogram", histograms_.contains(name)}});
    it = counters_.emplace(name, std::make_unique<Counter>()).first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    require_unregistered_elsewhere(
        name, "gauge",
        {{"counter", counters_.contains(name)},
         {"histogram", histograms_.contains(name)}});
    it = gauges_.emplace(name, std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<std::uint64_t> bounds) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    require_unregistered_elsewhere(name, "histogram",
                                   {{"counter", counters_.contains(name)},
                                    {"gauge", gauges_.contains(name)}});
    it = histograms_
             .emplace(name, std::make_unique<Histogram>(std::move(bounds)))
             .first;
  }
  return *it->second;
}

namespace {

/// "name{a="b"}" -> ("name", "a=\"b\""); no-brace names get empty labels.
std::pair<std::string, std::string> split_labels(const std::string& name) {
  const std::size_t brace = name.find('{');
  if (brace == std::string::npos || name.back() != '}') return {name, ""};
  return {name.substr(0, brace),
          name.substr(brace + 1, name.size() - brace - 2)};
}

/// Sample line with an extra label merged into the name's label set.
std::string with_extra_label(const std::string& name,
                             const std::string& extra) {
  const auto [base, labels] = split_labels(name);
  if (labels.empty()) return base + "{" + extra + "}";
  return base + "{" + labels + "," + extra + "}";
}

std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

std::string MetricsRegistry::prometheus_text() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  std::string last_base;
  const auto type_line = [&](const std::string& name, const char* type) {
    const std::string base = split_labels(name).first;
    if (base != last_base) {
      out += "# TYPE " + base + " " + type + "\n";
      last_base = base;
    }
  };

  for (const auto& [name, c] : counters_) {
    type_line(name, "counter");
    out += name + " " + std::to_string(c->value()) + "\n";
  }
  for (const auto& [name, g] : gauges_) {
    type_line(name, "gauge");
    out += name + " " + format_double(g->value()) + "\n";
  }
  for (const auto& [name, h] : histograms_) {
    type_line(name, "histogram");
    const HistogramSnapshot snap = h->snapshot();
    const auto [base, labels] = split_labels(name);
    std::uint64_t cum = 0;
    for (std::size_t b = 0; b < snap.bounds.size(); ++b) {
      cum += snap.bucket_counts[b];
      out += with_extra_label(base + "_bucket" +
                                  (labels.empty() ? "" : "{" + labels + "}"),
                              "le=\"" + std::to_string(snap.bounds[b]) +
                                  "\"") +
             " " + std::to_string(cum) + "\n";
    }
    out += with_extra_label(
               base + "_bucket" + (labels.empty() ? "" : "{" + labels + "}"),
               "le=\"+Inf\"") +
           " " + std::to_string(snap.count) + "\n";
    out += base + "_sum" + (labels.empty() ? "" : "{" + labels + "}") + " " +
           std::to_string(snap.sum) + "\n";
    out += base + "_count" + (labels.empty() ? "" : "{" + labels + "}") +
           " " + std::to_string(snap.count) + "\n";
  }
  return out;
}

std::string MetricsRegistry::json_snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) out += ",";
    first = false;
    out += "\"" + json_escape(name) + "\":" + std::to_string(c->value());
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) out += ",";
    first = false;
    out += "\"" + json_escape(name) + "\":" + format_double(g->value());
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) out += ",";
    first = false;
    const HistogramSnapshot snap = h->snapshot();
    out += "\"" + json_escape(name) + "\":{\"count\":" +
           std::to_string(snap.count) + ",\"sum\":" +
           std::to_string(snap.sum) + ",\"mean\":" +
           format_double(snap.mean()) + ",\"p50\":" +
           std::to_string(snap.percentile(0.50)) + ",\"p95\":" +
           std::to_string(snap.percentile(0.95)) + ",\"p99\":" +
           std::to_string(snap.percentile(0.99)) + ",\"max\":" +
           std::to_string(snap.max) + "}";
  }
  out += "}}";
  return out;
}

}  // namespace reconf::obs
