// Statistics, seeding, the metric list and the span log.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>

#include "bench.hpp"

namespace e2e {

double now_s() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double>(Clock::now() - epoch).count();
}

namespace {

/// 1-based nearest rank of percentile p in n samples; the epsilon keeps
/// p * n / 100 from rounding up past an exact integer (99.9% of 10000).
double nearest_rank(std::size_t n, double p) {
  return std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
}

}  // namespace

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = nearest_rank(values.size(), p);
  const std::size_t idx =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(idx, values.size() - 1)];
}

double median(std::vector<double> values) { return percentile(values, 50.0); }

std::size_t samples_beyond(std::size_t n, double p) {
  const double rank = nearest_rank(n, p);
  const auto at = static_cast<std::size_t>(std::max(rank, 1.0));
  return n > at ? n - at : 0;
}

double tail_percentile(std::size_t n) {
  double best = 0.0;
  for (const double p : {50.0, 90.0, 99.0, 99.9}) {
    if (samples_beyond(n, p) >= 10) best = p;
  }
  return best;
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

std::vector<std::size_t> seeded_order(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::uint64_t state = seed;
  for (std::size_t i = n; i > 1; --i) {
    state = splitmix64(state);
    std::swap(order[i - 1], order[state % i]);
  }
  return order;
}

void MetricSet::set(const std::string& name, double value,
                    const std::string& unit) {
  for (auto& m : items_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  items_.push_back({name, value, unit});
}

const char* layer_name(Layer l) {
  switch (l) {
    case Layer::kRoot: return "other";
    case Layer::kDwarfs: return "dwarfs";
    case Layer::kMemsim: return "memsim";
    case Layer::kReplay: return "replay";
    case Layer::kObs: return "obs";
    case Layer::kPlacement: return "placement";
    case Layer::kCli: return "cli";
    case Layer::kServe: return "serve";
  }
  return "?";
}

int SpanLog::open(Layer layer, std::string key) {
  const int parent = open_.empty() ? -1 : open_.back();
  const double t = now_s();
  spans_.push_back({layer, std::move(key), parent, t, t});
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void SpanLog::close(int index) {
  if (open_.empty() || open_.back() != index) {
    throw std::logic_error("span log: spans must close innermost first");
  }
  spans_[static_cast<std::size_t>(index)].t1 = now_s();
  open_.pop_back();
}

int SpanLog::add(int parent, Layer layer, std::string key, double t0,
                 double t1) {
  spans_.push_back({layer, std::move(key), parent, t0, t1});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::reassign(int index, Layer to, double seconds) {
  moves_.push_back({index, to, seconds});
}

double SpanLog::total(Layer layer, std::string_view key) const {
  double sum = 0.0;
  for (const auto& s : spans_) {
    if (s.layer == layer && s.key.compare(0, key.size(), key) == 0) {
      sum += s.duration();
    }
  }
  return sum;
}

std::size_t SpanLog::count(Layer layer, std::string_view key) const {
  std::size_t n = 0;
  for (const auto& s : spans_) {
    if (s.layer == layer && s.key.compare(0, key.size(), key) == 0) ++n;
  }
  return n;
}

std::map<Layer, double> SpanLog::layer_self() const {
  // Only the root span's subtree is traced wall time; spans recorded
  // outside it still feed the per-layer detail metrics.  A parent always
  // precedes its children in the log.
  std::vector<bool> traced(spans_.size());
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const int parent = spans_[i].parent;
    traced[i] = spans_[i].layer == Layer::kRoot ||
                (parent >= 0 && traced[static_cast<std::size_t>(parent)]);
    self[i] += spans_[i].duration();
    if (parent >= 0) {
      self[static_cast<std::size_t>(parent)] -= spans_[i].duration();
    }
  }
  std::map<Layer, double> out;
  for (const Layer l : kLayers) out[l] = 0.0;
  out[Layer::kRoot] = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (traced[i]) out[spans_[i].layer] += self[i];
  }
  for (const Move& m : moves_) {
    const auto i = static_cast<std::size_t>(m.index);
    if (!traced[i]) continue;
    out[spans_[i].layer] -= m.seconds;
    out[m.to] += m.seconds;
  }
  return out;
}

double SpanLog::wall() const {
  double wall = 0.0;
  for (const auto& s : spans_) {
    if (s.layer == Layer::kRoot) wall += s.duration();
  }
  return wall;
}

}  // namespace e2e
