// Ring-buffered time series with Prometheus text exposition and JSON
// export (schema "optsync-timeseries/1").
//
// A Series is one metric stream: a name, a fixed label set, and a bounded
// deque of (timestamp, value) samples — the oldest samples fall off when
// the ring fills, with a drop counter so exports can say so. A SeriesSet
// owns many series and renders them two ways:
//
//   * write_prometheus(): the text exposition format (a "# HELP" and
//     "# TYPE" line per metric name, then `name{labels} value` with the
//     LAST sample) — what a scrape endpoint would serve. Metric and label
//     names are sanitized to the exposition grammar on output
//     ([a-zA-Z_:][a-zA-Z0-9_:]* for metrics, [a-zA-Z_][a-zA-Z0-9_]* for
//     labels), so a series registered with a free-form name still renders
//     promtool-parseable;
//   * write_json(): the full retained history of every series, for
//     offline plotting ({"schema":"optsync-timeseries/1", ...}).
//
// The set is substrate-agnostic: the sim-clock Sampler and the wall-clock
// RtSampler both feed it, through the same Probe type.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "simkern/time.hpp"

namespace optsync::telemetry {

/// Label set of one series ({{"shard","3"}} and the like). Order matters
/// for identity; keep call sites consistent.
using Labels = std::vector<std::pair<std::string, std::string>>;

struct Sample {
  sim::Time t = 0;  ///< nanoseconds (sim clock, or ns since rt start)
  double v = 0.0;
};

struct Series {
  std::string name;
  Labels labels;
  std::deque<Sample> samples;
  std::uint64_t dropped = 0;  ///< samples evicted by the ring bound

  [[nodiscard]] double last() const {
    return samples.empty() ? 0.0 : samples.back().v;
  }
};

class SeriesSet {
 public:
  /// `capacity` bounds retained samples PER series.
  explicit SeriesSet(std::size_t capacity = 8192);

  /// Finds or creates the series with this identity; returns its index
  /// (stable for the set's lifetime).
  std::size_t series(std::string name, Labels labels);

  void append(std::size_t idx, sim::Time t, double v);

  [[nodiscard]] std::size_t size() const { return all_.size(); }
  [[nodiscard]] const Series& at(std::size_t idx) const { return all_[idx]; }
  /// First series matching (name, labels), or nullptr.
  [[nodiscard]] const Series* find(std::string_view name,
                                   const Labels& labels) const;

  /// Attaches a HELP string to a metric name (rendered as the family's
  /// "# HELP" line; metrics without one get a generic default so every
  /// family still carries the full preamble).
  void set_help(const std::string& name, std::string help);
  /// The registered HELP string, or nullptr.
  [[nodiscard]] const std::string* help_of(const std::string& name) const;

  /// Maps a free-form name onto the exposition grammar: every character
  /// outside [a-zA-Z0-9_:] (metrics) / [a-zA-Z0-9_] (labels) becomes '_',
  /// and a leading digit gains a '_' prefix.
  [[nodiscard]] static std::string sanitize_metric_name(std::string_view raw);
  [[nodiscard]] static std::string sanitize_label_name(std::string_view raw);

  /// Prometheus text exposition of every series' latest value.
  void write_prometheus(std::ostream& out) const;

  /// Full JSON history: {"schema":"optsync-timeseries/1",
  /// "interval_ns":N, "series":[{name, labels, dropped,
  /// "samples":[[t_ns, v], ...]}, ...]}.
  void write_json(std::ostream& out, sim::Duration interval_ns) const;

 private:
  std::size_t capacity_;
  std::vector<Series> all_;
  /// HELP strings keyed by RAW metric name (sanitized on output).
  std::vector<std::pair<std::string, std::string>> help_;
};

/// One registered sampler probe. A gauge's callback IS the sample (backlog
/// depth, queue length); a rate's callback is a monotone counter and the
/// sample is its per-second increase since the previous sample
/// (retransmits/s, goodput). A rate's first sample primes the counter and
/// records 0, and so does a zero-length interval (never a division by
/// zero).
struct Probe {
  std::size_t idx = 0;  ///< series index in the SeriesSet
  std::function<double()> fn;
  bool rate = false;
  bool primed = false;
  double prev = 0.0;
  sim::Time prev_t = 0;

  /// Reads the callback and appends the sample at time `now` to `set`.
  void sample(SeriesSet& set, sim::Time now);
};

}  // namespace optsync::telemetry
