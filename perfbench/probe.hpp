// Instrumentation the benchmark attaches from outside the simulator.
//
// Everything here observes the system only at the benchmark's own call
// and completion points: a Client call is timed from issue to its
// completion callback, a device I/O from the NSD server's io() call to
// its completion. Nothing schedules a simulator event, so a traced run
// replays exactly the event sequence of an untraced one.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/simulator.hpp"
#include "storage/array.hpp"
#include "storage/block_device.hpp"

namespace mgfs::perfbench {

/// Exact quantile of `v` (sorted in place): the lowest sample with at
/// least q of the samples at or below it. 0 for an empty set.
inline double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  std::size_t k = static_cast<std::size_t>(q * static_cast<double>(v.size()));
  if (k >= v.size()) k = v.size() - 1;
  return v[k];
}

/// Median of `v` (mean of the middle two for an even count); 0 for an
/// empty set.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// One named metric with its unit, in the order a workload reports it.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

class MetricList {
 public:
  void add(std::string name, double value, std::string unit) {
    items_.push_back({std::move(name), value, std::move(unit)});
  }
  const std::vector<Metric>& items() const { return items_; }
  const Metric* find(const std::string& name) const {
    for (const Metric& m : items_) {
      if (m.name == name) return &m;
    }
    return nullptr;
  }

 private:
  std::vector<Metric> items_;
};

/// A sim-time interval: the span of one call into a layer, or of one
/// application-level operation (query, small-file cycle) that parents
/// the Client calls it makes. Ids start at 1; parent 0 means none.
struct Span {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  double start = 0;
  double end = 0;
};

enum class Op { open, read, write, fsync, close, count };
inline constexpr std::array<const char*, static_cast<std::size_t>(Op::count)>
    kOpNames{"open", "read", "write", "fsync", "close"};

/// Times every Client call the workloads make, counts calls
/// attempted and errors returned to the application, and (when tracing)
/// keeps one span per call in memory.
class Recorder {
 public:
  Recorder(sim::Simulator& sim, bool tracing) : sim_(sim), tracing_(tracing) {}
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  bool tracing() const { return tracing_; }
  double now() const { return sim_.now(); }
  /// Schedule workload logic (a paced writer's next tick, a retry).
  template <typename F>
  void after(double delay, F f) {
    sim_.after(delay, std::move(f));
  }

  /// Allocate a span id for an application-level operation.
  std::uint64_t new_span() { return ++next_id_; }
  void span(const char* name, std::uint64_t id, std::uint64_t parent,
            double start) {
    if (tracing_) spans_.push_back({name, id, parent, start, sim_.now()});
  }

  /// Issue one Client call through `issue(k)`, where `k` is the
  /// completion the call must receive; `done` then gets the result.
  template <typename Issue, typename Done>
  void call(Op op, std::uint64_t parent, Issue issue, Done done) {
    const double t0 = sim_.now();
    const std::uint64_t id = ++next_id_;
    ++attempted_;
    issue([this, op, t0, id, parent, done = std::move(done)](auto r) mutable {
      finish(op, t0, id, parent, r.ok());
      done(std::move(r));
    });
  }

  /// Forget the samples and spans taken so far (setup traffic) — the
  /// timed phase starts now.
  void start_window() {
    for (auto& v : ms_) v.clear();
    spans_.clear();
    attempted_ = 0;
    failed_ = 0;
  }

  std::vector<double>& latencies_ms(Op op) {
    return ms_[static_cast<std::size_t>(op)];
  }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  std::vector<Span>& spans() { return spans_; }

 private:
  void finish(Op op, double t0, std::uint64_t id, std::uint64_t parent,
              bool ok) {
    const double t1 = sim_.now();
    ms_[static_cast<std::size_t>(op)].push_back((t1 - t0) * 1e3);
    if (!ok) ++failed_;
    if (tracing_) {
      spans_.push_back(
          {kOpNames[static_cast<std::size_t>(op)], id, parent, t0, t1});
    }
  }

  sim::Simulator& sim_;
  bool tracing_;
  std::uint64_t next_id_ = 0;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::array<std::vector<double>, static_cast<std::size_t>(Op::count)> ms_;
  std::vector<Span> spans_;
};

/// BlockDevice decorator (the FlakyDevice pattern) that times each I/O
/// the NSD server hands to the device and tracks how long the device
/// had at least one I/O outstanding. Installed only in traced runs; it
/// forwards synchronously and adds no simulator event.
class TracedDevice final : public storage::BlockDevice {
 public:
  /// `lun` (may be null) exposes the RAID members behind the device so
  /// spindle traffic can be compared with the bytes asked of the LUN.
  TracedDevice(sim::Simulator& sim, storage::BlockDevice& inner,
               storage::Lun* lun, Recorder& rec)
      : sim_(sim), inner_(inner), lun_(lun), rec_(rec) {}

  void io(Bytes offset, Bytes len, bool write,
          storage::IoCallback done) override {
    const double t0 = sim_.now();
    if (outstanding_++ == 0) busy_since_ = t0;
    ++ios_;
    bytes_ += len;
    inner_.io(offset, len, write,
              [this, t0, write, done = std::move(done)](const Status& st) {
                const double t1 = sim_.now();
                ms_.push_back((t1 - t0) * 1e3);
                if (--outstanding_ == 0) busy_ += t1 - busy_since_;
                rec_.span(write ? "device.write" : "device.read",
                          rec_.new_span(), 0, t0);
                done(st);
              });
  }
  Bytes capacity() const override { return inner_.capacity(); }

  /// Seconds the device has had I/O outstanding, up to `now`.
  double busy_seconds() const {
    return busy_ + (outstanding_ > 0 ? sim_.now() - busy_since_ : 0.0);
  }
  /// Bytes moved by the spindles behind the device (the device's own
  /// bytes when it has no RAID members).
  Bytes spindle_bytes() const {
    if (lun_ == nullptr) return bytes_;
    Bytes b = 0;
    for (std::size_t i = 0; i < lun_->raid().member_count(); ++i) {
      b += lun_->raid().member(i).bytes_transferred();
    }
    return b;
  }
  void start_window() {
    ms_.clear();
    ios_ = 0;
    bytes_ = 0;
    busy_at_window_ = busy_seconds();
    spindle_at_window_ = spindle_bytes();
  }
  std::uint64_t ios() const { return ios_; }
  Bytes bytes() const { return bytes_; }
  double window_busy_seconds() const { return busy_seconds() - busy_at_window_; }
  Bytes window_spindle_bytes() const {
    return spindle_bytes() - spindle_at_window_;
  }
  const std::vector<double>& latencies_ms() const { return ms_; }

 private:
  sim::Simulator& sim_;
  storage::BlockDevice& inner_;
  storage::Lun* lun_;
  Recorder& rec_;
  std::uint64_t outstanding_ = 0;
  double busy_since_ = 0;
  double busy_ = 0;
  double busy_at_window_ = 0;
  Bytes spindle_at_window_ = 0;
  std::uint64_t ios_ = 0;
  Bytes bytes_ = 0;
  std::vector<double> ms_;
};

}  // namespace mgfs::perfbench
