// mgfs_bench: runs one benchmark workload at a seed and prints its
// metrics. See NOTES.md for the workloads and what each metric means.
//
//   mgfs_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              [--spans <path>]
//
// The simulated part of a workload is deterministic at a fixed seed, so
// one run repeats it until --seconds of host time are used up and
// reports the median episode time and the fastest of many timed
// set-ups. Every repetition must reproduce the
// same simulated metrics; a difference is a failed check. With
// --trace 1 untraced and traced repetitions alternate: the traced ones
// give the per-layer metrics, their simulated metrics must equal the
// untraced ones exactly, and the host-time difference is the tracing
// overhead. The last line of standard output is one JSON object with
// the keys correct, attempted, failed and metrics.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "workloads.hpp"

using namespace mgfs;
using namespace mgfs::perfbench;

namespace {

// Reps stop being started once this much host time has gone, whatever
// --seconds says, so a run always ends well inside its time limit.
constexpr double kMaxRunSeconds = 150.0;
// Fewest reps a run makes: untraced runs take the median of at least
// three; traced runs alternate at least two of each kind.
constexpr std::size_t kMinReps = 3;
constexpr std::size_t kMinTracedReps = 2;
// setup_s: an episode's set-up lasts milliseconds, and on a shared
// machine other tenants slow the CPU down by up to 2x for stretches of
// seconds to minutes. So the run times a burst of kSetupBurst
// back-to-back set-ups before its first rep and after every episode,
// spreading them over the whole run, and reports the fastest: noise
// only ever slows a build down, and the median of these samples moves
// with the machine's load from run to run.
constexpr int kSetupBurst = 5;

/// End-to-end metrics of the result line, in BENCHMARK.json order.
/// `wall_s` is in the report line only: on a shared VM its spread over
/// consecutive runs reaches the largest bound a metric may carry.
const std::vector<std::string> kEndToEnd{"setup_s", "peak_rss_mb",
                                         "write_MBps", "read_MBps",
                                         "io_p99_ms"};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

/// FNV-1a over every simulated metric (full precision) and sim.events:
/// two runs with the same digest simulated the same thing.
std::string sim_digest(const RepResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto feed = [&](const std::string& s) {
    for (unsigned char c : s) {
      h ^= c;
      h *= 0x100000001b3ULL;
    }
  };
  for (const Metric& m : r.sim.items()) feed(m.name + "=" + num(m.value) + "\n");
  feed("sim.events=" + std::to_string(r.sim_events) + "\n");
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

/// Compare the simulated outcome of two reps; returns the first
/// difference, or "" when they match exactly.
std::string sim_difference(const RepResult& a, const RepResult& b) {
  if (a.sim_events != b.sim_events) return "sim.events";
  if (a.sim.items().size() != b.sim.items().size()) return "sim metric set";
  for (std::size_t i = 0; i < a.sim.items().size(); ++i) {
    const Metric& x = a.sim.items()[i];
    const Metric& y = b.sim.items()[i];
    if (x.name != y.name || x.value != y.value) return x.name;
  }
  // Layer metrics present in both (the traced rep has device metrics
  // an untraced one cannot have).
  for (const Metric& x : a.layer.items()) {
    const Metric* y = b.layer.find(x.name);
    if (y != nullptr && y->value != x.value) return x.name;
  }
  if (a.attempted != b.attempted || a.failed != b.failed) return "call counts";
  return "";
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream os(path);
  if (!os) {
    std::cerr << "cannot write spans to " << path << "\n";
    return;
  }
  os << "id\tparent\tname\tstart_s\tend_s\n";
  for (const Span& s : spans) {
    os << s.id << '\t' << s.parent << '\t' << s.name << '\t' << num(s.start)
       << '\t' << num(s.end) << '\n';
  }
}

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --workload <name> --seed <n> --seconds <s> --trace <0|1>"
               " [--spans <path>]\nworkloads:";
  for (const std::string& w : workload_names()) std::cerr << ' ' << w;
  std::cerr << '\n';
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, spans_path;
  std::uint64_t seed = 0;
  double seconds = -1;
  int trace = -1;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      workload = v;
    } else if (k == "--seed") {
      seed = std::strtoull(v, &end, 10);
      have_seed = end != v && *end == '\0';
    } else if (k == "--seconds") {
      seconds = std::strtod(v, &end);
      if (end == v || *end != '\0') seconds = -1;
    } else if (k == "--trace") {
      trace = std::strcmp(v, "0") == 0 ? 0 : std::strcmp(v, "1") == 0 ? 1 : -1;
    } else if (k == "--spans") {
      spans_path = v;
    } else {
      return usage(argv[0]);
    }
  }
  bool known = false;
  for (const std::string& w : workload_names()) known |= w == workload;
  if (argc % 2 == 0 || !known || !have_seed || !(seconds > 0) || trace < 0) {
    return usage(argv[0]);
  }

  // Alternate plain and traced reps (traced only with --trace 1) until
  // the time is used up.
  const auto t_start = std::chrono::steady_clock::now();
  auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t_start)
        .count();
  };
  std::vector<RepResult> plain, traced;
  std::vector<double> setup;
  std::vector<std::string> failed_checks;
  auto time_setup = [&] {
    for (int i = 0; i < kSetupBurst; ++i) {
      setup.push_back(setup_seconds(workload, seed));
    }
  };
  time_setup();
  for (;;) {
    const bool tr = trace == 1 && traced.size() < plain.size();
    // Every rep replays the first one (checked below), so the slow
    // output checks run once.
    RepResult r = run_workload(workload, seed, tr, plain.empty(), time_setup);
    if (plain.empty()) {
      failed_checks = r.failed_checks;
    } else {
      const std::string diff = sim_difference(plain.front(), r);
      if (!diff.empty()) {
        failed_checks.push_back(
            std::string(tr ? "traced rep differs from the untraced run in "
                           : "rep is not deterministic in ") +
            diff);
      }
    }
    (tr ? traced : plain).push_back(std::move(r));
    time_setup();
    const std::size_t reps = plain.size() + traced.size();
    const double t = elapsed();
    const bool enough =
        trace == 0 ? plain.size() >= kMinReps
                   : std::min(plain.size(), traced.size()) >= kMinTracedReps;
    const bool have_all = trace == 0 || !traced.empty();
    if ((enough && t + t / static_cast<double>(reps) > seconds) ||
        (have_all && t > kMaxRunSeconds)) {
      break;
    }
  }

  // Timed phases are medians over every episode timed: an episode is
  // one instance of the workload, and the many samples keep the medians
  // steady on a noisy machine. setup_s is the fastest set-up (see
  // kSetupBurst).
  const RepResult& first = plain.front();
  std::vector<double> wall, twall, rep_wall;
  for (const RepResult& r : plain) {
    wall.insert(wall.end(), r.wall_s.begin(), r.wall_s.end());
    double sum = 0;
    for (double s : r.wall_s) sum += s;
    rep_wall.push_back(sum);
  }
  for (const RepResult& r : traced) {
    twall.insert(twall.end(), r.wall_s.begin(), r.wall_s.end());
  }
  const double wall_s = median(wall);
  const double setup_s = *std::min_element(setup.begin(), setup.end());
  const double rss = peak_rss_mb();

  // Report line: every metric of the workload, with sample counts, the
  // checks that failed and the sim digest.
  const std::uint64_t failed = first.failed + failed_checks.size();
  std::ostringstream rep;
  rep << "{\"workload\": " << quoted(workload) << ", \"seed\": " << seed
      << ", \"plain_reps\": " << plain.size()
      << ", \"traced_reps\": " << traced.size()
      << ", \"sim_digest\": " << quoted(sim_digest(first))
      << ", \"sim_events\": " << first.sim_events
      << ", \"failed_op_share\": "
      << num(static_cast<double>(failed) /
             static_cast<double>(std::max<std::uint64_t>(first.attempted, 1)))
      << ", \"host\": {\"setup_s\": " << num(setup_s)
      << ", \"setup_samples\": " << setup.size()
      << ", \"wall_s\": " << num(wall_s) << ", \"peak_rss_mb\": " << num(rss)
      << ", \"rep_wall_s\": [";
  for (std::size_t i = 0; i < rep_wall.size(); ++i) {
    rep << (i ? ", " : "") << num(rep_wall[i]);
  }
  rep << "]}, \"sim\": {";
  for (std::size_t i = 0; i < first.sim.items().size(); ++i) {
    const Metric& m = first.sim.items()[i];
    rep << (i ? ", " : "") << quoted(m.name) << ": {\"value\": " << num(m.value)
        << ", \"unit\": " << quoted(m.unit) << "}";
  }
  rep << "}";
  if (workload == "mpiio_shared") {
    // Model error against the paper's Fig. 11 at 64 nodes (a record,
    // not a gated metric).
    rep << ", \"paper_fig11_64_nodes\": {\"read_MBps\": 5900, \"write_MBps\": "
           "3500, \"read_error\": "
        << num(first.sim.find("read_MBps")->value / 5900.0 - 1.0)
        << ", \"write_error\": "
        << num(first.sim.find("write_MBps")->value / 3500.0 - 1.0) << "}";
  }
  rep << ", \"failed_checks\": [";
  for (std::size_t i = 0; i < failed_checks.size(); ++i) {
    rep << (i ? ", " : "") << quoted(failed_checks[i]);
  }
  rep << "]}";
  std::cout << rep.str() << "\n";

  // Result line.
  std::ostringstream res;
  res << "{\"correct\": " << (failed_checks.empty() ? "true" : "false")
      << ", \"attempted\": " << first.attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  bool sep = false;
  auto put = [&](const std::string& name, double value, const std::string& unit) {
    res << (sep ? ", " : "") << quoted(name) << ": {\"value\": " << num(value)
        << ", \"unit\": " << quoted(unit) << "}";
    sep = true;
  };
  if (trace == 0) {
    for (const std::string& name : kEndToEnd) {
      if (name == "setup_s") {
        put(name, setup_s, "s");
      } else if (name == "peak_rss_mb") {
        put(name, rss, "MB");
      } else {
        const Metric* m = first.sim.find(name);
        put(name, m ? m->value : 0.0, m ? m->unit : "");
      }
    }
  } else {
    const RepResult& t = traced.front();
    for (const Metric& m : t.layer.items()) put(m.name, m.value, m.unit);
    put("sim.host_ns_per_event",
        median(rep_wall) * 1e9 /
            static_cast<double>(std::max<std::uint64_t>(first.sim_events, 1)),
        "ns");
    put("host.trace_overhead_s", median(twall) - wall_s, "s");
    if (!spans_path.empty()) write_spans(spans_path, traced.back().spans);
  }
  res << "}}";
  std::cout << res.str() << std::endl;
  return failed_checks.empty() ? 0 : 1;
}
