// Entry point of the three-path benchmark binary.
//
//   perfbench --workload sim_grid|threaded_switch|wire_asp --seed N
//             --seconds S --trace 0|1 [--trace-out FILE] [--work-dir DIR]
//
// Prints human-readable metric lines, then one JSON result line.  Exits 1
// when an output check fails, 2 on bad arguments or an unexpected error.
// perfbench/run.py builds this binary and is the command users run.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>

#include "bench.h"
#include "common/json.h"
#include "obs/obs.h"

namespace perfbench {

double median(std::vector<double> xs) { return percentile(std::move(xs), 50.0); }

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = p / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

void Report::metric(const std::string& name, double value, const std::string& unit) {
  metrics_.push_back({name, value, unit});
  info(name, value, unit);
}

void Report::info(const std::string& name, double value, const std::string& unit) {
  std::printf("  %-32s %16.6f %s\n", name.c_str(), value, unit.c_str());
}

void Report::samples(const std::string& name, const std::vector<double>& values) {
  std::printf("  %s per repetition:", name.c_str());
  for (const double v : values) std::printf(" %.6g", v);
  std::printf("\n");
}

void Report::check(bool ok, const std::string& what, const std::string& detail) {
  if (!ok) std::printf("  check FAILED %s: %s\n", what.c_str(), detail.c_str());
  auto it = std::find_if(checks_.begin(), checks_.end(),
                         [&](const auto& c) { return c.first == what; });
  if (it == checks_.end()) it = checks_.insert(checks_.end(), {what, {0, 0}});
  ++(ok ? it->second.first : it->second.second);
  correct_ = correct_ && ok;
}

void Report::science(bool holds, const std::string& what) {
  if (std::find(science_.begin(), science_.end(), what) != science_.end()) return;
  science_.push_back(what);
  std::printf("  science %-4s %s\n", holds ? "yes" : "NO", what.c_str());
}

void Report::count(std::int64_t attempted, std::int64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Report::print_result() const {
  for (const auto& [what, tally] : checks_)
    std::printf("  check %-6s %s (%d passed, %d failed)\n", tally.second ? "FAILED" : "ok",
                what.c_str(), tally.first, tally.second);
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (correct_ ? "true" : "false") << ", \"attempted\": " << attempted_
     << ", \"failed\": " << failed_ << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Entry& m = metrics_[i];
    os << (i ? ", " : "") << '"' << ss::json_escape(m.name) << "\": {\"value\": "
       << (std::isfinite(m.value) ? m.value : 0.0) << ", \"unit\": \""
       << ss::json_escape(m.unit) << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

Span::Span(std::string name, int track)
    : name_(std::move(name)), track_(track), start_(Clock::now()) {}

Span::~Span() { record_span(track_, name_, start_, Clock::now()); }

void record_span(int track, const std::string& name, Clock::time_point start,
                 Clock::time_point end) {
  auto& tr = ss::obs::tracer();
  if (!tr.enabled()) return;
  tr.complete(track, name, tr.to_us(start), tr.to_us(end) - tr.to_us(start));
}

namespace {

/// Machine-wide (steal, total) CPU ticks from /proc/stat; zeros if absent.
std::pair<double, double> cpu_ticks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double total = 0.0, steal = 0.0, v = 0.0;
  stat >> cpu;
  for (int field = 0; field < 10 && stat >> v; ++field) {
    total += v;
    if (field == 7) steal = v;
  }
  return {steal, total};
}

/// Peak resident set size of this process so far, in MiB (VmHWM).
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload sim_grid|threaded_switch|wire_asp "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE] [--work-dir DIR]\n",
               why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        opt.workload = value;
      } else if (flag == "--seed") {
        opt.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        opt.trace = value == "1";
      } else if (flag == "--trace-out") {
        opt.trace_out = value;
      } else if (flag == "--work-dir") {
        opt.work_dir = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (opt.workload.empty()) usage("--workload is required");
  if (!(opt.seconds > 0.0)) usage("--seconds must be > 0");
  return opt;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options opt = parse(argc, argv);
  Report report;
  try {
    // Traced runs arm the tracer up front, master switch still off: the
    // benchmark's own spans record from here on while the system stays
    // uninstrumented until a workload flips obs on for its traced pass.
    // The cap bounds the trace file; a capped trace records its drop count.
    if (opt.trace) ss::obs::tracer().enable(1 << 19);
    ss::obs::tracer().set_track_name(Span::kBenchTrack, "bench");
    std::printf("workload %s  seed %llu  seconds %.0f  trace %d\n", opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace ? 1 : 0);
    const auto ticks0 = cpu_ticks();
    if (opt.workload == "sim_grid") {
      run_sim_grid(opt, report);
    } else if (opt.workload == "threaded_switch") {
      run_threaded_switch(opt, report);
    } else if (opt.workload == "wire_asp") {
      run_wire_asp(opt, report);
    } else {
      usage("unknown workload " + opt.workload);
    }
    if (!opt.trace) report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    // Diagnostic, not a metric: CPU time the hypervisor gave to other guests
    // during the run, machine-wide.  High values explain slow runs.
    const auto ticks1 = cpu_ticks();
    if (ticks1.second > ticks0.second)
      report.info("host.steal_share",
                  (ticks1.first - ticks0.first) / (ticks1.second - ticks0.second), "fraction");
    if (opt.trace) {
      ss::obs::disable_all();
      if (!opt.trace_out.empty()) ss::obs::tracer().save_chrome_trace(opt.trace_out);
      std::printf("  trace: %zu events (%zu dropped) -> %s\n", ss::obs::tracer().recorded(),
                  ss::obs::tracer().dropped(),
                  opt.trace_out.empty() ? "(not saved)" : opt.trace_out.c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  std::fflush(stdout);
  report.print_result();
  return report.correct() ? 0 : 1;
}
