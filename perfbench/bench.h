// Shared plumbing for the three-path benchmark: options, the result report,
// benchmark-side spans, and the layer replays every traced run performs.
//
// The benchmark drives only the system's public entry points and times
// those calls from here; nothing under src/ is instrumented for it.  Each
// workload runs in its own process so that peak RSS belongs to one workload.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "nn/zoo.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

[[nodiscard]] inline double micros_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Every workload trains on setup 1's dataset (SyntheticSpec::cifar10_like,
/// as bench/setups.cpp defines it); the benchmark seed is the run's
/// repetition seed: initialization, batch order and simulated timing.
/// Run `rep` repeatedly for about `seconds`: at least once, and never
/// starting a repetition that, at the last one's duration, would end past
/// the budget.
template <typename Fn>
void repeat_for(double seconds, Fn&& rep) {
  const auto start = Clock::now();
  double last = 0.0;
  do {
    const auto t0 = Clock::now();
    rep();
    last = seconds_between(t0, Clock::now());
  } while (seconds_between(start, Clock::now()) + last <= seconds);
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  std::string work_dir = ".";  ///< where socket files may be created
};

/// Median / linear-interpolated percentile of a sample (copies and sorts).
[[nodiscard]] double median(std::vector<double> xs);
[[nodiscard]] double percentile(std::vector<double> xs, double p);

/// Collects metrics and output checks, prints them as human-readable lines,
/// and ends the run with the one JSON result line.
class Report {
 public:
  /// A metric that goes into the JSON result (end-to-end or per-layer).
  void metric(const std::string& name, double value, const std::string& unit);
  /// A metric printed for people only: the per-path name of a number
  /// that is workload-specific, or a diagnostic.
  void info(const std::string& name, double value, const std::string& unit);
  /// The per-repetition values behind a median, printed for people.
  void samples(const std::string& name, const std::vector<double>& values);
  /// Output check; a false `ok` fails the run.  Checks repeat once per
  /// repetition: a failure prints at once with `detail`, and each check's
  /// tally prints with the result.
  void check(bool ok, const std::string& what, const std::string& detail = "");
  /// A claim of the paper checked on this run's outputs: printed once with
  /// its outcome, never failing the run.
  void science(bool holds, const std::string& what);
  void count(std::int64_t attempted, std::int64_t failed);

  [[nodiscard]] bool correct() const { return correct_; }
  void print_result() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  std::vector<std::pair<std::string, std::pair<int, int>>> checks_;  ///< what -> (ok, failed)
  std::vector<std::string> science_;
  bool correct_ = true;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

/// Benchmark-side span on the benchmark's own trace track.  Recorded only
/// while the global tracer is armed (traced runs), so untraced runs pay one
/// relaxed load per span.
class Span {
 public:
  explicit Span(std::string name, int track = kBenchTrack);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  static constexpr int kBenchTrack = 1000;

 private:
  std::string name_;
  int track_;
  Clock::time_point start_;
};

/// Record a closed span from saved time points (used after hot loops, so
/// the loop itself does no tracing work).
void record_span(int track, const std::string& name, Clock::time_point start,
                 Clock::time_point end);

/// Per-call costs of the layers under a workload, replayed outside the
/// workload at its shapes: its model and batch, its dataset, its parameter
/// count.  Times are medians over repeated batches of calls.
struct LayerCosts {
  double matmul_us = 0.0;     ///< all ops::matmul calls of one gradient_at
  double matmul_nt_us = 0.0;  ///< all ops::matmul_nt calls of one gradient_at
  double matmul_tn_us = 0.0;  ///< all ops::matmul_tn calls of one gradient_at
  double gflops = 0.0;        ///< flops of the three families / their time
  double gradient_us = 0.0;   ///< Model::gradient_at
  double eval_ms = 0.0;       ///< Model::evaluate_accuracy on the eval set
  double make_synthetic_s = 0.0;
  double batch_us = 0.0;      ///< MinibatchSampler::next_batch + Dataset::gather
  double apply_us = 0.0;      ///< ParameterServer apply
  double pull_us = 0.0;       ///< ParameterServer pull
  double push_contended_us = 0.0;  ///< SharedParameterServer::push, 4 threads at once
  double frame_encode_us = 0.0;    ///< PushDense frame build + encode_frame
  double frame_decode_us = 0.0;    ///< decode_frame + PushDenseMsg::decode
};

struct LayerShape {
  ss::ModelArch arch = ss::ModelArch::kResNet32Lite;
  std::size_t batch = 32;
  std::size_t eval_rows = 0;  ///< rows of the test split the workload evaluates on
};

[[nodiscard]] LayerCosts measure_layers(const LayerShape& shape, std::uint64_t seed);

/// Emit every per-layer replay metric.
void report_layers(Report& report, const LayerCosts& c);

/// The per-path numbers every traced run reports, whatever the workload:
/// counts of the path's unit operations, its step-interval distribution,
/// and the time ledger (count x per-call cost as a share of wall time).
struct PathLedger {
  double gradients = 0.0;
  double updates = 0.0;
  double evals = 0.0;
  double mean_staleness = 0.0;
  std::vector<double> step_us;  ///< intervals between consecutive steps
  double thread_seconds = 0.0;  ///< wall time x threads the shares divide
  double gradient_s = 0.0;
  double eval_s = 0.0;
  double ps_s = 0.0;
  double data_s = 0.0;
  double overhead_ratio = 0.0;  ///< traced wall / untraced wall
};

void report_path(Report& report, const PathLedger& p);

void run_sim_grid(const Options& opt, Report& report);
void run_threaded_switch(const Options& opt, Report& report);
void run_wire_asp(const Options& opt, Report& report);

}  // namespace perfbench
