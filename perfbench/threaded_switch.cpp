// threaded_switch: the live BSP->ASP switch on real threads.  threaded_train
// runs 4 workers on resnet32_lite (batch 32, 3000 local steps each) with a
// SwitchSchedule of BSP for 200 steps, then ASP, on one PS shard with dense
// pushes and no stragglers: barrier rounds, the drain barrier at the switch,
// and PS lock contention among 4 free-running ASP workers.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench.h"
#include "common/rng.h"
#include "data/synthetic.h"
#include "obs/obs.h"
#include "ps/threaded_runtime.h"

namespace perfbench {

namespace {

constexpr std::size_t kWorkers = 4;
constexpr std::size_t kBatch = 32;
constexpr std::int64_t kSteps = 3000;
constexpr std::int64_t kBspSteps = 200;
constexpr std::int64_t kExpectedUpdates = kBspSteps + kWorkers * (kSteps - kBspSteps);
constexpr double kAccuracyFloor = 0.5;  // chance is 0.1 on 10 classes

struct Inputs {
  ss::DataSplit data;
  ss::Model model;
};

Inputs make_inputs(std::uint64_t seed) {
  const ss::SyntheticSpec spec = ss::SyntheticSpec::cifar10_like();
  Inputs in{ss::make_synthetic(spec), {}};
  ss::Rng rng(seed);
  in.model = ss::make_model(ss::ModelArch::kResNet32Lite, spec.feature_dim, spec.num_classes, rng);
  return in;
}

struct ThreadedRun {
  ss::ThreadedTrainResult result;
  double wall_s = 0.0;
  double to_first_step_s = 0.0;  ///< threaded_train call -> first pre_step_hook
  std::vector<std::vector<Clock::time_point>> stamps;  ///< [worker][local step]
  std::vector<double> accuracy;  ///< test accuracy at each phase-ending drain
  std::int64_t steps_done = 0;   ///< local steps summed over workers

  [[nodiscard]] std::vector<double> step_gaps_us() const {
    std::vector<double> gaps;
    gaps.reserve(kWorkers * static_cast<std::size_t>(kSteps));
    for (const auto& s : stamps)
      for (std::size_t i = 1; i < s.size(); ++i)
        gaps.push_back(micros_between(s[i - 1], s[i]));
    return gaps;
  }
};

ThreadedRun run_once(const Inputs& in, std::uint64_t seed, const char* label) {
  ThreadedRun run;
  run.stamps.assign(kWorkers, std::vector<Clock::time_point>(kSteps));
  ss::Model eval_model = in.model.clone();

  ss::ThreadedTrainConfig cfg;
  cfg.schedule = ss::SwitchSchedule::bsp_to_asp(kBspSteps);
  cfg.num_workers = kWorkers;
  cfg.batch_size = kBatch;
  cfg.steps_per_worker = kSteps;
  cfg.lr = 0.05;
  cfg.momentum = 0.9;
  cfg.seed = seed;
  cfg.num_ps_shards = 1;
  // Each worker writes only its own preallocated row: no lock, no allocation.
  cfg.pre_step_hook = [&run](std::size_t w, std::int64_t step) {
    if (step < kSteps) run.stamps[w][static_cast<std::size_t>(step)] = Clock::now();
  };
  // Runs inside the drain barrier with every worker parked.
  cfg.eval_hook = [&](std::int64_t, double, std::span<const float> params) {
    eval_model.set_params(params);
    run.accuracy.push_back(eval_model.evaluate_accuracy(in.data.test));
  };

  Span span(label);
  const auto t0 = Clock::now();
  run.result = ss::threaded_train(in.model, in.data.train, cfg);
  run.wall_s = seconds_between(t0, Clock::now());
  Clock::time_point first = run.stamps[0][0];
  for (const auto& s : run.stamps) first = std::min(first, s[0]);
  run.to_first_step_s = seconds_between(t0, first);
  for (const auto& ph : run.result.phases) run.steps_done += ph.steps * kWorkers;
  return run;
}

/// Output checks on one run; returns the number of worker steps not done.
std::int64_t check_run(Report& r, const ThreadedRun& run) {
  r.check(run.result.total_updates == kExpectedUpdates,
          "total_updates == " + std::to_string(kExpectedUpdates),
          std::to_string(run.result.total_updates));
  bool finite = !run.result.final_params.empty();
  for (const float v : run.result.final_params) finite = finite && std::isfinite(v);
  r.check(finite, "final parameters are finite");
  const double acc = run.accuracy.empty() ? 0.0 : run.accuracy.back();
  r.check(acc >= kAccuracyFloor, "test accuracy >= " + std::to_string(kAccuracyFloor),
          std::to_string(acc));
  return static_cast<std::int64_t>(kWorkers) * kSteps - run.steps_done;
}

double samples_per_s(const ThreadedRun& run) {
  return static_cast<double>(run.steps_done * static_cast<std::int64_t>(kBatch)) / run.wall_s;
}

double histogram_sum(const std::string& name) {
  for (const auto& h : ss::obs::metrics().snapshot().histograms)
    if (h.name == name) return h.sum;
  return 0.0;
}

}  // namespace

void run_threaded_switch(const Options& opt, Report& report) {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;

  if (opt.trace) {
    const LayerCosts layers = measure_layers({ss::ModelArch::kResNet32Lite, kBatch, 4096}, opt.seed);
    report_layers(report, layers);
    const Inputs in = make_inputs(opt.seed);

    // Untraced runs first, then as many traced ones: once obs is on it stays
    // on (switching it off would disarm the tracer).  The ledger reads the
    // untraced runs.
    std::vector<ThreadedRun> plain;
    std::vector<double> untraced_wall, traced_wall;
    repeat_for(opt.seconds / 3, [&] {
      plain.push_back(run_once(in, opt.seed, "threaded_train untraced"));
      untraced_wall.push_back(plain.back().wall_s);
      attempted += static_cast<std::int64_t>(kWorkers) * kSteps;
      failed += check_run(report, plain.back());
    });
    ss::obs::metrics().reset();
    ss::obs::enable_metrics();
    for (std::size_t i = 0; i < plain.size(); ++i) {
      const ThreadedRun traced = run_once(in, opt.seed, "threaded_train traced");
      traced_wall.push_back(traced.wall_s);
      attempted += static_cast<std::int64_t>(kWorkers) * kSteps;
      failed += check_run(report, traced);
    }
    const double drain_wait_s =
        histogram_sum("ss_threaded_drain_wait_seconds") / static_cast<double>(plain.size());
    report.count(attempted, failed);

    PathLedger p;
    std::vector<double> bsp_ups, asp_ups, staleness;
    double wall = 0.0;
    for (const ThreadedRun& r : plain) {
      p.gradients += static_cast<double>(r.steps_done);
      p.updates += static_cast<double>(r.result.total_updates);
      p.evals += static_cast<double>(r.accuracy.size());
      const auto gaps = r.step_gaps_us();
      p.step_us.insert(p.step_us.end(), gaps.begin(), gaps.end());
      wall += r.wall_s;
      staleness.push_back(r.result.mean_staleness);
      for (const auto& ph : r.result.phases)
        (ph.protocol == ss::Protocol::kBsp ? bsp_ups : asp_ups).push_back(ph.updates_per_sec);
    }
    p.mean_staleness = median(staleness);
    p.thread_seconds = wall * kWorkers;
    p.gradient_s = p.gradients * layers.gradient_us * 1e-6;
    p.eval_s = p.evals * layers.eval_ms * 1e-3;
    // ASP steps pull and push once each; a BSP round pulls and applies once.
    p.ps_s = p.updates * (layers.apply_us + layers.pull_us) * 1e-6;
    p.data_s = p.gradients * layers.batch_us * 1e-6;
    p.overhead_ratio = median(traced_wall) / median(untraced_wall);
    report_path(report, p);

    report.info("threaded.bsp_updates_per_s", median(bsp_ups), "updates/s");
    report.info("threaded.asp_updates_per_s", median(asp_ups), "updates/s");
    report.info("threaded.step_p99_us", percentile(p.step_us, 99.0), "us");
    report.info("threaded.drain_wait_s", drain_wait_s, "s");
    report.info("threaded.wait_share",
                1.0 - (p.gradient_s + p.ps_s) / p.thread_seconds, "fraction");
    report.info("threaded.mean_staleness", p.mean_staleness, "updates");
    return;
  }

  std::vector<double> setup, rate, step_p50, accuracy;
  repeat_for(opt.seconds, [&] {
    const auto t0 = Clock::now();
    const Inputs in = make_inputs(opt.seed);
    const double inputs_s = seconds_between(t0, Clock::now());
    const ThreadedRun run = run_once(in, opt.seed, "threaded_train");
    setup.push_back(inputs_s + run.to_first_step_s);
    rate.push_back(samples_per_s(run));
    step_p50.push_back(percentile(run.step_gaps_us(), 50.0));
    accuracy.push_back(run.accuracy.empty() ? 0.0 : run.accuracy.back());
    attempted += static_cast<std::int64_t>(kWorkers) * kSteps;
    failed += check_run(report, run);
  });
  report.count(attempted, failed);

  report.samples("samples_per_s", rate);
  report.metric("samples_per_s", median(rate), "samples/s");
  report.info("threaded_accuracy", median(accuracy), "fraction");
  report.metric("setup_s", median(setup), "s");
  report.info("threaded_samples_per_s", median(rate), "samples/s");
  report.info("threaded_step_p50_us", median(step_p50), "us");
  report.info("runs", static_cast<double>(rate.size()), "count");
}

}  // namespace perfbench
