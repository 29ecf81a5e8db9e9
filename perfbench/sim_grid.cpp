// sim_grid: the paper's science path.  Four setup-1 runs (BSP, ASP, the
// Sync-Switch hybrid at 6.25%, and the hybrid at 25% with the greedy online
// policy under the moderate straggler scenario of Fig. 15) through
// SweepRunner with one job per entry and no run cache, so every entry
// really trains.
#include <cstdio>
#include <string>
#include <vector>

#include "bench.h"
#include "common/rng.h"
#include "data/synthetic.h"
#include "core/sweep.h"
#include "nn/zoo.h"
#include "obs/obs.h"
#include "ps/sharded_param_server.h"
#include "ps/sim_runtime.h"
#include "setups.h"

namespace perfbench {

namespace {

// One job per entry: with 2 jobs on a 4-vCPU virtual machine, grid times
// within one run spread about three times wider.
constexpr std::size_t kJobs = 4;
constexpr std::size_t kBsp = 0;
constexpr std::size_t kHybrid = 2;
const char* const kEntryNames[] = {"bsp", "asp", "switch_6.25pct", "greedy_25pct_moderate"};
constexpr int kNumClasses = 10;

std::vector<ss::RunRequest> make_grid(std::uint64_t seed) {
  ss::setups::ExperimentSetup s = ss::setups::setup1();

  ss::SyncSwitchPolicy greedy = ss::SyncSwitchPolicy::bsp_to_asp(0.25);
  greedy.detector.window_size = 3;
  greedy.detector.consecutive_required = 2;
  greedy.online = ss::OnlinePolicy::kGreedy;
  // Fig. 15's moderate scenario (2 stragglers x 4 occurrences, 30 ms),
  // with episode times scaled to the shortened run as that bench does.
  ss::StragglerScenario moderate;
  moderate.num_stragglers = 2;
  moderate.occurrences = 4;
  moderate.extra_latency_ms = 30.0;
  moderate.max_duration = ss::VTime::from_seconds(30.0);
  moderate.horizon = ss::VTime::from_seconds(45.0);

  return {
      ss::setups::make_request(s, ss::SyncSwitchPolicy::pure(ss::Protocol::kBsp), seed),
      ss::setups::make_request(s, ss::SyncSwitchPolicy::pure(ss::Protocol::kAsp), seed),
      ss::setups::make_request(s, ss::SyncSwitchPolicy::bsp_to_asp(0.0625), seed),
      ss::setups::make_straggler_request(s, greedy, moderate, seed),
  };
}

/// Counts the sim's unit operations and times the real interval between
/// consecutive PS updates.  One per entry: entries run on different sweep
/// threads.
class EntryObserver final : public ss::MetricsSink {
 public:
  EntryObserver() { update_gaps_us.reserve(4096); }

  void on_task(const ss::TaskObservation&) override { ++tasks; }
  void on_update(const ss::UpdateObservation& u) override {
    const auto now = Clock::now();
    if (updates == 0) first = now;
    else update_gaps_us.push_back(micros_between(last, now));
    last = now;
    ++updates;
    staleness += u.staleness;
  }
  void on_eval(std::int64_t, ss::VTime, double) override { ++evals; }

  std::int64_t tasks = 0;
  std::int64_t updates = 0;
  std::int64_t evals = 0;
  std::int64_t staleness = 0;
  std::vector<double> update_gaps_us;
  Clock::time_point first{};
  Clock::time_point last{};
};

struct GridRun {
  std::vector<ss::SweepOutcome> outcomes;
  double wall_s = 0.0;
};

GridRun run_grid(std::vector<ss::RunRequest> requests, const char* label) {
  Span span(label);
  const ss::SweepRunner runner({kJobs, nullptr});
  GridRun g;
  const auto t0 = Clock::now();
  g.outcomes = runner.run(requests);
  g.wall_s = seconds_between(t0, Clock::now());
  return g;
}

std::string digest(const ss::SweepOutcome& o) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "acc=%.17g time=%.17g steps=%lld", o.result.converged_accuracy,
                o.result.train_time_seconds, static_cast<long long>(o.result.steps_completed));
  return buf;
}

/// The repository's own notion of a failed run (bench/setups.h): diverged,
/// or collapsed to a predictor no better than twice chance.
bool entry_ok(const ss::SweepOutcome& o) {
  return o.error.empty() && !ss::setups::run_failed(o.result, kNumClasses);
}

/// Output checks on one grid; returns the number of failed entries.
std::int64_t check_grid(Report& r, const GridRun& g) {
  std::int64_t failed = 0;
  for (std::size_t i = 0; i < g.outcomes.size(); ++i) {
    const auto& o = g.outcomes[i];
    if (!entry_ok(o)) ++failed;
    r.check(entry_ok(o),
            std::string("entry ") + kEntryNames[i] + " ran, did not diverge, and beat twice chance",
            o.error.empty() ? "accuracy " + std::to_string(o.result.converged_accuracy) : o.error);
  }
  const auto& bsp = g.outcomes[kBsp].result;
  const auto& hyb = g.outcomes[kHybrid].result;
  r.check(hyb.train_time_seconds < bsp.train_time_seconds,
          "hybrid virtual train time is below BSP's");
  // The paper's accuracy claim, reported but not gating: the repository's
  // benches compare means over five repetition seeds (docs/EXPERIMENTS.md),
  // and single seeds can end far below BSP (seed 8: 0.614 against 0.925).
  r.science(hyb.converged_accuracy >= bsp.converged_accuracy - 0.02,
            "hybrid accuracy is within 0.02 of BSP's (gap " +
                std::to_string(hyb.converged_accuracy - bsp.converged_accuracy) + ")");
  return failed;
}

double grid_steps(const GridRun& g) {
  double steps = 0.0;
  for (const auto& o : g.outcomes) steps += static_cast<double>(o.result.steps_completed);
  return steps;
}

}  // namespace

void run_sim_grid(const Options& opt, Report& report) {
  const auto batch = static_cast<double>(ss::setups::setup1().workload.hyper.batch_size);

  if (opt.trace) {
    const LayerCosts layers = measure_layers({ss::ModelArch::kResNet32Lite, 64, 2048}, opt.seed);
    report_layers(report, layers);

    // Untraced and traced passes of the same grid, each entry observed.
    auto observed_grid = [&](std::vector<EntryObserver>& obs, const char* label) {
      std::vector<ss::RunRequest> reqs = make_grid(opt.seed);
      for (std::size_t i = 0; i < reqs.size(); ++i) reqs[i].observer = &obs[i];
      GridRun g = run_grid(std::move(reqs), label);
      for (std::size_t i = 0; i < obs.size(); ++i) {
        const int track = Span::kBenchTrack + 1 + static_cast<int>(i);
        ss::obs::tracer().set_track_name(track, std::string("entry ") + kEntryNames[i]);
        record_span(track, std::string(label) + " " + kEntryNames[i], obs[i].first, obs[i].last);
      }
      return g;
    };
    // Untraced grids first, then as many traced ones: once obs is on it
    // stays on (switching it off would disarm the tracer).  The first
    // untraced grid feeds the ledger; all of them the overhead ratio.
    std::vector<EntryObserver> plain;
    GridRun g;
    std::vector<double> untraced_wall, traced_wall;
    std::int64_t failed = 0;
    repeat_for(opt.seconds / 3, [&] {
      std::vector<EntryObserver> obs(4);
      GridRun run = observed_grid(obs, "sim_grid untraced");
      failed += check_grid(report, run);
      untraced_wall.push_back(run.wall_s);
      if (plain.empty()) {
        plain = std::move(obs);
        g = std::move(run);
      }
    });
    ss::obs::enable_metrics();
    for (std::size_t i = 0; i < untraced_wall.size(); ++i) {
      std::vector<EntryObserver> obs(4);
      const GridRun run = observed_grid(obs, "sim_grid traced");
      failed += check_grid(report, run);
      traced_wall.push_back(run.wall_s);
    }
    report.count(static_cast<std::int64_t>(8 * untraced_wall.size()), failed);

    PathLedger p;
    double entry_wall = 0.0;
    std::int64_t staleness = 0;
    for (std::size_t i = 0; i < plain.size(); ++i) {
      const EntryObserver& o = plain[i];
      p.gradients += static_cast<double>(o.tasks);
      p.updates += static_cast<double>(o.updates);
      p.evals += static_cast<double>(o.evals);
      staleness += o.staleness;
      p.step_us.insert(p.step_us.end(), o.update_gaps_us.begin(), o.update_gaps_us.end());
      entry_wall += g.outcomes[i].wall_seconds;
      report.info(std::string("core.entry_s.") + kEntryNames[i], g.outcomes[i].wall_seconds, "s");
    }
    p.mean_staleness = static_cast<double>(staleness) / p.updates;
    p.thread_seconds = entry_wall;
    p.gradient_s = p.gradients * layers.gradient_us * 1e-6;
    p.eval_s = p.evals * layers.eval_ms * 1e-3;
    // The sim pulls once per update: per ASP task, and once per BSP round.
    p.ps_s = p.updates * (layers.apply_us + layers.pull_us) * 1e-6;
    p.data_s = p.gradients * layers.batch_us * 1e-6;
    p.overhead_ratio = median(traced_wall) / median(untraced_wall);
    report_path(report, p);

    report.info("sim.gradients", p.gradients, "count");
    report.info("sim.evals", p.evals, "count");
    report.info("sim.updates", p.updates, "count");
    report.info("sim.gradient_share", p.gradient_s / entry_wall, "fraction");
    report.info("sim.eval_share", p.eval_s / entry_wall, "fraction");
    report.info("sim.other_share", 1.0 - (p.gradient_s + p.eval_s) / entry_wall, "fraction");
    report.info("sim.update_wall_p50_us", percentile(p.step_us, 50.0), "us");
    report.info("core.sweep_efficiency", entry_wall / (g.wall_s * kJobs), "fraction");
    return;
  }

  // Set-up as the session performs it: data, model, PS state.
  std::vector<double> setups;
  const ss::SyntheticSpec spec = ss::SyntheticSpec::cifar10_like();
  for (int i = 0; i < 9; ++i) {
    Span span("setup");
    const auto t0 = Clock::now();
    const ss::DataSplit data = ss::make_synthetic(spec);
    ss::Rng rng(opt.seed);
    const ss::Model model =
        ss::make_model(ss::ModelArch::kResNet32Lite, spec.feature_dim, spec.num_classes, rng);
    const ss::ShardedParameterServer ps(model.get_params(), 0.9, 1);
    setups.push_back(seconds_between(t0, Clock::now()));
  }

  std::vector<double> samples_per_s;
  std::vector<std::string> first_digests;
  GridRun last;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  bool identical = true;
  repeat_for(opt.seconds, [&] {
    last = run_grid(make_grid(opt.seed), "sim_grid");
    attempted += static_cast<std::int64_t>(last.outcomes.size());
    failed += check_grid(report, last);
    samples_per_s.push_back(grid_steps(last) * batch / last.wall_s);
    std::vector<std::string> d;
    for (const auto& o : last.outcomes) d.push_back(digest(o));
    if (first_digests.empty()) {
      first_digests = d;
      for (std::size_t i = 0; i < d.size(); ++i)
        std::printf("  digest %-22s %s\n", kEntryNames[i], d[i].c_str());
    } else {
      identical = identical && d == first_digests;
    }
  });
  report.check(identical, "every grid repetition reproduced the first bit for bit",
               std::to_string(samples_per_s.size()) + " grids");
  report.count(attempted, failed);

  const auto& bsp = last.outcomes[kBsp].result;
  const auto& hyb = last.outcomes[kHybrid].result;
  report.samples("samples_per_s", samples_per_s);
  report.metric("samples_per_s", median(samples_per_s), "samples/s");
  report.metric("setup_s", median(setups), "s");
  report.info("sim_steps_per_s", median(samples_per_s) / batch, "steps/s");
  report.info("sim_switch_speedup", bsp.train_time_seconds / hyb.train_time_seconds, "x");
  report.info("sim_switch_acc", hyb.converged_accuracy, "fraction");
}

}  // namespace perfbench
