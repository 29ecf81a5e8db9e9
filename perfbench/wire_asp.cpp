// wire_asp: the socket deployment.  run_ps_server on one thread and two
// run_worker_process threads connected over a Unix socket: linear model
// (650 parameters), batch 32, 20000 ASP steps per worker, a snapshot every
// 64 updates, dense pushes.  Compute is tens of microseconds per step, so
// the frame codec, socket calls, server session threads and snapshotter do
// most of the work.
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <functional>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "common/error.h"
#include "common/rng.h"
#include "data/batcher.h"
#include "net/ps_server.h"
#include "net/socket_transport.h"
#include "net/worker_process.h"
#include "obs/obs.h"

namespace perfbench {

namespace {

constexpr std::size_t kWorkers = 2;
constexpr std::size_t kBatch = 32;
constexpr std::int64_t kSteps = 20000;
constexpr double kAccuracyFloor = 0.4;  // chance is 0.1 on 10 classes
constexpr int kMirrorSpanEvery = 64;    // mirror steps recorded as spans

/// Socket files live in a fresh directory under the working directory, so
/// the benchmark writes nothing outside its checkout.  Removed on exit.
class SocketDir {
 public:
  explicit SocketDir(const std::string& parent) {
    std::filesystem::create_directories(parent);
    std::string tmpl = parent + "/wire-XXXXXX";
    if (::mkdtemp(tmpl.data()) == nullptr) throw ss::ConfigError("perfbench: mkdtemp failed");
    path_ = tmpl;
  }
  ~SocketDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  SocketDir(const SocketDir&) = delete;
  SocketDir& operator=(const SocketDir&) = delete;

  std::string next_endpoint() { return "unix:" + path_ + "/ps-" + std::to_string(n_++) + ".sock"; }

 private:
  std::string path_;
  int n_ = 0;
};

ss::PsServerConfig server_config(std::uint64_t seed, std::int64_t steps, std::string endpoint) {
  ss::PsServerConfig cfg;
  cfg.listen = std::move(endpoint);
  cfg.num_workers = kWorkers;
  cfg.steps_per_worker = steps;
  cfg.batch_size = kBatch;
  cfg.lr = 0.05;
  cfg.momentum = 0.9;
  cfg.seed = seed;
  cfg.num_ps_shards = 1;
  cfg.snapshot_interval = 64;
  cfg.arch = ss::ModelArch::kLinear;
  cfg.data = ss::SyntheticSpec::cifar10_like();
  return cfg;
}

/// Per-step timings of the benchmark's mirror of the worker loop, written
/// into preallocated rows so the loop itself allocates and traces nothing.
struct MirrorTimes {
  std::vector<Clock::time_point> step_start;
  std::vector<double> pull_us, batch_us, gradient_us, push_us;
  std::int64_t steps = 0;
  std::int64_t staleness = 0;
  bool drained = false;
};

using WorkerFn = std::function<ss::WorkerProcessResult(const std::string&, std::size_t)>;

struct ServeRun {
  ss::PsServerResult server;
  std::vector<ss::WorkerProcessResult> workers;
  double cycle_s = 0.0;  ///< server start -> every worker returned
  double wall_s = 0.0;   ///< listening (first handshake) -> last drain
  double serve_s = 0.0;  ///< listening -> server returned (after its final eval)
  std::int64_t steps = 0;
};

/// One serve cycle: the server on one thread, `kWorkers` worker threads
/// running `worker` against it once it listens.  Every thread is joined
/// before returning (jthread joins on exception paths too); the first
/// failure is rethrown.
ServeRun serve(const ss::PsServerConfig& base, const WorkerFn& worker, const char* label) {
  Span span(label);
  ServeRun run;
  std::mutex mu;
  std::condition_variable cv;
  std::string endpoint;
  bool listening = false, server_done = false;
  Clock::time_point t_listen{}, t_served{};
  std::exception_ptr server_error;

  ss::PsServerConfig cfg = base;
  cfg.on_listening = [&](const std::string& ep) {
    const std::lock_guard<std::mutex> lock(mu);
    endpoint = ep;
    listening = true;
    t_listen = Clock::now();
    cv.notify_all();
  };
  const auto t0 = Clock::now();
  std::jthread server([&] {
    try {
      run.server = ss::run_ps_server(cfg);
    } catch (...) {
      server_error = std::current_exception();
    }
    const std::lock_guard<std::mutex> lock(mu);
    server_done = true;
    t_served = Clock::now();
    cv.notify_all();
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return listening || server_done; });
  }
  std::vector<std::exception_ptr> worker_errors(kWorkers);
  run.workers.resize(kWorkers);
  std::vector<std::jthread> workers;
  if (listening) {
    for (std::size_t w = 0; w < kWorkers; ++w) {
      workers.emplace_back([&, w] {
        try {
          run.workers[w] = worker(endpoint, w);
        } catch (...) {
          worker_errors[w] = std::current_exception();
        }
      });
    }
  }
  for (auto& t : workers) t.join();
  const auto t_workers = Clock::now();
  server.join();
  if (server_error) std::rethrow_exception(server_error);
  for (const auto& e : worker_errors)
    if (e) std::rethrow_exception(e);
  run.cycle_s = seconds_between(t0, t_workers);
  run.wall_s = seconds_between(t_listen, t_workers);
  run.serve_s = seconds_between(t_listen, t_served);
  for (const auto& w : run.workers) run.steps += w.steps;
  return run;
}

ss::WorkerProcessResult real_worker(const std::string& endpoint, std::size_t) {
  return ss::run_worker_process({endpoint, -1});
}

/// The worker loop of net/worker_process.cpp (dense pushes), rebuilt from
/// public calls so each call can be timed: SocketTransport pull and push,
/// MinibatchSampler + Dataset::gather, Model::gradient_at.
ss::WorkerProcessResult mirror_worker(const std::string& endpoint, MirrorTimes& t) {
  ss::AssignmentMsg a;
  ss::SocketTransport tx(endpoint, a);
  const auto w = static_cast<std::size_t>(a.worker);
  const ss::DataSplit split = ss::make_synthetic(a.data);
  ss::Rng model_rng(a.seed);
  ss::Model model =
      ss::make_model(a.arch, split.train.feature_dim(), a.data.num_classes, model_rng);
  ss::Rng root(a.seed);
  const auto shards = ss::make_shards(split.train.size(), a.num_workers);
  ss::MinibatchSampler sampler(shards[w % shards.size()], a.batch_size, root.fork(w + 1));

  ss::Tensor batch_x({a.batch_size, split.train.feature_dim()});
  std::vector<int> batch_y;
  std::vector<float> snapshot(a.num_params), grad(a.num_params);
  std::vector<std::int64_t> versions;
  std::vector<std::uint32_t> indices;
  const auto n = static_cast<std::size_t>(a.steps_per_worker);
  t.step_start.resize(n);
  t.pull_us.resize(n);
  t.batch_us.resize(n);
  t.gradient_us.resize(n);
  t.push_us.resize(n);
  for (std::size_t s = 0; s < n; ++s) {
    const auto c0 = Clock::now();
    tx.pull_with_versions(snapshot, versions);
    const auto c1 = Clock::now();
    sampler.next_batch(indices);
    split.train.gather(indices, batch_x, batch_y);
    const auto c2 = Clock::now();
    model.gradient_at(snapshot, batch_x, batch_y, grad);
    const auto c3 = Clock::now();
    t.staleness += tx.push(grad, a.lr, versions);
    const auto c4 = Clock::now();
    t.step_start[s] = c0;
    t.pull_us[s] = micros_between(c0, c1);
    t.batch_us[s] = micros_between(c1, c2);
    t.gradient_us[s] = micros_between(c2, c3);
    t.push_us[s] = micros_between(c3, c4);
    ++t.steps;
  }
  t.drained = tx.drain_arrive(t.steps);
  tx.bye();
  ss::WorkerProcessResult r;
  r.worker = a.worker;
  r.steps = t.steps;
  r.drained = t.drained;
  return r;
}

/// Benchmark-side spans for one mirror step in kMirrorSpanEvery, rebuilt
/// from the saved timings after the loop.
void record_mirror_spans(const MirrorTimes& t, std::size_t worker) {
  const int track = Span::kBenchTrack + 1 + static_cast<int>(worker);
  ss::obs::tracer().set_track_name(track, "mirror worker " + std::to_string(worker));
  for (std::size_t s = 0; s < t.step_start.size(); s += kMirrorSpanEvery) {
    const auto c0 = t.step_start[s];
    auto at = [&](double us_from_start) {
      return c0 + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double, std::micro>(us_from_start));
    };
    const double b = t.pull_us[s], g = b + t.batch_us[s], h = g + t.gradient_us[s];
    record_span(track, "mirror pull", c0, at(b));
    record_span(track, "mirror batch", at(b), at(g));
    record_span(track, "mirror gradient", at(g), at(h));
    record_span(track, "mirror push", at(h), at(h + t.push_us[s]));
  }
}

/// Output checks on one serve cycle; returns worker steps not done.
std::int64_t check_serve(Report& r, const ServeRun& run, std::int64_t steps) {
  const std::int64_t expected = static_cast<std::int64_t>(kWorkers) * steps;
  r.check(run.server.total_updates == expected, "total_updates == " + std::to_string(expected),
          std::to_string(run.server.total_updates));
  r.check(run.server.workers_evicted == 0, "no worker evicted");
  bool drained = true;
  for (const auto& w : run.workers) drained = drained && w.drained;
  r.check(drained, "every worker drained");
  r.check(run.server.final_accuracy >= kAccuracyFloor,
          "server accuracy >= " + std::to_string(kAccuracyFloor),
          std::to_string(run.server.final_accuracy));
  return expected - run.steps;
}

double samples_per_s(const ServeRun& run) {
  return static_cast<double>(run.steps * static_cast<std::int64_t>(kBatch)) / run.wall_s;
}

std::int64_t counter(const std::string& name) {
  for (const auto& c : ss::obs::metrics().snapshot().counters)
    if (c.name == name) return c.value;
  return 0;
}

double sum(const std::vector<double>& xs) { return std::accumulate(xs.begin(), xs.end(), 0.0); }

}  // namespace

void run_wire_asp(const Options& opt, Report& report) {
  SocketDir dir(opt.work_dir);
  auto with_endpoint = [&](std::int64_t steps) {
    return server_config(opt.seed, steps, dir.next_endpoint());
  };
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  // One untimed cycle before any timed one: on the 4-vCPU virtual machine
  // this was written on, socket round trips ran slower for the first seconds
  // of traffic, and a deployment pays that once, not per step.
  auto warm_up = [&] {
    const ServeRun run = serve(with_endpoint(kSteps), real_worker, "warm-up");
    attempted += static_cast<std::int64_t>(kWorkers) * kSteps;
    failed += check_serve(report, run, kSteps);
  };

  if (opt.trace) {
    const LayerCosts layers = measure_layers({ss::ModelArch::kLinear, kBatch, 4096}, opt.seed);
    report_layers(report, layers);
    warm_up();

    // Untraced: real workers and the mirror, alternating.  Traced last, one
    // serve cycle: once obs is on it stays on (switching it off would disarm
    // the tracer), and one traced cycle already fills most of the trace cap.
    std::vector<double> real_rate, untraced_wall;
    std::vector<ServeRun> mirrors;
    std::vector<MirrorTimes> times;
    repeat_for(opt.seconds / 2, [&] {
      const ServeRun real = serve(with_endpoint(kSteps), real_worker, "serve untraced");
      attempted += static_cast<std::int64_t>(kWorkers) * kSteps;
      failed += check_serve(report, real, kSteps);
      real_rate.push_back(samples_per_s(real));
      untraced_wall.push_back(real.wall_s);

      std::vector<MirrorTimes> t(kWorkers);
      mirrors.push_back(serve(
          with_endpoint(kSteps),
          [&t](const std::string& ep, std::size_t w) { return mirror_worker(ep, t[w]); },
          "serve mirror"));
      attempted += static_cast<std::int64_t>(kWorkers) * kSteps;
      failed += check_serve(report, mirrors.back(), kSteps);
      for (std::size_t w = 0; w < kWorkers; ++w) record_mirror_spans(t[w], w);
      times.insert(times.end(), t.begin(), t.end());
    });

    ss::obs::metrics().reset();
    ss::obs::enable_metrics();
    const ServeRun traced = serve(with_endpoint(kSteps), real_worker, "serve traced");
    attempted += static_cast<std::int64_t>(kWorkers) * kSteps;
    failed += check_serve(report, traced, kSteps);
    report.count(attempted, failed);

    PathLedger p;
    std::vector<double> pulls, pushes, mirror_rate;
    double serve_s = 0.0, step_s = 0.0;
    for (const ServeRun& m : mirrors) {
      p.updates += static_cast<double>(m.server.total_updates);
      p.evals += 1.0;  // the server's final evaluation
      serve_s += m.serve_s;
      mirror_rate.push_back(samples_per_s(m));
    }
    std::int64_t staleness = 0;
    for (std::size_t k = 0; k < times.size(); ++k) {
      const MirrorTimes& t = times[k];
      p.gradients += static_cast<double>(t.steps);
      staleness += t.staleness;
      p.gradient_s += sum(t.gradient_us) * 1e-6;
      p.data_s += sum(t.batch_us) * 1e-6;
      p.ps_s += (sum(t.pull_us) + sum(t.push_us)) * 1e-6;
      pulls.insert(pulls.end(), t.pull_us.begin(), t.pull_us.end());
      pushes.insert(pushes.end(), t.push_us.begin(), t.push_us.end());
      for (std::size_t s = 1; s < t.step_start.size(); ++s)
        p.step_us.push_back(micros_between(t.step_start[s - 1], t.step_start[s]));
      step_s += seconds_between(t.step_start.front(), t.step_start.back());
    }
    p.mean_staleness = static_cast<double>(staleness) / p.gradients;
    // Worker-thread seconds from listen to the server's return, so the
    // server's final evaluation falls inside the window it is charged to.
    p.thread_seconds = serve_s * kWorkers;
    p.eval_s = p.evals * layers.eval_ms * 1e-3;
    p.overhead_ratio = traced.wall_s / median(untraced_wall);
    report_path(report, p);

    const double steps = static_cast<double>(traced.steps);
    report.info("net.pull_rtt_p50_us", percentile(pulls, 50.0), "us");
    report.info("net.pull_rtt_p99_us", percentile(pulls, 99.0), "us");
    report.info("net.push_rtt_p50_us", percentile(pushes, 50.0), "us");
    report.info("net.push_rtt_p99_us", percentile(pushes, 99.0), "us");
    report.info("net.compute_share", p.gradient_s / step_s, "fraction");
    report.info("net.bytes_per_step", static_cast<double>(counter("ss_net_bytes_sent_total")) / steps,
                "B");
    report.info("net.frames_per_step",
                static_cast<double>(counter("ss_net_frames_sent_total")) / steps, "count");
    report.info("wire_samples_per_s", median(real_rate), "samples/s");
    report.info("net.mirror_samples_per_s", median(mirror_rate), "samples/s");
    // Each mirror cycle runs right after a real one; the median of the pair
    // ratios cancels drift in machine speed across the run.
    std::vector<double> pair_ratio;
    for (std::size_t i = 0; i < real_rate.size(); ++i)
      pair_ratio.push_back(mirror_rate[i] / real_rate[i]);
    report.info("net.mirror_ratio", median(pair_ratio), "ratio");
    return;
  }

  // Set-up: a one-step serve cycle is listen, every handshake, each side's
  // data and model build, one step and the drain.
  std::vector<double> setup;
  for (int i = 0; i < 9; ++i) {
    const ServeRun one = serve(with_endpoint(1), real_worker, "setup");
    attempted += static_cast<std::int64_t>(kWorkers);
    failed += static_cast<std::int64_t>(kWorkers) - one.steps;
    setup.push_back(one.cycle_s);
  }
  warm_up();
  std::vector<double> rate, accuracy;
  repeat_for(opt.seconds, [&] {
    const ServeRun run = serve(with_endpoint(kSteps), real_worker, "serve");
    attempted += static_cast<std::int64_t>(kWorkers) * kSteps;
    failed += check_serve(report, run, kSteps);
    rate.push_back(samples_per_s(run));
    accuracy.push_back(run.server.final_accuracy);
  });
  report.count(attempted, failed);

  report.samples("samples_per_s", rate);
  report.metric("samples_per_s", median(rate), "samples/s");
  report.info("wire_accuracy", median(accuracy), "fraction");
  report.metric("setup_s", median(setup), "s");
  report.info("wire_samples_per_s", median(rate), "samples/s");
  report.info("runs", static_cast<double>(rate.size()), "count");
}

}  // namespace perfbench
