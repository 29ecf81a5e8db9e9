// Layer replays: the per-call cost of each layer under a workload, measured
// by calling the layer's public entry point at the workload's shapes.  The
// ledger multiplies these costs by the path's call counts.
#include <atomic>
#include <thread>
#include <vector>

#include "bench.h"
#include "common/error.h"
#include "common/rng.h"
#include "data/synthetic.h"
#include "data/batcher.h"
#include "net/frame.h"
#include "nn/model.h"
#include "ps/sharded_param_server.h"
#include "ps/threaded_runtime.h"
#include "tensor/ops.h"

namespace perfbench {

namespace {

/// Median per-call time of `fn` in microseconds: calls are grouped so that
/// one timed group lasts about `group_s`, and the median over groups is
/// taken so a preempted group does not move the figure.
template <typename Fn>
double per_call_us(Fn&& fn, int groups = 15, double group_s = 0.02) {
  fn();  // warm caches and lazily sized buffers
  std::int64_t calls = 1;
  for (;;) {
    const auto t0 = Clock::now();
    for (std::int64_t i = 0; i < calls; ++i) fn();
    const double dt = seconds_between(t0, Clock::now());
    if (dt >= group_s / 4 || calls >= (1 << 20)) {
      calls = std::max<std::int64_t>(1, static_cast<std::int64_t>(
                                            static_cast<double>(calls) * group_s / dt));
      break;
    }
    calls *= 4;
  }
  std::vector<double> per_call;
  for (int g = 0; g < groups; ++g) {
    const auto t0 = Clock::now();
    for (std::int64_t i = 0; i < calls; ++i) fn();
    per_call.push_back(seconds_between(t0, Clock::now()) * 1e6 / static_cast<double>(calls));
  }
  return median(per_call);
}

/// (in, out) of every Dense layer of `arch`, in forward order (nn/zoo.cpp).
std::vector<std::pair<std::size_t, std::size_t>> dense_shapes(ss::ModelArch arch,
                                                              std::size_t in, std::size_t classes) {
  switch (arch) {
    case ss::ModelArch::kResNet32Lite:
      return {{in, 96}, {96, 64}, {64, classes}};
    case ss::ModelArch::kLinear:
      return {{in, classes}};
    default:
      throw ss::ConfigError("perfbench: no Dense shape table for " + ss::arch_name(arch));
  }
}

ss::Tensor random_tensor(std::size_t rows, std::size_t cols, ss::Rng& rng) {
  ss::Tensor t({rows, cols});
  for (float& v : t.span()) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return t;
}

/// Mean per-push latency of SharedParameterServer::push with 4 threads
/// pushing at once (the threaded runtime's ASP lock contention).
double contended_push_us(const std::vector<float>& params, const std::vector<float>& grad) {
  constexpr int kThreads = 4;
  constexpr int kPushes = 2000;
  ss::SharedParameterServer ps(params, 0.9, 1);
  std::atomic<int> ready{0};
  std::vector<double> per_push(kThreads, 0.0);
  std::vector<std::jthread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<float> snapshot(params.size());
      std::vector<std::int64_t> versions;
      ps.pull_with_versions(snapshot, versions);
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      const auto t0 = Clock::now();
      for (int i = 0; i < kPushes; ++i) (void)ps.push(grad, 1e-6, versions);
      per_push[static_cast<std::size_t>(t)] = seconds_between(t0, Clock::now()) * 1e6 / kPushes;
    });
  }
  for (auto& th : threads) th.join();
  return median(per_push);
}

}  // namespace

LayerCosts measure_layers(const LayerShape& shape, std::uint64_t seed) {
  LayerCosts c;
  const ss::SyntheticSpec spec = ss::SyntheticSpec::cifar10_like();

  ss::DataSplit split;
  {
    Span span("layer data.make_synthetic");
    std::vector<double> t;
    for (int i = 0; i < 3; ++i) {
      const auto t0 = Clock::now();
      split = ss::make_synthetic(spec);
      t.push_back(seconds_between(t0, Clock::now()));
    }
    c.make_synthetic_s = median(t);
  }

  ss::Rng rng(seed);
  ss::Model model = ss::make_model(shape.arch, spec.feature_dim, spec.num_classes, rng);
  const std::vector<float> params = model.get_params();
  std::vector<float> grad(params.size());

  ss::MinibatchSampler sampler(ss::make_shards(split.train.size(), 1).front(), shape.batch,
                               rng.fork(1));
  ss::Tensor bx({shape.batch, spec.feature_dim});
  std::vector<int> by;
  std::vector<std::uint32_t> indices;
  {
    Span span("layer data.batch");
    c.batch_us = per_call_us([&] {
      sampler.next_batch(indices);
      split.train.gather(indices, bx, by);
    });
  }
  {
    Span span("layer nn.gradient");
    c.gradient_us = per_call_us([&] { model.gradient_at(params, bx, by, grad); });
  }
  {
    Span span("layer nn.eval");
    const ss::Dataset eval = split.test.head(shape.eval_rows);
    c.eval_ms = per_call_us([&] { (void)model.evaluate_accuracy(eval); }, 5, 0.02) / 1e3;
  }

  {
    Span span("layer tensor.matmul");
    const auto shapes =
        dense_shapes(shape.arch, spec.feature_dim, static_cast<std::size_t>(spec.num_classes));
    const std::size_t b = shape.batch;
    struct Operands {
      ss::Tensor x, w, dy, y, dw, dx;
    };
    std::vector<Operands> ops;
    double flops_per_family = 0.0;
    for (const auto& [in, out] : shapes) {
      ops.push_back({random_tensor(b, in, rng), random_tensor(in, out, rng),
                     random_tensor(b, out, rng), ss::Tensor({b, out}), ss::Tensor({in, out}),
                     ss::Tensor({b, in})});
      flops_per_family += 2.0 * static_cast<double>(b * in * out);
    }
    c.matmul_us = per_call_us([&] {
      for (auto& o : ops) ss::ops::matmul(o.x, o.w, o.y);
    });
    c.matmul_tn_us = per_call_us([&] {
      for (auto& o : ops) ss::ops::matmul_tn(o.x, o.dy, o.dw);
    });
    c.matmul_nt_us = per_call_us([&] {
      for (auto& o : ops) ss::ops::matmul_nt(o.dy, o.w, o.dx);
    });
    c.gflops = 3.0 * flops_per_family /
               ((c.matmul_us + c.matmul_tn_us + c.matmul_nt_us) * 1e3);
  }

  {
    Span span("layer ps.apply_pull");
    ss::ShardedParameterServer ps(params, 0.9, 1);
    std::vector<float> out(params.size());
    c.apply_us = per_call_us([&] { ps.apply(grad, 1e-6); });
    c.pull_us = per_call_us([&] { ps.pull(out); });
  }
  {
    Span span("layer ps.push_contended");
    c.push_contended_us = contended_push_us(params, grad);
  }

  {
    Span span("layer net.frame");
    ss::PushDenseMsg msg;
    msg.lr = 0.05;
    msg.pull_versions = {0};
    msg.grad = grad;
    std::vector<std::uint8_t> bytes;
    c.frame_encode_us = per_call_us([&] { bytes = ss::encode_frame(msg.encode()); });
    std::size_t decoded = 0;
    c.frame_decode_us = per_call_us([&] {
      const ss::Frame f = ss::decode_frame(bytes);
      decoded = ss::PushDenseMsg::decode(f.payload).grad.size();
    });
    if (decoded != grad.size()) throw ss::ConfigError("perfbench: frame round trip lost data");
  }
  return c;
}

void report_layers(Report& r, const LayerCosts& c) {
  r.metric("tensor.matmul_us", c.matmul_us, "us");
  r.metric("tensor.matmul_nt_us", c.matmul_nt_us, "us");
  r.metric("tensor.matmul_tn_us", c.matmul_tn_us, "us");
  r.metric("tensor.gflops", c.gflops, "GFLOP/s");
  r.metric("nn.gradient_us", c.gradient_us, "us");
  r.metric("nn.eval_ms", c.eval_ms, "ms");
  r.metric("data.make_synthetic_s", c.make_synthetic_s, "s");
  r.metric("data.batch_us", c.batch_us, "us");
  r.metric("ps.apply_us", c.apply_us, "us");
  r.metric("ps.pull_us", c.pull_us, "us");
  r.metric("ps.push_contended_us", c.push_contended_us, "us");
  r.metric("net.frame_encode_us", c.frame_encode_us, "us");
  r.metric("net.frame_decode_us", c.frame_decode_us, "us");
}

void report_path(Report& r, const PathLedger& p) {
  r.metric("path.gradients", p.gradients, "count");
  r.metric("path.updates", p.updates, "count");
  r.metric("path.evals", p.evals, "count");
  r.metric("path.mean_staleness", p.mean_staleness, "updates");
  r.metric("path.step_p50_us", percentile(p.step_us, 50.0), "us");
  r.metric("path.step_p99_us", percentile(p.step_us, 99.0), "us");
  const double d = p.thread_seconds;
  const double remainder = 1.0 - (p.gradient_s + p.eval_s + p.ps_s + p.data_s) / d;
  r.metric("ledger.gradient_share", p.gradient_s / d, "fraction");
  r.metric("ledger.eval_share", p.eval_s / d, "fraction");
  r.metric("ledger.ps_share", p.ps_s / d, "fraction");
  r.metric("ledger.data_share", p.data_s / d, "fraction");
  r.metric("ledger.remainder_share", remainder, "fraction");
  r.metric("obs.overhead_ratio", p.overhead_ratio, "ratio");
}

}  // namespace perfbench
