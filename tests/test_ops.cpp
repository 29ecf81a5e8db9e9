#include "tensor/ops.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <tuple>
#include <vector>

#include "common/error.h"
#include "common/rng.h"

namespace ss {
namespace {

Tensor random_tensor(Shape shape, Rng& rng, double scale = 1.0) {
  Tensor t(std::move(shape));
  for (std::size_t i = 0; i < t.numel(); ++i)
    t[i] = static_cast<float>(rng.gaussian(0.0, scale));
  return t;
}

/// Naive reference matmul.
Tensor naive_matmul(const Tensor& a, const Tensor& b) {
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor c({m, n});
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (std::size_t kk = 0; kk < k; ++kk) acc += a.at2(i, kk) * b.at2(kk, j);
      c.at2(i, j) = acc;
    }
  return c;
}

TEST(Ops, MatmulMatchesNaive) {
  Rng rng(1);
  const Tensor a = random_tensor({5, 7}, rng);
  const Tensor b = random_tensor({7, 3}, rng);
  Tensor c({5, 3});
  ops::matmul(a, b, c);
  const Tensor ref = naive_matmul(a, b);
  for (std::size_t i = 0; i < c.numel(); ++i) EXPECT_NEAR(c[i], ref[i], 1e-4);
}

TEST(Ops, MatmulTnIsTransposedA) {
  Rng rng(2);
  const Tensor at = random_tensor({7, 5}, rng);  // A^T stored (k, m)
  const Tensor b = random_tensor({7, 3}, rng);
  Tensor c({5, 3});
  ops::matmul_tn(at, b, c);
  // Build A = at^T and compare with naive.
  Tensor a({5, 7});
  for (std::size_t i = 0; i < 5; ++i)
    for (std::size_t j = 0; j < 7; ++j) a.at2(i, j) = at.at2(j, i);
  const Tensor ref = naive_matmul(a, b);
  for (std::size_t i = 0; i < c.numel(); ++i) EXPECT_NEAR(c[i], ref[i], 1e-4);
}

TEST(Ops, MatmulNtIsTransposedB) {
  Rng rng(3);
  const Tensor a = random_tensor({5, 7}, rng);
  const Tensor bt = random_tensor({3, 7}, rng);  // B^T stored (n, k)
  Tensor c({5, 3});
  ops::matmul_nt(a, bt, c);
  Tensor b({7, 3});
  for (std::size_t i = 0; i < 7; ++i)
    for (std::size_t j = 0; j < 3; ++j) b.at2(i, j) = bt.at2(j, i);
  const Tensor ref = naive_matmul(a, b);
  for (std::size_t i = 0; i < c.numel(); ++i) EXPECT_NEAR(c[i], ref[i], 1e-4);
}

// The plain triple loops the kernels replaced, kept word for word as the
// bit-exact references: each output starts from +0 and adds its products in
// ascending k; matmul and matmul_tn skip a == 0, matmul_nt does not.
void reference_matmul(const Tensor& a, const Tensor& b, Tensor& c) {
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  c.fill(0.0f);
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  // ikj ordering: streams B and C rows; good locality without tiling
  // machinery for the sizes we use (<= a few hundred per dim).
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float av = pa[i * k + kk];
      if (av == 0.0f) continue;
      const float* brow = pb + kk * n;
      float* crow = pc + i * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void reference_matmul_tn(const Tensor& a, const Tensor& b, Tensor& c) {
  const std::size_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  c.fill(0.0f);
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  for (std::size_t kk = 0; kk < k; ++kk) {
    const float* arow = pa + kk * m;
    const float* brow = pb + kk * n;
    for (std::size_t i = 0; i < m; ++i) {
      const float av = arow[i];
      if (av == 0.0f) continue;
      float* crow = pc + i * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void reference_matmul_nt(const Tensor& a, const Tensor& b, Tensor& c) {
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = pa + i * k;
    float* crow = pc + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      const float* brow = pb + j * k;
      float acc = 0.0f;
      for (std::size_t kk = 0; kk < k; ++kk) acc += arow[kk] * brow[kk];
      crow[j] = acc;
    }
  }
}

Tensor transposed(const Tensor& t) {
  Tensor out({t.dim(1), t.dim(0)});
  for (std::size_t i = 0; i < t.dim(0); ++i)
    for (std::size_t j = 0; j < t.dim(1); ++j) out.at2(j, i) = t.at2(i, j);
  return out;
}

/// Logical operands of C(m,n) = A(m,k) B(k,n).  A is ReLU-like: about half
/// its entries are zero, and every column kk with kk % 5 == 2 is all zero.
/// B is Gaussian except that those rows kk also hold +inf, -inf and NaN, so
/// a kernel that multiplies out a zero A entry it should skip (or skips one
/// it should multiply) produces different bits.
std::pair<Tensor, Tensor> kernel_operands(std::size_t m, std::size_t k, std::size_t n,
                                          std::uint64_t seed) {
  Rng rng(seed);
  Tensor a({m, k});
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float v = static_cast<float>(rng.gaussian());
      a.at2(i, kk) = (kk % 5 == 2 || v < 0.0f) ? 0.0f : v;
    }
  // Computed at run time so it is the hardware's own default NaN, the one
  // 0 * inf produces inside the kernels.
  volatile float zero = 0.0f;
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = zero * inf;
  const float specials[] = {inf, -inf, nan};
  Tensor b({k, n});
  for (std::size_t kk = 0; kk < k; ++kk)
    for (std::size_t j = 0; j < n; ++j) {
      b.at2(kk, j) = static_cast<float>(rng.gaussian());
      if (kk % 5 == 2 && j % 2 == 0) b.at2(kk, j) = specials[(kk + j) % 3];
    }
  return {std::move(a), std::move(b)};
}

bool same_bits(const Tensor& x, const Tensor& y) {
  return x.numel() == y.numel() &&
         std::memcmp(x.data(), y.data(), x.numel() * sizeof(float)) == 0;
}

std::vector<std::tuple<std::size_t, std::size_t, std::size_t>> kernel_shapes() {
  std::vector<std::tuple<std::size_t, std::size_t, std::size_t>> shapes = {{1, 1, 1}};
  // Column counts around every register-tile width (4, 8, 16, 32).
  for (std::size_t n : {1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 47, 63, 64, 65, 100})
    shapes.emplace_back(3, 7, n);
  // resnet32_lite's Dense shapes at batch 64 and 32.
  for (std::size_t m : {64, 32})
    for (std::size_t k : {64, 96})
      for (std::size_t n : {96, 64, 10}) shapes.emplace_back(m, k, n);
  // convnet_tiny's Conv2D: forward, dW and dcols products of one sample.
  shapes.emplace_back(8, 27, 256);
  shapes.emplace_back(8, 256, 27);
  shapes.emplace_back(27, 8, 256);
  return shapes;
}

TEST(OpsBitExact, MatmulMatchesReferenceLoop) {
  std::uint64_t seed = 100;
  for (const auto& [m, k, n] : kernel_shapes()) {
    const auto [a, b] = kernel_operands(m, k, n, ++seed);
    Tensor got({m, n}, 7.0f), want({m, n});
    ops::matmul(a, b, got);
    reference_matmul(a, b, want);
    EXPECT_TRUE(same_bits(got, want)) << m << "x" << k << "x" << n;
    // Skipping the zero column keeps inf/NaN out of every output.
    if (k > 2) {
      EXPECT_TRUE(got.all_finite()) << m << "x" << k << "x" << n;
    }
  }
}

TEST(OpsBitExact, MatmulTnMatchesReferenceLoop) {
  std::uint64_t seed = 200;
  for (const auto& [m, k, n] : kernel_shapes()) {
    const auto [a, b] = kernel_operands(m, k, n, ++seed);
    const Tensor at = transposed(a);
    Tensor got({m, n}, 7.0f), want({m, n});
    ops::matmul_tn(at, b, got);
    reference_matmul_tn(at, b, want);
    EXPECT_TRUE(same_bits(got, want)) << m << "x" << k << "x" << n;
    if (k > 2) {
      EXPECT_TRUE(got.all_finite()) << m << "x" << k << "x" << n;
    }
  }
}

TEST(OpsBitExact, MatmulNtMatchesReferenceLoop) {
  std::uint64_t seed = 300;
  for (const auto& [m, k, n] : kernel_shapes()) {
    const auto [a, b] = kernel_operands(m, k, n, ++seed);
    const Tensor bt = transposed(b);
    Tensor got({m, n}, 7.0f), want({m, n});
    ops::matmul_nt(a, bt, got);
    reference_matmul_nt(a, bt, want);
    EXPECT_TRUE(same_bits(got, want)) << m << "x" << k << "x" << n;
    // No zero skipping: 0 * inf reaches the output.
    if (k > 2) {
      EXPECT_FALSE(got.all_finite()) << m << "x" << k << "x" << n;
    }
  }
}

TEST(Ops, MatmulShapeMismatchThrows) {
  Tensor a({2, 3}), b({4, 2}), c({2, 2});
  EXPECT_THROW(ops::matmul(a, b, c), ShapeError);
}

TEST(Ops, ElementwiseHelpers) {
  std::vector<float> y = {1, 2, 3};
  const std::vector<float> x = {10, 20, 30};
  ops::add_inplace(y, x);
  EXPECT_EQ(y[2], 33.0f);
  ops::axpy(0.5f, x, y);
  EXPECT_EQ(y[0], 16.0f);
  ops::scale_inplace(y, 2.0f);
  EXPECT_EQ(y[0], 32.0f);
}

TEST(Ops, BiasAndSumRows) {
  Tensor x({2, 3}, std::vector<float>{1, 2, 3, 4, 5, 6});
  Tensor bias({3}, std::vector<float>{10, 20, 30});
  ops::add_bias_rows(x, bias);
  EXPECT_EQ(x.at2(1, 2), 36.0f);
  Tensor grad_b({3});
  ops::sum_rows(x, grad_b);
  EXPECT_EQ(grad_b[0], 25.0f);  // 11 + 14
  EXPECT_EQ(grad_b[2], 69.0f);  // 33 + 36
}

TEST(Ops, ReluForwardBackward) {
  Tensor x({1, 4}, std::vector<float>{-1, 0, 2, -3});
  Tensor y({1, 4});
  ops::relu_forward(x, y);
  EXPECT_EQ(y[0], 0.0f);
  EXPECT_EQ(y[2], 2.0f);
  Tensor dy({1, 4}, std::vector<float>{1, 1, 1, 1});
  Tensor dx({1, 4});
  ops::relu_backward(x, dy, dx);
  EXPECT_EQ(dx[0], 0.0f);
  EXPECT_EQ(dx[2], 1.0f);
}

TEST(Ops, SoftmaxRowsSumToOneAndStable) {
  Tensor logits({2, 3}, std::vector<float>{1000.0f, 1000.0f, 1000.0f, 1.0f, 2.0f, 3.0f});
  Tensor probs({2, 3});
  ops::softmax_rows(logits, probs);
  for (std::size_t r = 0; r < 2; ++r) {
    float sum = 0.0f;
    for (std::size_t c = 0; c < 3; ++c) sum += probs.at2(r, c);
    EXPECT_NEAR(sum, 1.0f, 1e-5);
  }
  EXPECT_NEAR(probs.at2(0, 0), 1.0f / 3.0f, 1e-5);
  EXPECT_GT(probs.at2(1, 2), probs.at2(1, 0));
}

TEST(Ops, CrossEntropyGradientMatchesNumeric) {
  // Numeric check of d(mean CE o softmax)/d logits.
  Rng rng(4);
  Tensor logits = random_tensor({3, 4}, rng);
  const std::vector<int> labels = {1, 3, 0};
  Tensor probs(logits.shape());
  ops::softmax_rows(logits, probs);
  Tensor grad(logits.shape());
  ops::softmax_xent_backward(probs, labels, grad);

  const double eps = 1e-3;
  for (std::size_t i = 0; i < logits.numel(); ++i) {
    Tensor lp = logits, lm = logits;
    lp[i] += static_cast<float>(eps);
    lm[i] -= static_cast<float>(eps);
    Tensor pp(logits.shape()), pm(logits.shape());
    ops::softmax_rows(lp, pp);
    ops::softmax_rows(lm, pm);
    const double num =
        (ops::cross_entropy_mean(pp, labels) - ops::cross_entropy_mean(pm, labels)) / (2 * eps);
    EXPECT_NEAR(grad[i], num, 5e-3);
  }
}

TEST(Ops, ArgmaxRows) {
  Tensor logits({2, 3}, std::vector<float>{1, 5, 2, 9, 0, 3});
  std::vector<int> out(2);
  ops::argmax_rows(logits, out);
  EXPECT_EQ(out[0], 1);
  EXPECT_EQ(out[1], 0);
}

TEST(Ops, DotAndNorm) {
  const std::vector<float> a = {3, 4};
  EXPECT_DOUBLE_EQ(ops::dot(a, a), 25.0);
  EXPECT_DOUBLE_EQ(ops::l2_norm(a), 5.0);
}

TEST(Ops, Im2ColCol2ImAdjoint) {
  // <im2col(x), y> == <x, col2im(y)> — the two ops must be exact adjoints
  // for conv backward to be correct.
  Rng rng(5);
  const std::size_t c = 2, h = 5, w = 4, kh = 3, kw = 3, pad = 1;
  const std::size_t oh = h + 2 * pad - kh + 1, ow = w + 2 * pad - kw + 1;
  std::vector<float> x(c * h * w);
  for (auto& v : x) v = static_cast<float>(rng.gaussian());
  Tensor cols({c * kh * kw, oh * ow});
  ops::im2col(x, c, h, w, kh, kw, pad, cols);

  Tensor y({c * kh * kw, oh * ow});
  for (std::size_t i = 0; i < y.numel(); ++i) y[i] = static_cast<float>(rng.gaussian());
  std::vector<float> xt(c * h * w);
  ops::col2im(y, c, h, w, kh, kw, pad, xt);

  const double lhs = ops::dot(cols.span(), y.span());
  const double rhs = ops::dot(std::span<const float>(x), std::span<const float>(xt));
  EXPECT_NEAR(lhs, rhs, 1e-2);
}

}  // namespace
}  // namespace ss
