#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "common/error.h"

namespace ss::ops {

namespace {
void require(bool cond, const char* msg) {
  if (!cond) throw ShapeError(msg);
}
}  // namespace

// One GEMM kernel serves all three matmul variants.  Every output element
// starts from +0 and adds its products in ascending k, so results are
// bit-identical to the plain triple loops kept as references in
// tests/test_ops.cpp; only the loop structure and the vector width differ
// from them.  Packing does the transposes: row i
// of A is gathered (with any stride) into a list of (value, B-row offset)
// terms, and B must be row-major (k, n).  The kernel then sweeps that list
// over register tiles of up to 32 columns of C, one row at a time.
//
// Zero skipping is part of each variant's contract.  matmul and matmul_tn
// drop terms with A(i,kk) == 0; matmul_nt keeps them.  Dropping a zero term
// only changes a result when the matching B entry is inf or NaN (0 * inf is
// NaN), but the rule is kept exactly.  Gathering the non-zero terms once per
// row also means ReLU-sparse activations cost no branch in the inner loop.
namespace {

// Four float lanes (GCC/Clang vector extension): one SSE2 register.  The
// arithmetic is lane-wise IEEE single precision, the same as the scalar loop.
typedef float f32x4 __attribute__((vector_size(16)));

inline f32x4 load4(const float* p) {
  f32x4 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline void store4(float* p, f32x4 v) { std::memcpy(p, &v, sizeof v); }

// Per-thread scratch: the current row of A as the terms of its dot products
// (each value with the offset of the B row it multiplies, in ascending k)
// and, for matmul_nt, B^T.
struct GemmScratch {
  std::vector<float> value;
  std::vector<std::size_t> b_offset;
  std::vector<float> packed_b;
};

GemmScratch& scratch() {
  thread_local GemmScratch s;
  return s;
}

// c[0, 4*V) = the row's terms times columns [0, 4*V) of `b`, each lane
// summed from +0 in term order.
template <int V>
void row_tile(const float* value, const std::size_t* b_offset, std::size_t terms,
              const float* b, float* c) {
  f32x4 acc[V] = {};
  for (std::size_t t = 0; t < terms; ++t) {
    const float av = value[t];
    const float* brow = b + b_offset[t];
    for (int v = 0; v < V; ++v) acc[v] += av * load4(brow + 4 * v);
  }
  for (int v = 0; v < V; ++v) store4(c + 4 * v, acc[v]);
}

// C(m,n) = A(m,k) B(k,n) with A(i,kk) = a[i * a_row + kk * a_k] and B, C
// row-major.  C is written, not accumulated into.
template <bool kSkipZeros>
void gemm(std::size_t m, std::size_t n, std::size_t k, const float* a, std::size_t a_row,
          std::size_t a_k, const float* b, float* c) {
  GemmScratch& s = scratch();
  s.value.resize(k);
  s.b_offset.resize(k);
  float* value = s.value.data();
  std::size_t* b_offset = s.b_offset.data();
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = a + i * a_row;
    std::size_t terms = 0;
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float av = arow[kk * a_k];
      value[terms] = av;
      b_offset[terms] = kk * n;
      terms += kSkipZeros ? (av != 0.0f) : 1;
    }
    float* crow = c + i * n;
    std::size_t j = 0;
    for (; j + 32 <= n; j += 32) row_tile<8>(value, b_offset, terms, b + j, crow + j);
    if (j + 16 <= n) {
      row_tile<4>(value, b_offset, terms, b + j, crow + j);
      j += 16;
    }
    if (j + 8 <= n) {
      row_tile<2>(value, b_offset, terms, b + j, crow + j);
      j += 8;
    }
    if (j + 4 <= n) {
      row_tile<1>(value, b_offset, terms, b + j, crow + j);
      j += 4;
    }
    if (j < n && n >= 4) {
      // The last 1-3 columns: a 4-wide tile ending at column n.  It also
      // recomputes columns already written, to the same bits.
      row_tile<1>(value, b_offset, terms, b + n - 4, crow + n - 4);
    } else {
      for (; j < n; ++j) {
        float acc = 0.0f;
        for (std::size_t t = 0; t < terms; ++t) acc += value[t] * b[b_offset[t] + j];
        crow[j] = acc;
      }
    }
  }
}

}  // namespace

void matmul(const Tensor& a, const Tensor& b, Tensor& c) {
  require(a.rank() == 2 && b.rank() == 2 && c.rank() == 2, "matmul: rank-2 tensors required");
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  require(b.dim(0) == k && c.dim(0) == m && c.dim(1) == n, "matmul: shape mismatch");
  gemm<true>(m, n, k, a.data(), k, 1, b.data(), c.data());
}

void matmul_tn(const Tensor& a, const Tensor& b, Tensor& c) {
  require(a.rank() == 2 && b.rank() == 2 && c.rank() == 2, "matmul_tn: rank-2 tensors required");
  const std::size_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  require(b.dim(0) == k && c.dim(0) == m && c.dim(1) == n, "matmul_tn: shape mismatch");
  gemm<true>(m, n, k, a.data(), 1, m, b.data(), c.data());
}

void matmul_nt(const Tensor& a, const Tensor& b, Tensor& c) {
  require(a.rank() == 2 && b.rank() == 2 && c.rank() == 2, "matmul_nt: rank-2 tensors required");
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  require(b.dim(1) == k && c.dim(0) == m && c.dim(1) == n, "matmul_nt: shape mismatch");
  std::vector<float>& bt = scratch().packed_b;
  bt.resize(k * n);
  const float* pb = b.data();
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t kk = 0; kk < k; ++kk) bt[kk * n + j] = pb[j * k + kk];
  gemm<false>(m, n, k, a.data(), k, 1, bt.data(), c.data());
}

void add_inplace(std::span<float> y, std::span<const float> x) {
  require(y.size() == x.size(), "add_inplace: size mismatch");
  for (std::size_t i = 0; i < y.size(); ++i) y[i] += x[i];
}

void axpy(float alpha, std::span<const float> x, std::span<float> y) {
  require(y.size() == x.size(), "axpy: size mismatch");
  for (std::size_t i = 0; i < y.size(); ++i) y[i] += alpha * x[i];
}

void scale_inplace(std::span<float> y, float alpha) {
  for (auto& v : y) v *= alpha;
}

void add_bias_rows(Tensor& x, const Tensor& bias) {
  require(x.rank() == 2 && bias.rank() == 1 && bias.dim(0) == x.dim(1),
          "add_bias_rows: shape mismatch");
  const std::size_t m = x.dim(0), n = x.dim(1);
  float* px = x.data();
  const float* pb = bias.data();
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) px[i * n + j] += pb[j];
}

void sum_rows(const Tensor& grad, Tensor& bias_grad) {
  require(grad.rank() == 2 && bias_grad.rank() == 1 && bias_grad.dim(0) == grad.dim(1),
          "sum_rows: shape mismatch");
  const std::size_t m = grad.dim(0), n = grad.dim(1);
  bias_grad.fill(0.0f);
  const float* pg = grad.data();
  float* pb = bias_grad.data();
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) pb[j] += pg[i * n + j];
}

void relu_forward(const Tensor& x, Tensor& out) {
  require(x.numel() == out.numel(), "relu_forward: size mismatch");
  const float* px = x.data();
  float* po = out.data();
  for (std::size_t i = 0; i < x.numel(); ++i) po[i] = px[i] > 0.0f ? px[i] : 0.0f;
}

void relu_backward(const Tensor& x, const Tensor& dy, Tensor& dx) {
  require(x.numel() == dy.numel() && x.numel() == dx.numel(), "relu_backward: size mismatch");
  const float* px = x.data();
  const float* pdy = dy.data();
  float* pdx = dx.data();
  for (std::size_t i = 0; i < x.numel(); ++i) {
    // Load dy unconditionally: a select instead of a branch on ReLU's
    // random sign pattern, which vectorizes and never mispredicts.
    const float g = pdy[i];
    pdx[i] = px[i] > 0.0f ? g : 0.0f;
  }
}

void softmax_rows(const Tensor& logits, Tensor& probs) {
  require(logits.rank() == 2 && probs.rank() == 2 && logits.dim(0) == probs.dim(0) &&
              logits.dim(1) == probs.dim(1),
          "softmax_rows: shape mismatch");
  const std::size_t m = logits.dim(0), n = logits.dim(1);
  const float* pl = logits.data();
  float* pp = probs.data();
  for (std::size_t i = 0; i < m; ++i) {
    const float* row = pl + i * n;
    float* out = pp + i * n;
    float mx = row[0];
    for (std::size_t j = 1; j < n; ++j) mx = std::max(mx, row[j]);
    float sum = 0.0f;
    for (std::size_t j = 0; j < n; ++j) {
      out[j] = std::exp(row[j] - mx);
      sum += out[j];
    }
    const float inv = 1.0f / sum;
    for (std::size_t j = 0; j < n; ++j) out[j] *= inv;
  }
}

double cross_entropy_mean(const Tensor& probs, std::span<const int> labels) {
  require(probs.rank() == 2 && probs.dim(0) == labels.size(), "cross_entropy_mean: shape");
  const std::size_t m = probs.dim(0), n = probs.dim(1);
  const float* pp = probs.data();
  double loss = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    const int y = labels[i];
    require(y >= 0 && static_cast<std::size_t>(y) < n, "cross_entropy_mean: label range");
    const double p = std::max(static_cast<double>(pp[i * n + static_cast<std::size_t>(y)]),
                              1e-12);
    loss -= std::log(p);
  }
  return loss / static_cast<double>(m);
}

void softmax_xent_backward(const Tensor& probs, std::span<const int> labels, Tensor& dlogits) {
  require(probs.rank() == 2 && dlogits.rank() == 2 && probs.dim(0) == labels.size() &&
              probs.dim(0) == dlogits.dim(0) && probs.dim(1) == dlogits.dim(1),
          "softmax_xent_backward: shape");
  const std::size_t m = probs.dim(0), n = probs.dim(1);
  const float* pp = probs.data();
  float* pd = dlogits.data();
  const float inv_m = 1.0f / static_cast<float>(m);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) pd[i * n + j] = pp[i * n + j] * inv_m;
    pd[i * n + static_cast<std::size_t>(labels[i])] -= inv_m;
  }
}

void argmax_rows(const Tensor& logits, std::span<int> out) {
  require(logits.rank() == 2 && logits.dim(0) == out.size(), "argmax_rows: shape");
  const std::size_t m = logits.dim(0), n = logits.dim(1);
  const float* pl = logits.data();
  for (std::size_t i = 0; i < m; ++i) {
    const float* row = pl + i * n;
    std::size_t best = 0;
    for (std::size_t j = 1; j < n; ++j)
      if (row[j] > row[best]) best = j;
    out[i] = static_cast<int>(best);
  }
}

double dot(std::span<const float> a, std::span<const float> b) {
  require(a.size() == b.size(), "dot: size mismatch");
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += static_cast<double>(a[i]) * b[i];
  return acc;
}

double l2_norm(std::span<const float> a) { return std::sqrt(dot(a, a)); }

void im2col(std::span<const float> image, std::size_t channels, std::size_t height,
            std::size_t width, std::size_t kh, std::size_t kw, std::size_t pad,
            Tensor& columns) {
  const std::size_t oh = height + 2 * pad - kh + 1;
  const std::size_t ow = width + 2 * pad - kw + 1;
  require(columns.rank() == 2 && columns.dim(0) == channels * kh * kw &&
              columns.dim(1) == oh * ow,
          "im2col: columns shape mismatch");
  require(image.size() == channels * height * width, "im2col: image size mismatch");
  float* pc = columns.data();
  for (std::size_t c = 0; c < channels; ++c) {
    for (std::size_t ki = 0; ki < kh; ++ki) {
      for (std::size_t kj = 0; kj < kw; ++kj) {
        const std::size_t row = (c * kh + ki) * kw + kj;
        float* out = pc + row * (oh * ow);
        for (std::size_t oi = 0; oi < oh; ++oi) {
          const std::ptrdiff_t ii =
              static_cast<std::ptrdiff_t>(oi + ki) - static_cast<std::ptrdiff_t>(pad);
          for (std::size_t oj = 0; oj < ow; ++oj) {
            const std::ptrdiff_t jj =
                static_cast<std::ptrdiff_t>(oj + kj) - static_cast<std::ptrdiff_t>(pad);
            float v = 0.0f;
            if (ii >= 0 && ii < static_cast<std::ptrdiff_t>(height) && jj >= 0 &&
                jj < static_cast<std::ptrdiff_t>(width)) {
              v = image[(c * height + static_cast<std::size_t>(ii)) * width +
                        static_cast<std::size_t>(jj)];
            }
            out[oi * ow + oj] = v;
          }
        }
      }
    }
  }
}

void col2im(const Tensor& columns, std::size_t channels, std::size_t height, std::size_t width,
            std::size_t kh, std::size_t kw, std::size_t pad, std::span<float> image) {
  const std::size_t oh = height + 2 * pad - kh + 1;
  const std::size_t ow = width + 2 * pad - kw + 1;
  require(columns.rank() == 2 && columns.dim(0) == channels * kh * kw &&
              columns.dim(1) == oh * ow,
          "col2im: columns shape mismatch");
  require(image.size() == channels * height * width, "col2im: image size mismatch");
  std::fill(image.begin(), image.end(), 0.0f);
  const float* pc = columns.data();
  for (std::size_t c = 0; c < channels; ++c) {
    for (std::size_t ki = 0; ki < kh; ++ki) {
      for (std::size_t kj = 0; kj < kw; ++kj) {
        const std::size_t row = (c * kh + ki) * kw + kj;
        const float* in = pc + row * (oh * ow);
        for (std::size_t oi = 0; oi < oh; ++oi) {
          const std::ptrdiff_t ii =
              static_cast<std::ptrdiff_t>(oi + ki) - static_cast<std::ptrdiff_t>(pad);
          if (ii < 0 || ii >= static_cast<std::ptrdiff_t>(height)) continue;
          for (std::size_t oj = 0; oj < ow; ++oj) {
            const std::ptrdiff_t jj =
                static_cast<std::ptrdiff_t>(oj + kj) - static_cast<std::ptrdiff_t>(pad);
            if (jj < 0 || jj >= static_cast<std::ptrdiff_t>(width)) continue;
            image[(c * height + static_cast<std::size_t>(ii)) * width +
                  static_cast<std::size_t>(jj)] += in[oi * ow + oj];
          }
        }
      }
    }
  }
}

}  // namespace ss::ops
