// Tensor math kernels used by the NN layers.
//
// Everything is a free function on Tensor / span<float>, single-threaded and
// deterministic.
//
// The three matmuls share one register-tiled kernel (ARCHITECTURE.md,
// "Tensor kernels").  Their results are pinned bit for bit:
//   - every C element starts from +0 and adds A(i,kk) * B(kk,j) in ascending
//     kk, one IEEE single-precision multiply and one add per product;
//   - matmul and matmul_tn skip products whose A entry is zero (±0);
//     matmul_nt does not.  The two rules differ only where B holds inf or
//     NaN, since 0 * inf is NaN;
//   - nothing is contracted into an FMA: the build passes -ffp-contract=off,
//     so -march or CXXFLAGS cannot change a bit.
// tests/test_ops.cpp checks each variant against the plain triple loop.
#pragma once

#include <cstddef>
#include <span>

#include "tensor/tensor.h"

namespace ss::ops {

/// C(m,n) = A(m,k) * B(k,n).  C must be preallocated with the right shape.
void matmul(const Tensor& a, const Tensor& b, Tensor& c);

/// C(m,n) = A(k,m)^T * B(k,n).
void matmul_tn(const Tensor& a, const Tensor& b, Tensor& c);

/// C(m,n) = A(m,k) * B(n,k)^T.
void matmul_nt(const Tensor& a, const Tensor& b, Tensor& c);

/// y += x (same numel).
void add_inplace(std::span<float> y, std::span<const float> x);

/// y = alpha * x + y.
void axpy(float alpha, std::span<const float> x, std::span<float> y);

/// y *= alpha.
void scale_inplace(std::span<float> y, float alpha);

/// Add row-vector bias(n) to every row of x(m,n).
void add_bias_rows(Tensor& x, const Tensor& bias);

/// bias_grad(n) = sum over rows of grad(m,n).
void sum_rows(const Tensor& grad, Tensor& bias_grad);

/// Elementwise ReLU forward: out = max(x, 0).
void relu_forward(const Tensor& x, Tensor& out);

/// ReLU backward: dx = dy where x > 0 else 0.
void relu_backward(const Tensor& x, const Tensor& dy, Tensor& dx);

/// Row-wise softmax of logits(m,n) into probs(m,n); numerically stable.
void softmax_rows(const Tensor& logits, Tensor& probs);

/// Mean cross-entropy loss over a batch given row-wise probabilities and
/// integer labels.  Returns the scalar loss.
double cross_entropy_mean(const Tensor& probs, std::span<const int> labels);

/// Gradient of (mean CE o softmax) w.r.t. logits: (probs - onehot)/m.
void softmax_xent_backward(const Tensor& probs, std::span<const int> labels, Tensor& dlogits);

/// Row-wise argmax of logits(m,n) into out(m).
void argmax_rows(const Tensor& logits, std::span<int> out);

/// Dot product.
double dot(std::span<const float> a, std::span<const float> b);

/// L2 norm.
double l2_norm(std::span<const float> a);

/// im2col for NCHW conv: input (C,H,W) patch matrix (C*kh*kw, oh*ow).
/// Stride 1, symmetric zero padding `pad`.
void im2col(std::span<const float> image, std::size_t channels, std::size_t height,
            std::size_t width, std::size_t kh, std::size_t kw, std::size_t pad,
            Tensor& columns);

/// col2im: scatter-add the inverse of im2col (for conv backward w.r.t input).
void col2im(const Tensor& columns, std::size_t channels, std::size_t height, std::size_t width,
            std::size_t kh, std::size_t kw, std::size_t pad, std::span<float> image);

}  // namespace ss::ops
