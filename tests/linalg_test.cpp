// Tests for dense linear-algebra kernels, including consistency of the
// transposed-product kernels with explicit transpose + matmul.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/error.h"
#include "common/rng.h"
#include "tensor/linalg.h"

namespace embrace {
namespace {

TEST(Linalg, MatmulSmallKnown) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b({3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = matmul(a, b);
  EXPECT_FLOAT_EQ(c.at({0, 0}), 58.0f);
  EXPECT_FLOAT_EQ(c.at({0, 1}), 64.0f);
  EXPECT_FLOAT_EQ(c.at({1, 0}), 139.0f);
  EXPECT_FLOAT_EQ(c.at({1, 1}), 154.0f);
}

TEST(Linalg, MatmulIdentity) {
  Rng rng(1);
  Tensor a = Tensor::randn({4, 4}, rng);
  Tensor eye({4, 4});
  for (int64_t i = 0; i < 4; ++i) eye.at({i, i}) = 1.0f;
  EXPECT_LT(matmul(a, eye).max_abs_diff(a), 1e-6f);
  EXPECT_LT(matmul(eye, a).max_abs_diff(a), 1e-6f);
}

TEST(Linalg, MatmulRejectsBadShapes) {
  Tensor a({2, 3});
  Tensor b({2, 3});
  EXPECT_THROW(matmul(a, b), Error);
}

TEST(Linalg, MatmulAccAccumulates) {
  Tensor a({1, 2}, {1, 1});
  Tensor b({2, 1}, {2, 3});
  Tensor out = Tensor::full({1, 1}, 10.0f);
  matmul_acc(a, b, out);
  EXPECT_FLOAT_EQ(out[0], 15.0f);
}

// Reference matmul_nt: one scalar dot product per output, summed over c in
// order in double and rounded once to float. The kernel must match it bit
// for bit.
Tensor matmul_nt_reference(const Tensor& a, const Tensor& b) {
  Tensor out({a.rows(), b.rows()});
  for (int64_t i = 0; i < a.rows(); ++i) {
    for (int64_t j = 0; j < b.rows(); ++j) {
      double acc = 0.0;
      for (int64_t c = 0; c < a.cols(); ++c) {
        acc += static_cast<double>(a.at({i, c})) * b.at({j, c});
      }
      out.at({i, j}) = static_cast<float>(acc);
    }
  }
  return out;
}

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.same_shape(b) &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(),
                      static_cast<size_t>(a.byte_size())) == 0);
}

TEST(Linalg, TransposedKernelsMatchExplicitTranspose) {
  Rng rng(42);
  Tensor a = Tensor::randn({5, 7}, rng);
  Tensor b = Tensor::randn({5, 3}, rng);
  // A^T(7x5) * B(5x3)
  Tensor via_tn = matmul_tn(a, b);
  Tensor ref_tn = matmul(transpose(a), b);
  EXPECT_LT(via_tn.max_abs_diff(ref_tn), 1e-4f);

  Tensor c = Tensor::randn({4, 7}, rng);
  // A(5x7) * C^T(7x4)
  Tensor via_nt = matmul_nt(a, c);
  Tensor ref_nt = matmul(a, transpose(c));
  EXPECT_LT(via_nt.max_abs_diff(ref_nt), 1e-4f);
  EXPECT_TRUE(bitwise_equal(via_nt, matmul_nt_reference(a, c)));
}

TEST(Linalg, MatmulNtBitwiseMatchesScalarDotProducts) {
  // Odd and degenerate shapes (1x1, an empty inner dimension, no rows,
  // row counts off the 4-row block), a classifier head's shape, then
  // random ones. Wide value ranges with cancellation make any change of
  // summation order or precision show in the low bits.
  std::vector<std::array<int64_t, 3>> shapes = {
      {1, 1, 1}, {3, 0, 5},   {0, 4, 3},      {5, 7, 1},
      {4, 9, 6}, {7, 13, 31}, {32, 200, 256}, {33, 64, 17}};
  Rng rng(99);
  for (int i = 0; i < 60; ++i) {
    shapes.push_back({rng.next_int(0, 11), rng.next_int(0, 70),
                      rng.next_int(0, 40)});
  }
  for (const auto& [m, k, n] : shapes) {
    Tensor a = Tensor::randn({m, k}, rng, 100.0f);
    Tensor b = Tensor::randn({n, k}, rng);
    // Zeros of both signs and subnormals in the operands as well.
    for (int64_t e = 0; e < a.numel(); e += 5) a[e] = e % 2 ? -0.0f : 0.0f;
    for (int64_t e = 3; e < b.numel(); e += 7) {
      b[e] = std::numeric_limits<float>::denorm_min() * static_cast<float>(e);
    }
    EXPECT_TRUE(bitwise_equal(matmul_nt(a, b), matmul_nt_reference(a, b)))
        << m << "x" << k << " * (" << n << "x" << k << ")^T";
  }
}

TEST(Linalg, TransposeRoundTrip) {
  Rng rng(3);
  Tensor a = Tensor::randn({6, 2}, rng);
  EXPECT_LT(transpose(transpose(a)).max_abs_diff(a), 1e-7f);
}

TEST(Linalg, SoftmaxRowsSumToOne) {
  Rng rng(5);
  Tensor logits = Tensor::randn({8, 16}, rng, 3.0f);
  Tensor p = softmax_rows(logits);
  for (int64_t r = 0; r < p.rows(); ++r) {
    double s = 0.0;
    for (float v : p.row(r)) {
      EXPECT_GE(v, 0.0f);
      s += v;
    }
    EXPECT_NEAR(s, 1.0, 1e-5);
  }
}

TEST(Linalg, SoftmaxNumericallyStableForLargeLogits) {
  Tensor logits({1, 3}, {1000.0f, 1000.0f, 500.0f});
  Tensor p = softmax_rows(logits);
  EXPECT_NEAR(p[0], 0.5f, 1e-5f);
  EXPECT_NEAR(p[1], 0.5f, 1e-5f);
  EXPECT_NEAR(p[2], 0.0f, 1e-5f);
}

TEST(Linalg, CrossEntropyKnownValue) {
  // Uniform logits over 4 classes: loss = log(4).
  Tensor logits({2, 4});
  float loss = cross_entropy_with_grad(logits, {0, 3}, nullptr);
  EXPECT_NEAR(loss, std::log(4.0f), 1e-5f);
}

TEST(Linalg, CrossEntropyGradMatchesFiniteDifference) {
  Rng rng(7);
  Tensor logits = Tensor::randn({3, 5}, rng);
  const std::vector<int64_t> targets{1, 4, 0};
  Tensor grad;
  const float base = cross_entropy_with_grad(logits, targets, &grad);
  const float eps = 1e-3f;
  for (int64_t i = 0; i < logits.numel(); ++i) {
    Tensor bumped = logits;
    bumped[i] += eps;
    const float up = cross_entropy_with_grad(bumped, targets, nullptr);
    bumped[i] -= 2 * eps;
    const float down = cross_entropy_with_grad(bumped, targets, nullptr);
    const float fd = (up - down) / (2 * eps);
    EXPECT_NEAR(grad[i], fd, 5e-3f) << "logit index " << i;
    (void)base;
  }
}

TEST(Linalg, CrossEntropyRejectsBadTargets) {
  Tensor logits({1, 3});
  EXPECT_THROW(cross_entropy_with_grad(logits, {3}, nullptr), Error);
  EXPECT_THROW(cross_entropy_with_grad(logits, {0, 1}, nullptr), Error);
}

TEST(Linalg, ElementwiseMaps) {
  Tensor x({4}, {-1.0f, 0.0f, 0.5f, 2.0f});
  Tensor t = tanh_map(x);
  EXPECT_NEAR(t[0], std::tanh(-1.0f), 1e-6f);
  Tensor r = relu_map(x);
  EXPECT_EQ(r[0], 0.0f);
  EXPECT_EQ(r[3], 2.0f);
  Tensor s = sigmoid_map(x);
  EXPECT_NEAR(s[1], 0.5f, 1e-6f);
  EXPECT_GT(s[3], 0.8f);
}

TEST(Linalg, AddRowBroadcast) {
  Tensor x({2, 3}, {0, 0, 0, 1, 1, 1});
  Tensor bias({3}, {10, 20, 30});
  Tensor y = add_row_broadcast(x, bias);
  EXPECT_FLOAT_EQ(y.at({0, 1}), 20.0f);
  EXPECT_FLOAT_EQ(y.at({1, 2}), 31.0f);
}

TEST(Linalg, SumRows) {
  Tensor x({3, 2}, {1, 2, 3, 4, 5, 6});
  Tensor s = sum_rows(x);
  EXPECT_FLOAT_EQ(s[0], 9.0f);
  EXPECT_FLOAT_EQ(s[1], 12.0f);
}

// Property: (A·B)·C == A·(B·C) within fp tolerance for random shapes.
class MatmulAssociativity : public ::testing::TestWithParam<int> {};

TEST_P(MatmulAssociativity, HoldsForRandomShapes) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 100);
  const int64_t m = rng.next_int(1, 12);
  const int64_t k = rng.next_int(1, 12);
  const int64_t l = rng.next_int(1, 12);
  const int64_t n = rng.next_int(1, 12);
  Tensor a = Tensor::randn({m, k}, rng);
  Tensor b = Tensor::randn({k, l}, rng);
  Tensor c = Tensor::randn({l, n}, rng);
  Tensor left = matmul(matmul(a, b), c);
  Tensor right = matmul(a, matmul(b, c));
  EXPECT_LT(left.max_abs_diff(right), 1e-3f);
}

INSTANTIATE_TEST_SUITE_P(RandomizedSweep, MatmulAssociativity,
                         ::testing::Range(0, 10));

}  // namespace
}  // namespace embrace
