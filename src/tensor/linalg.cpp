#include "tensor/linalg.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/error.h"

namespace embrace {

namespace {
// Blocked inner kernel: out(MxN) += A(MxK) * B(KxN). Loop order i-k-j keeps
// B rows streaming and the innermost loop vectorizable.
void gemm_acc(const float* a, const float* b, float* out, int64_t m,
              int64_t k, int64_t n) {
  constexpr int64_t kBlock = 64;
  for (int64_t i0 = 0; i0 < m; i0 += kBlock) {
    const int64_t i1 = std::min(i0 + kBlock, m);
    for (int64_t kk0 = 0; kk0 < k; kk0 += kBlock) {
      const int64_t kk1 = std::min(kk0 + kBlock, k);
      for (int64_t i = i0; i < i1; ++i) {
        float* out_row = out + i * n;
        const float* a_row = a + i * k;
        for (int64_t kk = kk0; kk < kk1; ++kk) {
          const float aval = a_row[kk];
          if (aval == 0.0f) continue;
          const float* b_row = b + kk * n;
          for (int64_t j = 0; j < n; ++j) out_row[j] += aval * b_row[j];
        }
      }
    }
  }
}

// kRows output rows of C = A * B^T against bt = B^T (K x N): one row of
// double accumulators per output row, swept over c in order, so each output
// is the in-order double sum of float products that a scalar dot product
// forms (the products are exact in double, so the sum rounds the same way
// even if the compiler fuses multiply and add). The j loop has no carried
// dependency and vectorises; every bt element loaded serves kRows rows.
template <int kRows>
void nt_rows(const float* a, const float* bt, double* acc, float* out,
             int64_t k, int64_t n) {
  std::fill(acc, acc + kRows * n, 0.0);
  for (int64_t c = 0; c < k; ++c) {
    double av[kRows] = {};
    for (int r = 0; r < kRows; ++r) av[r] = a[r * k + c];
    const float* bt_row = bt + c * n;
    for (int64_t j = 0; j < n; ++j) {
      const double bv = bt_row[j];
      for (int r = 0; r < kRows; ++r) acc[r * n + j] += av[r] * bv;
    }
  }
  for (int64_t i = 0; i < kRows * n; ++i) out[i] = static_cast<float>(acc[i]);
}
}  // namespace

Tensor matmul(const Tensor& a, const Tensor& b) {
  EMBRACE_CHECK_EQ(a.dim(), 2);
  EMBRACE_CHECK_EQ(b.dim(), 2);
  EMBRACE_CHECK_EQ(a.cols(), b.rows(), << "matmul inner dims");
  Tensor out({a.rows(), b.cols()});
  gemm_acc(a.data(), b.data(), out.data(), a.rows(), a.cols(), b.cols());
  return out;
}

void matmul_acc(const Tensor& a, const Tensor& b, Tensor& out) {
  EMBRACE_CHECK_EQ(a.cols(), b.rows());
  EMBRACE_CHECK_EQ(out.rows(), a.rows());
  EMBRACE_CHECK_EQ(out.cols(), b.cols());
  gemm_acc(a.data(), b.data(), out.data(), a.rows(), a.cols(), b.cols());
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  EMBRACE_CHECK_EQ(a.dim(), 2);
  EMBRACE_CHECK_EQ(b.dim(), 2);
  EMBRACE_CHECK_EQ(a.rows(), b.rows(), << "matmul_tn shared dim");
  // (A^T B)(i,j) = sum_m A(m,i) B(m,j): accumulate outer products row by row.
  Tensor out({a.cols(), b.cols()});
  const int64_t m = a.rows(), i_dim = a.cols(), j_dim = b.cols();
  for (int64_t mm = 0; mm < m; ++mm) {
    const float* a_row = a.data() + mm * i_dim;
    const float* b_row = b.data() + mm * j_dim;
    for (int64_t i = 0; i < i_dim; ++i) {
      const float aval = a_row[i];
      if (aval == 0.0f) continue;
      float* out_row = out.data() + i * j_dim;
      for (int64_t j = 0; j < j_dim; ++j) out_row[j] += aval * b_row[j];
    }
  }
  return out;
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  EMBRACE_CHECK_EQ(a.dim(), 2);
  EMBRACE_CHECK_EQ(b.dim(), 2);
  EMBRACE_CHECK_EQ(a.cols(), b.cols(), << "matmul_nt shared dim");
  const int64_t m = a.rows(), k = a.cols(), n = b.rows();
  Tensor out({m, n});
  const Tensor bt = transpose(b);
  constexpr int kRows = 4;
  std::vector<double> acc(static_cast<size_t>(kRows * n));
  int64_t i = 0;
  for (; i + kRows <= m; i += kRows) {
    nt_rows<kRows>(a.data() + i * k, bt.data(), acc.data(),
                   out.data() + i * n, k, n);
  }
  for (; i < m; ++i) {
    nt_rows<1>(a.data() + i * k, bt.data(), acc.data(), out.data() + i * n,
               k, n);
  }
  return out;
}

Tensor transpose(const Tensor& a) {
  EMBRACE_CHECK_EQ(a.dim(), 2);
  const int64_t rows = a.rows(), cols = a.cols();
  Tensor out({cols, rows});
  const float* src = a.data();
  float* dst = out.data();
  // Square tiles keep both the rows read and the rows written in cache.
  constexpr int64_t kTile = 32;
  for (int64_t i0 = 0; i0 < rows; i0 += kTile) {
    const int64_t i1 = std::min(i0 + kTile, rows);
    for (int64_t j0 = 0; j0 < cols; j0 += kTile) {
      const int64_t j1 = std::min(j0 + kTile, cols);
      for (int64_t i = i0; i < i1; ++i) {
        for (int64_t j = j0; j < j1; ++j) dst[j * rows + i] = src[i * cols + j];
      }
    }
  }
  return out;
}

Tensor softmax_rows(const Tensor& logits) {
  EMBRACE_CHECK_EQ(logits.dim(), 2);
  Tensor out({logits.rows(), logits.cols()});
  for (int64_t r = 0; r < logits.rows(); ++r) {
    auto src = logits.row(r);
    auto dst = out.row(r);
    float mx = src[0];
    for (float v : src) mx = std::max(mx, v);
    double denom = 0.0;
    for (size_t c = 0; c < src.size(); ++c) {
      dst[c] = std::exp(src[c] - mx);
      denom += dst[c];
    }
    const float inv = static_cast<float>(1.0 / denom);
    for (size_t c = 0; c < src.size(); ++c) dst[c] *= inv;
  }
  return out;
}

float cross_entropy_with_grad(const Tensor& logits,
                              const std::vector<int64_t>& targets,
                              Tensor* dlogits) {
  EMBRACE_CHECK_EQ(logits.rows(), static_cast<int64_t>(targets.size()));
  Tensor probs = softmax_rows(logits);
  const int64_t rows = logits.rows();
  double loss = 0.0;
  for (int64_t r = 0; r < rows; ++r) {
    const int64_t t = targets[static_cast<size_t>(r)];
    EMBRACE_CHECK(t >= 0 && t < logits.cols(), << "target out of range");
    loss -= std::log(std::max(probs.row(r)[static_cast<size_t>(t)], 1e-30f));
  }
  loss /= static_cast<double>(rows);
  if (dlogits != nullptr) {
    *dlogits = probs;
    const float scale = 1.0f / static_cast<float>(rows);
    for (int64_t r = 0; r < rows; ++r) {
      auto g = dlogits->row(r);
      for (size_t c = 0; c < g.size(); ++c) g[c] *= scale;
      g[static_cast<size_t>(targets[static_cast<size_t>(r)])] -= scale;
    }
  }
  return static_cast<float>(loss);
}

Tensor tanh_map(const Tensor& x) {
  Tensor out = x;
  for (auto& v : out.flat()) v = std::tanh(v);
  return out;
}

Tensor relu_map(const Tensor& x) {
  Tensor out = x;
  for (auto& v : out.flat()) v = std::max(v, 0.0f);
  return out;
}

Tensor sigmoid_map(const Tensor& x) {
  Tensor out = x;
  for (auto& v : out.flat()) v = 1.0f / (1.0f + std::exp(-v));
  return out;
}

Tensor add_row_broadcast(const Tensor& x, const Tensor& bias) {
  EMBRACE_CHECK_EQ(x.dim(), 2);
  EMBRACE_CHECK_EQ(bias.dim(), 1);
  EMBRACE_CHECK_EQ(x.cols(), bias.numel());
  Tensor out = x;
  for (int64_t r = 0; r < x.rows(); ++r) {
    auto dst = out.row(r);
    for (size_t c = 0; c < dst.size(); ++c) dst[c] += bias[static_cast<int64_t>(c)];
  }
  return out;
}

Tensor sum_rows(const Tensor& x) {
  EMBRACE_CHECK_EQ(x.dim(), 2);
  Tensor out({x.cols()});
  for (int64_t r = 0; r < x.rows(); ++r) {
    auto src = x.row(r);
    for (size_t c = 0; c < src.size(); ++c) out[static_cast<int64_t>(c)] += src[c];
  }
  return out;
}

}  // namespace embrace
