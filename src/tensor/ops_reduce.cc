// Reductions, softmax family, layer normalization, and loss helpers.
//
// Row-wise ops parallelize over rows (each row is written by exactly one
// chunk). Cross-row reductions (SumAll, LayerNorm's gamma/beta grads) keep
// determinism by accumulating per-chunk partials at fixed chunk boundaries
// and combining them serially in chunk index order — so results are
// bit-identical at every thread count.
#include <cmath>
#include <cstring>

#include "tensor/capture.h"
#include "tensor/op_kernels.h"
#include "tensor/ops.h"
#include "tensor/ops_internal.h"
#include "tensor/pool.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace tfmae::ops {
namespace {

using internal::ParallelRows;
using internal::RowGrain;
using internal::SetGraph;
using internal::ShouldTrack;

// Fixed chunk size for flat deterministic reductions.
constexpr std::int64_t kSumChunk = 1 << 16;

// Interprets x as [rows, cols] with cols = last dimension.
void RowView(const Tensor& x, std::int64_t* rows, std::int64_t* cols) {
  TFMAE_CHECK(x.rank() >= 1);
  *cols = x.shape().back();
  *rows = x.numel() / *cols;
}

}  // namespace

Tensor SumAll(const Tensor& x) {
  Tensor out = Tensor::Empty({1});
  const float* px = x.data();
  const std::int64_t n = x.numel();
  if (n < internal::kParallelThreshold) {
    double acc = 0.0;
    for (std::int64_t i = 0; i < n; ++i) acc += px[i];
    out.data()[0] = static_cast<float>(acc);
  } else {
    // Per-chunk double partials at fixed boundaries, combined in index
    // order: the same bits at any thread count.
    const std::int64_t nchunks = (n + kSumChunk - 1) / kSumChunk;
    std::vector<double> partials(static_cast<std::size_t>(nchunks), 0.0);
    double* pp = partials.data();
    ParallelFor(0, n, kSumChunk, [=](std::int64_t s, std::int64_t e) {
      double acc = 0.0;
      for (std::int64_t i = s; i < e; ++i) acc += px[i];
      pp[s / kSumChunk] = acc;
    });
    double total = 0.0;
    for (std::int64_t c = 0; c < nchunks; ++c) total += pp[c];
    out.data()[0] = static_cast<float>(total);
  }
  capture::NoteUnsupported("SumAll");
  if (ShouldTrack({x})) {
    SetGraph(&out, "SumAll", {x}, [x](TensorImpl& self) {
      if (!x.requires_grad()) return;
      const float g = self.grad.get()[0];
      pool::Scratch gx(x.numel());
      std::fill(gx.data(), gx.data() + x.numel(), g);
      internal::AccumulateGrad(x, gx.data());
    });
  }
  return out;
}

Tensor MeanAll(const Tensor& x) {
  return Scale(SumAll(x), 1.0f / static_cast<float>(x.numel()));
}

Tensor Softmax(const Tensor& x) {
  std::int64_t rows = 0;
  std::int64_t cols = 0;
  RowView(x, &rows, &cols);
  Tensor out = Tensor::Empty(x.shape());
  const float* px = x.data();
  float* po = out.data();
  ParallelRows(rows, cols, [=](std::int64_t r0, std::int64_t r1) {
    kernels::SoftmaxRows(px + r0 * cols, po + r0 * cols, r1 - r0, cols, 1.0f);
  });
  capture::NoteUnsupported("Softmax");
  if (ShouldTrack({x})) {
    // The backward needs the output values y; they are reachable through
    // `self` (capturing the output Tensor here would create a shared_ptr
    // cycle and leak the graph).
    SetGraph(&out, "Softmax", {x}, [x, rows, cols](TensorImpl& self) {
      if (!x.requires_grad()) return;
      const float* grad = self.grad.get();
      const float* py = self.data.get();
      pool::Scratch gx(x.numel());
      float* pgx = gx.data();
      ParallelRows(rows, cols, [=](std::int64_t r0, std::int64_t r1) {
        for (std::int64_t r = r0; r < r1; ++r) {
          const float* gy = grad + r * cols;
          const float* yr = py + r * cols;
          float dot = 0.0f;
          for (std::int64_t j = 0; j < cols; ++j) dot += gy[j] * yr[j];
          float* gxr = pgx + r * cols;
          for (std::int64_t j = 0; j < cols; ++j) {
            gxr[j] = yr[j] * (gy[j] - dot);
          }
        }
      });
      internal::AccumulateGrad(x, gx.data());
    });
  }
  return out;
}

Tensor ScaleSoftmax(const Tensor& x, float scale) {
  std::int64_t rows = 0;
  std::int64_t cols = 0;
  RowView(x, &rows, &cols);
  Tensor out = Tensor::Empty(x.shape());
  const float* px = x.data();
  float* po = out.data();
  // The arithmetic is exactly Softmax(Scale(x, scale)): the fused op must
  // stay bit-identical to the composition it replaces (pinned by
  // ops_property_test).
  ParallelRows(rows, cols, [=](std::int64_t r0, std::int64_t r1) {
    kernels::SoftmaxRows(px + r0 * cols, po + r0 * cols, r1 - r0, cols,
                         scale);
  });
  capture::NoteScaleSoftmax(x, scale, out);
  if (ShouldTrack({x})) {
    SetGraph(&out, "ScaleSoftmax", {x},
             [x, rows, cols, scale](TensorImpl& self) {
               if (!x.requires_grad()) return;
               const float* grad = self.grad.get();
               const float* py = self.data.get();
               // src is the softmax backward w.r.t. the scaled input; the
               // chain rule through Scale is the final scale factor, applied
               // in AccumulateGradScaled exactly as the composed Scale
               // backward would.
               pool::Scratch src(x.numel());
               float* psrc = src.data();
               ParallelRows(rows, cols, [=](std::int64_t r0, std::int64_t r1) {
                 for (std::int64_t r = r0; r < r1; ++r) {
                   const float* gy = grad + r * cols;
                   const float* yr = py + r * cols;
                   float dot = 0.0f;
                   for (std::int64_t j = 0; j < cols; ++j) dot += gy[j] * yr[j];
                   float* sr = psrc + r * cols;
                   for (std::int64_t j = 0; j < cols; ++j) {
                     sr[j] = yr[j] * (gy[j] - dot);
                   }
                 }
               });
               internal::AccumulateGradScaled(x, src.data(), scale);
             });
  }
  return out;
}

Tensor LogSoftmax(const Tensor& x) {
  std::int64_t rows = 0;
  std::int64_t cols = 0;
  RowView(x, &rows, &cols);
  Tensor out = Tensor::Empty(x.shape());
  const float* px = x.data();
  float* po = out.data();
  ParallelRows(rows, cols, [=](std::int64_t r0, std::int64_t r1) {
    for (std::int64_t r = r0; r < r1; ++r) {
      const float* in = px + r * cols;
      float* o = po + r * cols;
      float max_v = in[0];
      for (std::int64_t j = 1; j < cols; ++j) max_v = std::max(max_v, in[j]);
      float sum = 0.0f;
      for (std::int64_t j = 0; j < cols; ++j) sum += std::exp(in[j] - max_v);
      const float log_sum = std::log(sum) + max_v;
      for (std::int64_t j = 0; j < cols; ++j) o[j] = in[j] - log_sum;
    }
  });
  capture::NoteUnsupported("LogSoftmax");
  if (ShouldTrack({x})) {
    SetGraph(&out, "LogSoftmax", {x}, [x, rows, cols](TensorImpl& self) {
      if (!x.requires_grad()) return;
      const float* grad = self.grad.get();
      const float* py = self.data.get();
      pool::Scratch gx(x.numel());
      float* pgx = gx.data();
      ParallelRows(rows, cols, [=](std::int64_t r0, std::int64_t r1) {
        for (std::int64_t r = r0; r < r1; ++r) {
          const float* gy = grad + r * cols;
          const float* yr = py + r * cols;
          float gsum = 0.0f;
          for (std::int64_t j = 0; j < cols; ++j) gsum += gy[j];
          float* gxr = pgx + r * cols;
          for (std::int64_t j = 0; j < cols; ++j) {
            gxr[j] = gy[j] - std::exp(yr[j]) * gsum;
          }
        }
      });
      internal::AccumulateGrad(x, gx.data());
    });
  }
  return out;
}

Tensor LayerNormOp(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                   float eps) {
  std::int64_t rows = 0;
  std::int64_t cols = 0;
  RowView(x, &rows, &cols);
  TFMAE_CHECK_MSG(gamma.numel() == cols && beta.numel() == cols,
                  "LayerNorm affine parameters must have " << cols
                                                           << " elements");
  Tensor out = Tensor::Empty(x.shape());
  // Cache per-row mean and inverse std for backward.
  Tensor mean = Tensor::Empty({rows});
  Tensor inv_std = Tensor::Empty({rows});
  const float* px = x.data();
  const float* pg = gamma.data();
  const float* pb = beta.data();
  float* po = out.data();
  float* pmean = mean.data();
  float* pinv = inv_std.data();
  ParallelRows(rows, cols, [=](std::int64_t r0, std::int64_t r1) {
    for (std::int64_t r = r0; r < r1; ++r) {
      kernels::LayerNormRow(px + r * cols, pg, pb, cols, eps, po + r * cols,
                            pmean + r, pinv + r);
    }
  });
  capture::NoteLayerNorm(x, gamma, beta, eps, out);
  if (ShouldTrack({x, gamma, beta})) {
    SetGraph(&out, "LayerNorm", {x, gamma, beta},
             [x, gamma, beta, mean, inv_std, rows, cols](TensorImpl& self) {
               const float* grad = self.grad.get();
               const float* px = x.data();
               const float* pg = gamma.data();
               pool::Scratch gx(x.numel());  // every element written
               // The gamma/beta gradients reduce over rows: accumulate one
               // partial pair per row chunk, then combine in chunk order.
               const std::int64_t grain = RowGrain(cols);
               const std::int64_t nchunks = (rows + grain - 1) / grain;
               pool::Scratch partials(nchunks * 2 * cols, /*zero_fill=*/true);
               float* pgx = gx.data();
               float* ppart = partials.data();
               const float* pmean = mean.data();
               const float* pinv = inv_std.data();
               ParallelRows(rows, cols, [=](std::int64_t r0, std::int64_t r1) {
                 float* pggamma = ppart + (r0 / grain) * 2 * cols;
                 float* pgbeta = pggamma + cols;
                 for (std::int64_t r = r0; r < r1; ++r) {
                   const float mu = pmean[r];
                   const float istd = pinv[r];
                   const float* in = px + r * cols;
                   const float* gy = grad + r * cols;
                   // dxhat, plus the two row-wide reductions of the standard
                   // layer-norm backward.
                   float sum_dxhat = 0.0f;
                   float sum_dxhat_xhat = 0.0f;
                   for (std::int64_t j = 0; j < cols; ++j) {
                     const float xhat = (in[j] - mu) * istd;
                     const float dxhat = gy[j] * pg[j];
                     sum_dxhat += dxhat;
                     sum_dxhat_xhat += dxhat * xhat;
                     pggamma[j] += gy[j] * xhat;
                     pgbeta[j] += gy[j];
                   }
                   const float inv_cols = 1.0f / static_cast<float>(cols);
                   float* gxr = pgx + r * cols;
                   for (std::int64_t j = 0; j < cols; ++j) {
                     const float xhat = (in[j] - mu) * istd;
                     const float dxhat = gy[j] * pg[j];
                     gxr[j] = istd * (dxhat - inv_cols * sum_dxhat -
                                      xhat * inv_cols * sum_dxhat_xhat);
                   }
                 }
               });
               pool::Scratch ggamma(cols, /*zero_fill=*/true);
               pool::Scratch gbeta(cols, /*zero_fill=*/true);
               for (std::int64_t c = 0; c < nchunks; ++c) {
                 const float* pggamma = ppart + c * 2 * cols;
                 const float* pgbeta = pggamma + cols;
                 for (std::int64_t j = 0; j < cols; ++j) {
                   ggamma.data()[j] += pggamma[j];
                   gbeta.data()[j] += pgbeta[j];
                 }
               }
               internal::AccumulateGrad(x, gx.data());
               internal::AccumulateGrad(gamma, ggamma.data());
               internal::AccumulateGrad(beta, gbeta.data());
             });
  }
  return out;
}

Tensor MseLoss(const Tensor& prediction, const Tensor& target) {
  Tensor diff = Sub(prediction, target);
  return MeanAll(Square(diff));
}

Tensor KlDivLoss(const Tensor& p_logits, const Tensor& q_logits) {
  TFMAE_CHECK_MSG(SameShape(p_logits.shape(), q_logits.shape()),
                  "KlDivLoss shape mismatch");
  std::int64_t rows = 0;
  std::int64_t cols = 0;
  RowView(p_logits, &rows, &cols);
  Tensor p_log = LogSoftmax(p_logits);
  Tensor q_log = LogSoftmax(q_logits);
  Tensor p = Exp(p_log);
  Tensor elem = Mul(p, Sub(p_log, q_log));
  return Scale(SumAll(elem), 1.0f / static_cast<float>(rows));
}

Tensor SymmetricKlLoss(const Tensor& p_logits, const Tensor& q_logits) {
  return Add(KlDivLoss(p_logits, q_logits), KlDivLoss(q_logits, p_logits));
}

std::vector<float> SymmetricKlPerRow(const Tensor& p_logits,
                                     const Tensor& q_logits) {
  TFMAE_CHECK_MSG(SameShape(p_logits.shape(), q_logits.shape()),
                  "SymmetricKlPerRow shape mismatch");
  std::int64_t rows = 0;
  std::int64_t cols = 0;
  RowView(p_logits, &rows, &cols);
  std::vector<float> scores(static_cast<std::size_t>(rows), 0.0f);
  const float* pp = p_logits.data();
  const float* pq = q_logits.data();
  float* ps = scores.data();
  ParallelRows(rows, cols, [=](std::int64_t r0, std::int64_t r1) {
    pool::Scratch p(cols);
    pool::Scratch q(cols);
    for (std::int64_t r = r0; r < r1; ++r) {
      ps[r] = kernels::SymmetricKlRow(pp + r * cols, pq + r * cols, cols,
                                      p.data(), q.data());
    }
  });
  capture::NoteSymKlPerRow(p_logits, q_logits);
  return scores;
}

}  // namespace tfmae::ops
