// Elementwise binary/unary/scalar operators.
//
// Large loops are dispatched over the thread pool in fixed-size chunks
// (see ops_internal.h); every chunk writes a disjoint slice of the output,
// so results are bit-identical at any pool size.
#include <algorithm>
#include <atomic>
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

namespace internal {

namespace {
std::atomic<std::int64_t> g_graph_nodes{0};
}  // namespace

bool ShouldTrack(std::initializer_list<Tensor> inputs) {
  if (!GradModeEnabled()) return false;
  for (const Tensor& t : inputs) {
    if (t.defined() && t.requires_grad()) return true;
  }
  return false;
}

void SetGraph(Tensor* out, const char* op, std::vector<Tensor> inputs,
              std::function<void(TensorImpl&)> backward_fn) {
  g_graph_nodes.fetch_add(1, std::memory_order_relaxed);
  out->set_requires_grad(true);
  out->impl()->op = op;
  out->impl()->inputs = std::move(inputs);
  out->impl()->backward_fn = std::move(backward_fn);
}

std::int64_t GraphNodesCreated() {
  return g_graph_nodes.load(std::memory_order_relaxed);
}

void AccumulateGrad(const Tensor& t, const float* src) {
  AccumulateGradScaled(t, src, 1.0f);
}

void AccumulateGradScaled(const Tensor& t, const float* src, float scale) {
  if (!t.defined() || !t.requires_grad()) return;
  float* g = t.impl()->EnsureGrad();
  ParallelElems(t.numel(), [g, src, scale](std::int64_t s, std::int64_t e) {
    for (std::int64_t i = s; i < e; ++i) g[i] += scale * src[i];
  });
}

void ParallelElems(std::int64_t n,
                   const std::function<void(std::int64_t, std::int64_t)>& fn) {
  if (n < kParallelThreshold) {
    fn(0, n);
    return;
  }
  ParallelFor(0, n, kElemGrain, fn);
}

std::int64_t RowGrain(std::int64_t cols) {
  return std::max<std::int64_t>(
      1, kParallelThreshold / std::max<std::int64_t>(1, cols));
}

std::int64_t ParallelRows(
    std::int64_t rows, std::int64_t cols,
    const std::function<void(std::int64_t, std::int64_t)>& fn) {
  const std::int64_t grain = RowGrain(cols);
  if (rows * cols < kParallelThreshold) {
    fn(0, rows);
  } else {
    ParallelFor(0, rows, grain, fn);
  }
  return grain;
}

}  // namespace internal

namespace {

using internal::ParallelElems;
using internal::SetGraph;
using internal::ShouldTrack;

// The per-element arithmetic lives in op_kernels.h, shared with the
// pre-planned inference executor (bitwise identity by construction).
using kernels::BinaryKind;

// Resolves the broadcast layout: `big` iterates fully, `small` repeats every
// small->numel() elements. Returns (big, small, small_is_lhs).
struct BroadcastPlan {
  Tensor big;
  Tensor small;
  bool small_is_lhs = false;
};

BroadcastPlan PlanBroadcast(const Tensor& a, const Tensor& b) {
  TFMAE_CHECK(a.defined() && b.defined());
  if (SameShape(a.shape(), b.shape())) return {a, b, false};
  if (b.numel() == 1 || IsSuffixOf(b.shape(), a.shape())) return {a, b, false};
  if (a.numel() == 1 || IsSuffixOf(a.shape(), b.shape())) return {b, a, true};
  TFMAE_CHECK_MSG(false, "incompatible broadcast shapes "
                             << ShapeToString(a.shape()) << " vs "
                             << ShapeToString(b.shape()));
  return {};
}

// Sums `grad` (numel = big) blockwise into a small-tensor-sized buffer
// (caller-provided, at least small_n floats): out[j] starts at 0.0f and
// adds grad[j], grad[j + small_n], ... in ascending row order. Serial: the
// accumulation order over the big range is part of the deterministic
// contract.
void ReduceToSmall(const float* grad, std::int64_t big_n, std::int64_t small_n,
                   float* out) {
  std::fill(out, out + small_n, 0.0f);
  for (std::int64_t r = 0; r < big_n; r += small_n) {
    const float* row = grad + r;
    for (std::int64_t j = 0; j < small_n; ++j) out[j] += row[j];
  }
}

// grad * d(out)/d(big) and grad * d(out)/d(small) at one element, with
// bv = big and sv = small. Add and Sub multiply by +-1, which is exact, so
// those are the gradient itself or its negation.
template <BinaryKind K, bool kSmallLhs>
float BigGrad(float g, float bv, float sv) {
  if constexpr (K == BinaryKind::kAdd) {
    return g;
  } else if constexpr (K == BinaryKind::kSub) {
    return kSmallLhs ? -g : g;  // out = lhs - rhs; lhs is small when kSmallLhs
  } else if constexpr (K == BinaryKind::kMul) {
    return g * sv;
  } else if constexpr (kSmallLhs) {
    return g * (-sv / (bv * bv));  // out = small / big
  } else {
    return g * (1.0f / sv);  // out = big / small
  }
}

template <BinaryKind K, bool kSmallLhs>
float SmallGrad(float g, float bv, float sv) {
  if constexpr (K == BinaryKind::kAdd) {
    return g;
  } else if constexpr (K == BinaryKind::kSub) {
    return kSmallLhs ? g : -g;
  } else if constexpr (K == BinaryKind::kMul) {
    return g * bv;
  } else if constexpr (kSmallLhs) {
    return g * (1.0f / bv);
  } else {
    return g * (-bv / (sv * sv));
  }
}

// BinaryOp's backward. The big operand's gradient takes grad * d(big) in
// place; the small one's is column-summed from 0.0f in ascending row order
// (ReduceToSmall's order) and accumulated after the big one's, which is
// the order the gradient of x op x sums in.
template <BinaryKind K, bool kSmallLhs>
void BinaryBackward(const float* grad, const Tensor& big, const Tensor& small) {
  const std::int64_t big_n = big.numel();
  const std::int64_t period = small.numel();
  const float* pb = big.data();
  const float* ps = small.data();
  if (big.requires_grad()) {
    float* gb = big.impl()->EnsureGrad();
    ParallelElems(big_n, [=](std::int64_t s, std::int64_t e) {
      kernels::ForEachPeriodRun(
          period, s, e, [=](std::int64_t i, std::int64_t j, std::int64_t n) {
            for (std::int64_t k = 0; k < n; ++k) {
              gb[i + k] +=
                  BigGrad<K, kSmallLhs>(grad[i + k], pb[i + k], ps[j + k]);
            }
          });
    });
  }
  if (small.requires_grad()) {
    pool::Scratch acc(period);
    float* pa = acc.data();
    // Parallel over columns only: each column keeps its row order.
    ParallelElems(period, [=](std::int64_t c0, std::int64_t c1) {
      std::fill(pa + c0, pa + c1, 0.0f);
      for (std::int64_t r = 0; r < big_n; r += period) {
        for (std::int64_t j = c0; j < c1; ++j) {
          pa[j] += SmallGrad<K, kSmallLhs>(grad[r + j], pb[r + j], ps[j]);
        }
      }
    });
    internal::AccumulateGrad(small, pa);
  }
}

template <BinaryKind K>
void BinaryBackwardK(const float* grad, const BroadcastPlan& plan) {
  if (plan.small_is_lhs) {
    BinaryBackward<K, true>(grad, plan.big, plan.small);
  } else {
    BinaryBackward<K, false>(grad, plan.big, plan.small);
  }
}

const char* BinaryOpName(BinaryKind kind) {
  switch (kind) {
    case BinaryKind::kAdd:
      return "Add";
    case BinaryKind::kSub:
      return "Sub";
    case BinaryKind::kMul:
      return "Mul";
    case BinaryKind::kDiv:
      return "Div";
  }
  return "BinaryOp";
}

Tensor BinaryOp(const Tensor& a, const Tensor& b, BinaryKind kind) {
  BroadcastPlan plan = PlanBroadcast(a, b);
  const std::int64_t big_n = plan.big.numel();
  TFMAE_CHECK(big_n % plan.small.numel() == 0);

  Tensor out = Tensor::Empty(plan.big.shape());
  const float* pa = a.data();
  const float* pb = b.data();
  const std::int64_t a_n = a.numel();
  const std::int64_t b_n = b.numel();
  float* po = out.data();
  ParallelElems(big_n, [=](std::int64_t s, std::int64_t e) {
    kernels::BinaryRange(kind, pa, a_n, pb, b_n, s, e, po);
  });
  capture::NoteBinary(static_cast<int>(kind), a, b, out);

  if (ShouldTrack({a, b})) {
    SetGraph(&out, BinaryOpName(kind), {a, b}, [a, b, kind](TensorImpl& self) {
      const BroadcastPlan plan = PlanBroadcast(a, b);
      const float* grad = self.grad.get();
      switch (kind) {
        case BinaryKind::kAdd:
          return BinaryBackwardK<BinaryKind::kAdd>(grad, plan);
        case BinaryKind::kSub:
          return BinaryBackwardK<BinaryKind::kSub>(grad, plan);
        case BinaryKind::kMul:
          return BinaryBackwardK<BinaryKind::kMul>(grad, plan);
        case BinaryKind::kDiv:
          return BinaryBackwardK<BinaryKind::kDiv>(grad, plan);
      }
    });
  }
  return out;
}

Tensor UnaryOp(const Tensor& x, const char* op, float (*fwd)(float),
               float (*bwd)(float)) {
  Tensor out = Tensor::Empty(x.shape());
  const float* px = x.data();
  float* po = out.data();
  ParallelElems(x.numel(), [=](std::int64_t s, std::int64_t e) {
    for (std::int64_t i = s; i < e; ++i) po[i] = fwd(px[i]);
  });
  capture::NoteUnsupported(op);
  if (ShouldTrack({x})) {
    SetGraph(&out, op, {x}, [x, bwd](TensorImpl& self) {
      const float* grad = self.grad.get();
      const float* px = x.data();
      const std::int64_t n = x.numel();
      pool::Scratch gx(n);
      float* pgx = gx.data();
      ParallelElems(n, [=](std::int64_t s, std::int64_t e) {
        for (std::int64_t i = s; i < e; ++i) pgx[i] = grad[i] * bwd(px[i]);
      });
      internal::AccumulateGrad(x, gx.data());
    });
  }
  return out;
}

constexpr float kLogFloor = 1e-12f;

float FwdNeg(float v) { return -v; }
float BwdNeg(float) { return -1.0f; }
float FwdExp(float v) { return std::exp(v); }
float BwdExp(float v) { return std::exp(v); }
float FwdLog(float v) { return std::log(v < kLogFloor ? kLogFloor : v); }
float BwdLog(float v) { return 1.0f / (v < kLogFloor ? kLogFloor : v); }
float FwdSqrt(float v) { return std::sqrt(v < 0.0f ? 0.0f : v); }
float BwdSqrt(float v) {
  const float clamped = v < 1e-12f ? 1e-12f : v;
  return 0.5f / std::sqrt(clamped);
}
float FwdSquare(float v) { return v * v; }
float BwdSquare(float v) { return 2.0f * v; }
float FwdRelu(float v) { return v > 0.0f ? v : 0.0f; }
float BwdRelu(float v) { return v > 0.0f ? 1.0f : 0.0f; }
float FwdTanh(float v) { return std::tanh(v); }
float BwdTanh(float v) {
  const float t = std::tanh(v);
  return 1.0f - t * t;
}
float FwdSigmoid(float v) { return 1.0f / (1.0f + std::exp(-v)); }
float BwdSigmoid(float v) {
  const float s = 1.0f / (1.0f + std::exp(-v));
  return s * (1.0f - s);
}

using kernels::kGeluC;  // sqrt(2/pi)

float FwdGelu(float v) { return kernels::GeluApprox(v); }
float BwdGelu(float v) {
  const float t = kernels::FastTanh(kernels::GeluInner(v));
  const float d_inner = kGeluC * (1.0f + 3.0f * 0.044715f * v * v);
  return 0.5f * (1.0f + t) + 0.5f * v * (1.0f - t * t) * d_inner;
}

}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) {
  return BinaryOp(a, b, BinaryKind::kAdd);
}
Tensor Sub(const Tensor& a, const Tensor& b) {
  return BinaryOp(a, b, BinaryKind::kSub);
}
Tensor Mul(const Tensor& a, const Tensor& b) {
  return BinaryOp(a, b, BinaryKind::kMul);
}
Tensor Div(const Tensor& a, const Tensor& b) {
  return BinaryOp(a, b, BinaryKind::kDiv);
}

Tensor Scale(const Tensor& x, float c) {
  Tensor out = Tensor::Empty(x.shape());
  const float* px = x.data();
  float* po = out.data();
  ParallelElems(x.numel(), [=](std::int64_t s, std::int64_t e) {
    for (std::int64_t i = s; i < e; ++i) po[i] = px[i] * c;
  });
  capture::NoteUnsupported("Scale");
  if (ShouldTrack({x})) {
    SetGraph(&out, "Scale", {x}, [x, c](TensorImpl& self) {
      internal::AccumulateGradScaled(x, self.grad.get(), c);
    });
  }
  return out;
}

Tensor AddScalar(const Tensor& x, float c) {
  Tensor out = Tensor::Empty(x.shape());
  const float* px = x.data();
  float* po = out.data();
  ParallelElems(x.numel(), [=](std::int64_t s, std::int64_t e) {
    for (std::int64_t i = s; i < e; ++i) po[i] = px[i] + c;
  });
  capture::NoteUnsupported("AddScalar");
  if (ShouldTrack({x})) {
    SetGraph(&out, "AddScalar", {x}, [x](TensorImpl& self) {
      internal::AccumulateGrad(x, self.grad.get());
    });
  }
  return out;
}

Tensor Neg(const Tensor& x) { return UnaryOp(x, "Neg", FwdNeg, BwdNeg); }
Tensor Exp(const Tensor& x) { return UnaryOp(x, "Exp", FwdExp, BwdExp); }
Tensor Log(const Tensor& x) { return UnaryOp(x, "Log", FwdLog, BwdLog); }
Tensor Sqrt(const Tensor& x) { return UnaryOp(x, "Sqrt", FwdSqrt, BwdSqrt); }
Tensor Square(const Tensor& x) {
  return UnaryOp(x, "Square", FwdSquare, BwdSquare);
}
Tensor Relu(const Tensor& x) { return UnaryOp(x, "Relu", FwdRelu, BwdRelu); }
Tensor Gelu(const Tensor& x) { return UnaryOp(x, "Gelu", FwdGelu, BwdGelu); }
Tensor Tanh(const Tensor& x) { return UnaryOp(x, "Tanh", FwdTanh, BwdTanh); }
Tensor Sigmoid(const Tensor& x) {
  return UnaryOp(x, "Sigmoid", FwdSigmoid, BwdSigmoid);
}

Tensor BiasGelu(const Tensor& x, const Tensor& bias) {
  TFMAE_CHECK(x.defined() && bias.defined());
  TFMAE_CHECK_MSG(bias.numel() == 1 || IsSuffixOf(bias.shape(), x.shape()),
                  "BiasGelu bias " << ShapeToString(bias.shape())
                                   << " must broadcast over "
                                   << ShapeToString(x.shape()));
  const std::int64_t n = x.numel();
  const std::int64_t bn = bias.numel();
  Tensor out = Tensor::Empty(x.shape());
  const float* px = x.data();
  const float* pb = bias.data();
  float* po = out.data();
  const bool track = ShouldTrack({x, bias});
  // When tracking, the forward's tanh values are cached in a pool-backed
  // side tensor so the backward does not pay the transcendental again.
  // Reading the stored value is bitwise-equal to recomputing it, so the
  // fusion stays indistinguishable from Gelu(Add(x, bias)).
  Tensor tanh_cache;
  if (track) tanh_cache = Tensor::Empty(x.shape());
  float* pt = track ? tanh_cache.data() : nullptr;
  // One pass instead of materializing x + bias: same per-element arithmetic
  // as Gelu(Add(x, bias)), so the fusion is bitwise-invisible. The kernel is
  // the one the inference plan replays.
  ParallelElems(n, [=](std::int64_t s, std::int64_t e) {
    kernels::BiasGeluRange(px, pb, bn, s, e, po, pt);
  });
  capture::NoteBiasGelu(x, bias, out);
  if (track) {
    SetGraph(&out, "BiasGelu", {x, bias},
             [x, bias, tanh_cache](TensorImpl& self) {
               const float* grad = self.grad.get();
               const float* px = x.data();
               const float* pb = bias.data();
               const float* pt = tanh_cache.data();
               const std::int64_t n = x.numel();
               const std::int64_t bn = bias.numel();
               // d(out)/d(pre) with pre = x + bias recomputed on the fly
               // (cheap) and tanh(inner) read from the forward's cache.
               pool::Scratch gpre(n);
               float* pg = gpre.data();
               ParallelElems(n, [=](std::int64_t s, std::int64_t e) {
                 kernels::ForEachPeriodRun(bn, s, e, [=](std::int64_t i0,
                                                         std::int64_t j0,
                                                         std::int64_t len) {
                   for (std::int64_t k = 0; k < len; ++k) {
                     const std::int64_t i = i0 + k;
                     const float v = px[i] + pb[j0 + k];
                     const float t = pt[i];
                     const float d_inner =
                         kGeluC * (1.0f + 3.0f * 0.044715f * v * v);
                     pg[i] = grad[i] * (0.5f * (1.0f + t) +
                                        0.5f * v * (1.0f - t * t) * d_inner);
                   }
                 });
               });
               internal::AccumulateGrad(x, gpre.data());
               if (bias.requires_grad()) {
                 pool::Scratch gbias(bn);
                 ReduceToSmall(gpre.data(), n, bn, gbias.data());
                 internal::AccumulateGrad(bias, gbias.data());
               }
             });
  }
  return out;
}

void AddInPlace(Tensor* x, const Tensor& y) {
  TFMAE_CHECK(x != nullptr && x->defined() && y.defined());
  TFMAE_CHECK_MSG(!GradModeEnabled() ||
                      (!x->requires_grad() && !y.requires_grad()),
                  "AddInPlace requires a no-grad context: in-place writes "
                  "would corrupt recorded graph values");
  TFMAE_CHECK_MSG(!x->impl()->backward_fn,
                  "AddInPlace destination must not be a recorded op output "
                  "(a pending backward may read its stored values)");
  TFMAE_CHECK_MSG(
      SameShape(y.shape(), x->shape()) || y.numel() == 1 ||
          IsSuffixOf(y.shape(), x->shape()),
      "AddInPlace operand " << ShapeToString(y.shape())
                            << " must broadcast over "
                            << ShapeToString(x->shape()));
  const std::int64_t n = x->numel();
  const std::int64_t yn = y.numel();
  float* px = x->data();
  const float* py = y.data();
  ParallelElems(n, [=](std::int64_t s, std::int64_t e) {
    kernels::BinaryRange(BinaryKind::kAdd, px, n, py, yn, s, e, px);
  });
}

void MulScalarInPlace(Tensor* x, float c) {
  TFMAE_CHECK(x != nullptr && x->defined());
  TFMAE_CHECK_MSG(!GradModeEnabled() || !x->requires_grad(),
                  "MulScalarInPlace requires a no-grad context: in-place "
                  "writes would corrupt recorded graph values");
  TFMAE_CHECK_MSG(!x->impl()->backward_fn,
                  "MulScalarInPlace destination must not be a recorded op "
                  "output (a pending backward may read its stored values)");
  const std::int64_t n = x->numel();
  float* px = x->data();
  ParallelElems(n, [=](std::int64_t s, std::int64_t e) {
    for (std::int64_t i = s; i < e; ++i) px[i] *= c;
  });
}

}  // namespace tfmae::ops
