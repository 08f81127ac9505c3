// Contract tests for the modulo-free elementwise kernels: the eager
// BinaryOp forward and backward, the plan's Binary op, AddInPlace, the
// BiasGelu backward and the {1, 0, 2} Permute3 row copy each equal the
// per-element loops they replaced bitwise. Those loops are kept below as
// frozen oracles (as gemm::GemmNaiveSeed is for the GEMM kernels); they run
// on no compute path.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "tensor/op_kernels.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace tfmae::ops {
namespace {

using kernels::BinaryKind;

std::uint32_t Bits(float v) { return std::bit_cast<std::uint32_t>(v); }

// ---- Oracles: the per-element loops as they were ---------------------------

float ApplyBinarySeed(BinaryKind kind, float x, float y) {
  switch (kind) {
    case BinaryKind::kAdd:
      return x + y;
    case BinaryKind::kSub:
      return x - y;
    case BinaryKind::kMul:
      return x * y;
    case BinaryKind::kDiv:
      return x / y;
  }
  return 0.0f;
}

void BinaryForwardSeed(BinaryKind kind, const float* pb, const float* ps,
                       std::int64_t big_n, std::int64_t small_n,
                       bool small_lhs, float* po) {
  for (std::int64_t i = 0; i < big_n; ++i) {
    const float x = small_lhs ? ps[i % small_n] : pb[i];
    const float y = small_lhs ? pb[i] : ps[i % small_n];
    po[i] = ApplyBinarySeed(kind, x, y);
  }
}

void ReduceToSmallSeed(const float* grad, std::int64_t big_n,
                       std::int64_t small_n, float* out) {
  std::fill(out, out + small_n, 0.0f);
  for (std::int64_t i = 0; i < big_n; ++i) out[i % small_n] += grad[i];
}

// d(big) and d(small) per element into scratch, then both accumulated with
// AccumulateGrad's `g += 1.0f * src`, big first. gbig/gsmall may alias
// (null when that operand has no gradient).
void BinaryBackwardSeed(BinaryKind kind, const float* grad, const float* pb,
                        const float* ps, std::int64_t big_n,
                        std::int64_t small_n, bool small_lhs, float* gbig,
                        float* gsmall) {
  std::vector<float> big_grad(static_cast<std::size_t>(big_n));
  std::vector<float> small_full(static_cast<std::size_t>(big_n));
  for (std::int64_t i = 0; i < big_n; ++i) {
    const float sv = ps[i % small_n];
    const float bv = pb[i];
    float d_big = 0.0f;
    float d_small = 0.0f;
    switch (kind) {
      case BinaryKind::kAdd:
        d_big = 1.0f;
        d_small = 1.0f;
        break;
      case BinaryKind::kSub:
        d_big = small_lhs ? -1.0f : 1.0f;
        d_small = small_lhs ? 1.0f : -1.0f;
        break;
      case BinaryKind::kMul:
        d_big = sv;
        d_small = bv;
        break;
      case BinaryKind::kDiv:
        if (small_lhs) {
          d_small = 1.0f / bv;
          d_big = -sv / (bv * bv);
        } else {
          d_big = 1.0f / sv;
          d_small = -bv / (sv * sv);
        }
        break;
    }
    big_grad[static_cast<std::size_t>(i)] = grad[i] * d_big;
    small_full[static_cast<std::size_t>(i)] = grad[i] * d_small;
  }
  const float one = 1.0f;
  if (gbig != nullptr) {
    for (std::int64_t i = 0; i < big_n; ++i) {
      gbig[i] += one * big_grad[static_cast<std::size_t>(i)];
    }
  }
  if (gsmall != nullptr) {
    std::vector<float> reduced(static_cast<std::size_t>(small_n));
    ReduceToSmallSeed(small_full.data(), big_n, small_n, reduced.data());
    for (std::int64_t j = 0; j < small_n; ++j) {
      gsmall[j] += one * reduced[static_cast<std::size_t>(j)];
    }
  }
}

void Permute3ForwardSeed(const float* in, float* out, const Shape& in_shape,
                         const std::array<int, 3>& perm) {
  const auto strides = RowMajorStrides(in_shape);
  const std::int64_t d0 = in_shape[static_cast<std::size_t>(perm[0])];
  const std::int64_t d1 = in_shape[static_cast<std::size_t>(perm[1])];
  const std::int64_t d2 = in_shape[static_cast<std::size_t>(perm[2])];
  std::int64_t idx = 0;
  for (std::int64_t i = 0; i < d0; ++i) {
    for (std::int64_t j = 0; j < d1; ++j) {
      for (std::int64_t k = 0; k < d2; ++k) {
        std::int64_t c[3];
        c[perm[0]] = i;
        c[perm[1]] = j;
        c[perm[2]] = k;
        out[idx++] = in[c[0] * strides[0] + c[1] * strides[1] +
                        c[2] * strides[2]];
      }
    }
  }
}

// Zero-filled scratch, `+= grad` per element, then `g += 1.0f * scratch`.
void Permute3BackwardSeed(const float* grad, const Shape& in_shape,
                          const std::array<int, 3>& perm, float* gx) {
  const auto strides = RowMajorStrides(in_shape);
  const std::int64_t n = NumElements(in_shape);
  std::vector<float> scratch(static_cast<std::size_t>(n), 0.0f);
  const std::int64_t d0 = in_shape[static_cast<std::size_t>(perm[0])];
  const std::int64_t d1 = in_shape[static_cast<std::size_t>(perm[1])];
  const std::int64_t d2 = in_shape[static_cast<std::size_t>(perm[2])];
  std::int64_t idx = 0;
  for (std::int64_t i = 0; i < d0; ++i) {
    for (std::int64_t j = 0; j < d1; ++j) {
      for (std::int64_t k = 0; k < d2; ++k) {
        std::int64_t c[3];
        c[perm[0]] = i;
        c[perm[1]] = j;
        c[perm[2]] = k;
        scratch[static_cast<std::size_t>(c[0] * strides[0] +
                                         c[1] * strides[1] +
                                         c[2] * strides[2])] += grad[idx++];
      }
    }
  }
  const float one = 1.0f;
  for (std::int64_t i = 0; i < n; ++i) {
    gx[i] += one * scratch[static_cast<std::size_t>(i)];
  }
}

// ---- Inputs ----------------------------------------------------------------

// Normal values with every special class sprinkled in: signed zeros, quiet
// NaN, both infinities, subnormals of either sign, and values near 1 so
// divisions and products stay mostly finite.
std::vector<float> SpecialMix(std::int64_t n, std::uint64_t seed) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const float specials[] = {0.0f,
                            -0.0f,
                            std::numeric_limits<float>::quiet_NaN(),
                            kInf,
                            -kInf,
                            std::numeric_limits<float>::denorm_min(),
                            -std::bit_cast<float>(0x00400001u),
                            std::numeric_limits<float>::min(),
                            3.0e38f};
  Rng rng(seed);
  std::vector<float> v(static_cast<std::size_t>(n));
  for (auto& x : v) {
    x = rng.Bernoulli(0.08)
            ? specials[rng.UniformInt(std::size(specials))]
            : static_cast<float>(rng.Normal(0.0, 2.0));
  }
  return v;
}

Tensor MakeTensor(const Shape& shape, std::uint64_t seed, bool requires_grad) {
  Tensor t = Tensor::FromData(shape, SpecialMix(NumElements(shape), seed));
  if (requires_grad) {
    t.set_requires_grad(true);
    // A gradient already holding values (-0.0 among them), as between the
    // accumulated windows of a mini-batch.
    const std::vector<float> g = SpecialMix(t.numel(), seed + 1000);
    float* pg = t.impl()->EnsureGrad();
    for (std::int64_t i = 0; i < t.numel(); ++i) {
      pg[i] = std::isnan(g[static_cast<std::size_t>(i)])
                  ? -0.0f
                  : g[static_cast<std::size_t>(i)];
    }
  }
  return t;
}

std::vector<float> GradOf(const Tensor& t) {
  const float* g = t.grad_data();
  return g == nullptr ? std::vector<float>()
                      : std::vector<float>(g, g + t.numel());
}

// Seeds the output gradient and runs the output node's backward alone.
void RunBackward(const Tensor& out, const std::vector<float>& upstream) {
  float* g = out.impl()->EnsureGrad();
  std::copy(upstream.begin(), upstream.end(), g);
  out.impl()->backward_fn(*out.impl());
}

// Equal bits, except that a NaN only has to meet a NaN. When both operands
// of an x86 add or multiply are NaNs the result is the first operand's, and
// GCC orders the operands of these commutative operations as it likes, in
// the seed loops as much as in the kernels. So where two NaNs meet, which
// payload and sign survive is the compiler's choice; every other bit is
// the contract.
void ExpectBitwise(const std::vector<float>& got,
                   const std::vector<float>& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (std::isnan(got[i]) && std::isnan(want[i])) continue;
    ASSERT_EQ(Bits(got[i]), Bits(want[i]))
        << what << " at " << i << ": " << got[i] << " vs " << want[i];
  }
}

Tensor Apply(BinaryKind kind, const Tensor& a, const Tensor& b) {
  switch (kind) {
    case BinaryKind::kAdd:
      return Add(a, b);
    case BinaryKind::kSub:
      return Sub(a, b);
    case BinaryKind::kMul:
      return Mul(a, b);
    case BinaryKind::kDiv:
      return Div(a, b);
  }
  return {};
}

struct BroadcastCase {
  const char* name;
  Shape lhs;
  Shape rhs;
};

// Same shape, row bias, scalar, small operand on the left, and sizes past
// the parallel threshold (32768) whose chunk starts (multiples of 16384)
// fall mid-row of a 55-wide period.
const BroadcastCase kCases[] = {
    {"same", {7, 55}, {7, 55}},
    {"row_bias", {9, 55}, {55}},
    {"scalar", {9, 55}, {1}},
    {"small_lhs_row", {55}, {9, 55}},
    {"small_lhs_scalar", {1}, {6, 7}},
    {"same_parallel", {700, 55}, {700, 55}},
    {"row_bias_parallel", {1300, 55}, {55}},
    {"small_lhs_parallel", {55}, {1300, 55}},
    {"scalar_parallel", {700, 55}, {1}},
};

const BinaryKind kKinds[] = {BinaryKind::kAdd, BinaryKind::kSub,
                             BinaryKind::kMul, BinaryKind::kDiv};

TEST(BroadcastKernelsTest, BinaryOpMatchesPerElementLoopsBitwise) {
  std::uint64_t seed = 1;
  for (const BroadcastCase& c : kCases) {
    for (const BinaryKind kind : kKinds) {
      // Which operands require grad: lhs only, rhs only, both.
      for (const int grads : {1, 2, 3}) {
        const std::string what = std::string(c.name) + " kind " +
                                 std::to_string(static_cast<int>(kind)) +
                                 " grads " + std::to_string(grads);
        seed += 7;
        const Tensor a = MakeTensor(c.lhs, seed, grads & 1);
        const Tensor b = MakeTensor(c.rhs, seed + 1, grads & 2);
        const bool small_lhs = a.numel() < b.numel();
        const Tensor& big = small_lhs ? b : a;
        const Tensor& small = small_lhs ? a : b;
        std::vector<float> want_big = GradOf(big);
        std::vector<float> want_small = GradOf(small);

        const Tensor out = Apply(kind, a, b);
        std::vector<float> want_out(static_cast<std::size_t>(big.numel()));
        BinaryForwardSeed(kind, big.data(), small.data(), big.numel(),
                          small.numel(), small_lhs, want_out.data());
        ExpectBitwise(std::vector<float>(out.data(), out.data() + out.numel()),
                      want_out, what + " forward");

        const std::vector<float> upstream = SpecialMix(out.numel(), seed + 2);
        BinaryBackwardSeed(kind, upstream.data(), big.data(), small.data(),
                           big.numel(), small.numel(), small_lhs,
                           want_big.empty() ? nullptr : want_big.data(),
                           want_small.empty() ? nullptr : want_small.data());
        RunBackward(out, upstream);
        ExpectBitwise(GradOf(big), want_big, what + " big grad");
        ExpectBitwise(GradOf(small), want_small, what + " small grad");
      }
    }
  }
}

// Both operands the same tensor: its gradient takes the big operand's share
// first, then the small operand's column sum, as the seed loop did.
TEST(BroadcastKernelsTest, BinaryOpOnOneTensorTwiceMatchesSeed) {
  for (const BinaryKind kind : kKinds) {
    const Tensor x = MakeTensor({11, 6}, 40, true);
    std::vector<float> want = GradOf(x);
    const Tensor out = Apply(kind, x, x);
    const std::vector<float> upstream = SpecialMix(out.numel(), 41);
    BinaryBackwardSeed(kind, upstream.data(), x.data(), x.data(), x.numel(),
                       x.numel(), false, want.data(), want.data());
    RunBackward(out, upstream);
    ExpectBitwise(GradOf(x), want,
                  "x op x kind " + std::to_string(static_cast<int>(kind)));
  }
}

// The plan's Binary op is kernels::BinaryRange over the eager chunks
// (ForEachElemChunk); on the same operands it writes the eager op's bits.
// The 38 500- and 71 500-element cases cross the parallel threshold.
TEST(BroadcastKernelsTest, PlanBinaryRangeMatchesEagerBinaryOp) {
  std::uint64_t seed = 500;
  for (const BroadcastCase& c : kCases) {
    for (const BinaryKind kind : kKinds) {
      seed += 3;
      const Tensor a = MakeTensor(c.lhs, seed, false);
      const Tensor b = MakeTensor(c.rhs, seed + 1, false);
      const Tensor eager = Apply(kind, a, b);
      std::vector<float> replay(static_cast<std::size_t>(eager.numel()));
      const float* pa = a.data();
      const float* pb = b.data();
      const std::int64_t an = a.numel();
      const std::int64_t bn = b.numel();
      float* po = replay.data();
      kernels::ForEachElemChunk(
          eager.numel(), [=](std::int64_t s, std::int64_t e) {
            kernels::BinaryRange(kind, pa, an, pb, bn, s, e, po);
          });
      ExpectBitwise(replay,
                    std::vector<float>(eager.data(),
                                       eager.data() + eager.numel()),
                    std::string(c.name) + " kind " +
                        std::to_string(static_cast<int>(kind)));
    }
  }
}

TEST(BroadcastKernelsTest, AddInPlaceMatchesPerElementLoop) {
  NoGradGuard no_grad;
  const Shape shapes[][2] = {{{7, 55}, {7, 55}},
                             {{1300, 55}, {55}},
                             {{700, 55}, {1}}};
  std::uint64_t seed = 900;
  for (const auto& s : shapes) {
    Tensor x = MakeTensor(s[0], seed++, false);
    const Tensor y = MakeTensor(s[1], seed++, false);
    std::vector<float> want(x.data(), x.data() + x.numel());
    for (std::int64_t i = 0; i < x.numel(); ++i) {
      want[static_cast<std::size_t>(i)] += y.data()[i % y.numel()];
    }
    AddInPlace(&x, y);
    ExpectBitwise(std::vector<float>(x.data(), x.data() + x.numel()), want,
                  "AddInPlace " + ShapeToString(s[1]));
  }
}

// BiasGelu's backward against its per-element loop: d(pre) from the cached
// tanh with the bias read at i % bn, then the seed column sum for the bias.
TEST(BroadcastKernelsTest, BiasGeluBackwardMatchesPerElementLoop) {
  for (const Shape& xs : {Shape{9, 55}, Shape{1300, 55}}) {
    Rng rng(77);
    const std::int64_t n = NumElements(xs);
    std::vector<float> xv(static_cast<std::size_t>(n));
    std::vector<float> bv(55);
    for (float& v : xv) v = static_cast<float>(rng.Normal(0.0, 2.0));
    for (float& v : bv) v = static_cast<float>(rng.Normal());
    const Tensor x = Tensor::FromData(xs, xv).set_requires_grad(true);
    const Tensor bias = Tensor::FromData({55}, bv).set_requires_grad(true);
    const Tensor out = BiasGelu(x, bias);
    const std::vector<float> upstream = SpecialMix(n, 78);

    std::vector<float> pre_grad(static_cast<std::size_t>(n));
    for (std::int64_t i = 0; i < n; ++i) {
      const float v = xv[static_cast<std::size_t>(i)] + bv[i % 55];
      const float t = kernels::FastTanh(kernels::GeluInner(v));
      const float d_inner =
          kernels::kGeluC * (1.0f + 3.0f * 0.044715f * v * v);
      pre_grad[static_cast<std::size_t>(i)] =
          upstream[static_cast<std::size_t>(i)] *
          (0.5f * (1.0f + t) + 0.5f * v * (1.0f - t * t) * d_inner);
    }
    std::vector<float> want_x(static_cast<std::size_t>(n), 0.0f);
    const float one = 1.0f;
    for (std::int64_t i = 0; i < n; ++i) {
      want_x[static_cast<std::size_t>(i)] +=
          one * pre_grad[static_cast<std::size_t>(i)];
    }
    std::vector<float> reduced(55);
    ReduceToSmallSeed(pre_grad.data(), n, 55, reduced.data());
    std::vector<float> want_b(55, 0.0f);
    for (std::size_t j = 0; j < 55; ++j) want_b[j] += one * reduced[j];

    RunBackward(out, upstream);
    ExpectBitwise(GradOf(x), want_x, "BiasGelu x grad " + ShapeToString(xs));
    ExpectBitwise(GradOf(bias), want_b,
                  "BiasGelu bias grad " + ShapeToString(xs));
  }
}

// {1, 0, 2} (the head split and merge) takes the row-copy path, {2, 0, 1}
// the generic walk; both equal the seed walk forward and backward. The
// input gradient starts at -0.0, so a -0.0 output gradient shows whether
// the scratch held 0 + g (+0.0, and -0.0 + +0.0 = +0.0) or g itself.
TEST(Permute3KernelTest, RowCopyAndGenericWalkMatchSeed) {
  const std::array<int, 3> perms[] = {{1, 0, 2}, {2, 0, 1}, {0, 2, 1}};
  for (const auto& perm : perms) {
    const Shape in_shape = {4, 6, 8};
    const Tensor x = Tensor::FromData(in_shape, SpecialMix(192, 3))
                         .set_requires_grad(true);
    float* x_grad = x.impl()->EnsureGrad();
    std::fill(x_grad, x_grad + 192, -0.0f);
    const Tensor out = Permute3(x, perm);
    std::vector<float> want(192);
    Permute3ForwardSeed(x.data(), want.data(), in_shape, perm);
    const std::string what = "perm {" + std::to_string(perm[0]) + "," +
                             std::to_string(perm[1]) + "," +
                             std::to_string(perm[2]) + "}";
    ExpectBitwise(std::vector<float>(out.data(), out.data() + 192), want,
                  what + " forward");
    std::vector<float> kernel_out(192);
    kernels::Permute3Forward(x.data(), kernel_out.data(), {4, 6, 8}, perm);
    ExpectBitwise(kernel_out, want, what + " kernel");

    std::vector<float> upstream = SpecialMix(192, 4);
    upstream[0] = -0.0f;
    upstream[37] = -0.0f;
    std::vector<float> want_grad(192, -0.0f);
    Permute3BackwardSeed(upstream.data(), in_shape, perm, want_grad.data());
    RunBackward(out, upstream);
    ExpectBitwise(GradOf(x), want_grad, what + " backward");
    EXPECT_EQ(Bits(GradOf(x)[0]), Bits(0.0f)) << what;
  }
}

}  // namespace
}  // namespace tfmae::ops
