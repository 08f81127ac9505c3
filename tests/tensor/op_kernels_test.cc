// Contract tests for the deterministic exp/tanh of tensor/op_kernels.h and
// the GeLU and softmax kernels built on them: every 16-lane form equals its
// scalar form bitwise (special values included), NaN in gives NaN out, the
// polynomial's error against libm stays inside its stated bound over the
// whole clamp range, and the vector softmax rows and the bias-GeLU range
// equal plain scalar loops bitwise.
#include "tensor/op_kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/rng.h"

namespace tfmae::ops::kernels {
namespace {

std::uint32_t Bits(float v) { return std::bit_cast<std::uint32_t>(v); }

// The clamp edges, signed zeros, subnormals, infinities and NaNs, plus a
// dense sweep of [-100, 100] and a stride through every bit pattern.
std::vector<float> SweepInputs() {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const float sub_min = std::numeric_limits<float>::denorm_min();
  const float sub_max = std::bit_cast<float>(0x007fffffu);
  std::vector<float> v = {0.0f,
                          -0.0f,
                          sub_min,
                          -sub_min,
                          sub_max,
                          -sub_max,
                          std::numeric_limits<float>::min(),
                          kInf,
                          -kInf,
                          std::numeric_limits<float>::max(),
                          std::numeric_limits<float>::lowest(),
                          std::numeric_limits<float>::quiet_NaN(),
                          -std::numeric_limits<float>::quiet_NaN(),
                          std::bit_cast<float>(0x7fc12345u),  // payload NaN
                          std::bit_cast<float>(0xffa00001u),  // signaling
                          -87.0f,
                          88.0f,
                          -43.5f,
                          44.0f};
  for (const float edge : {-87.0f, 88.0f, -43.5f, 44.0f}) {
    float lo = edge;
    float hi = edge;
    for (int i = 0; i < 64; ++i) {
      lo = std::nextafter(lo, -kInf);
      hi = std::nextafter(hi, kInf);
      v.push_back(lo);
      v.push_back(hi);
    }
  }
  for (float x = -100.0f; x <= 100.0f; x += 0.00731f) v.push_back(x);
  for (std::uint64_t b = 0; b <= 0xffffffffull; b += 65521) {
    v.push_back(std::bit_cast<float>(static_cast<std::uint32_t>(b)));
  }
  while (v.size() % 16 != 0) v.push_back(0.5f);
  return v;
}

TEST(OpKernelsTest, VectorFormsMatchScalarBitwise) {
#if !defined(__AVX512F__)
  GTEST_SKIP() << "this build has no AVX-512 forms";
#else
  const std::vector<float> in = SweepInputs();
  float lanes[16];
  int mismatches = 0;
  for (std::size_t i = 0; i < in.size(); i += 16) {
    const __m512 x = _mm512_loadu_ps(in.data() + i);
    struct Form {
      const char* name;
      __m512 vector;
      float (*scalar)(float);
    };
    const Form forms[] = {
        {"FastExp", FastExpV(x), FastExp},
        {"FastTanh", FastTanhV(x), FastTanh},
        {"GeluInner", GeluInnerV(x), GeluInner},
        {"GeluApprox", GeluApproxV(x), GeluApprox},
    };
    for (const Form& form : forms) {
      _mm512_storeu_ps(lanes, form.vector);
      for (int l = 0; l < 16; ++l) {
        const float want = form.scalar(in[i + l]);
        if (Bits(lanes[l]) != Bits(want) && ++mismatches <= 10) {
          ADD_FAILURE() << form.name << "(bits 0x" << std::hex
                        << Bits(in[i + l]) << "): vector 0x" << Bits(lanes[l])
                        << " scalar 0x" << Bits(want);
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0);
#endif
}

TEST(OpKernelsTest, NanInGivesNanOut) {
  for (const float nan : {std::numeric_limits<float>::quiet_NaN(),
                          -std::numeric_limits<float>::quiet_NaN(),
                          std::bit_cast<float>(0x7fc12345u)}) {
    EXPECT_TRUE(std::isnan(FastExp(nan)));
    EXPECT_TRUE(std::isnan(FastTanh(nan)));
    EXPECT_TRUE(std::isnan(GeluApprox(nan)));
  }
  // A NaN logit poisons its softmax row instead of vanishing into it, so the
  // numeric guard still sees it.
  std::vector<float> row(40, 0.25f);
  row[33] = std::numeric_limits<float>::quiet_NaN();
  std::vector<float> out(row.size());
  SoftmaxRows(row.data(), out.data(), 1, static_cast<std::int64_t>(row.size()),
              1.0f);
  for (const float v : out) EXPECT_TRUE(std::isnan(v));
}

TEST(OpKernelsTest, FastExpTracksLibmClosely) {
  // The bound op_kernels.h states; the worst measured error is 1.14e-5,
  // near the top of the clamp range where rounding x log2 e costs the most.
  constexpr double kMaxRelErr = 1.2e-5;
  double worst = 0.0;
  float worst_x = 0.0f;
  for (float x = -87.0f; x <= 88.0f; x += 0.000977f) {
    const double want = std::exp(static_cast<double>(x));
    const double err = std::fabs(FastExp(x) - want) / want;
    if (err > worst) {
      worst = err;
      worst_x = x;
    }
  }
  EXPECT_LE(worst, kMaxRelErr) << "at x=" << worst_x;
  // Outside the clamp range the result saturates instead of under- or
  // overflowing.
  EXPECT_EQ(FastExp(-200.0f), FastExp(-87.0f));
  EXPECT_EQ(FastExp(-std::numeric_limits<float>::infinity()),
            FastExp(-87.0f));
  EXPECT_GT(FastExp(-87.0f), 0.0f);
  EXPECT_EQ(FastExp(1000.0f), FastExp(88.0f));
  EXPECT_TRUE(std::isfinite(FastExp(std::numeric_limits<float>::infinity())));
  EXPECT_EQ(FastExp(0.0f), 1.0f);
  EXPECT_EQ(FastExp(-0.0f), 1.0f);
  for (float u = -10.0f; u <= 10.0f; u += 0.0137f) {
    EXPECT_NEAR(FastTanh(u), std::tanh(u), 4e-6f) << "u=" << u;
  }
}

// The plain one-row scalar softmax of the scaled row: ascending max,
// FastExp, ascending sum, rescale.
void ReferenceSoftmax(const float* in, float* out, std::int64_t cols,
                      float scale) {
  std::vector<float> x(static_cast<std::size_t>(cols));
  for (std::int64_t j = 0; j < cols; ++j) x[j] = in[j] * scale;
  float max_v = x[0];
  for (std::int64_t j = 1; j < cols; ++j) max_v = std::max(max_v, x[j]);
  float sum = 0.0f;
  for (std::int64_t j = 0; j < cols; ++j) {
    out[j] = FastExp(x[j] - max_v);
    sum += out[j];
  }
  const float inv = 1.0f / sum;
  for (std::int64_t j = 0; j < cols; ++j) out[j] *= inv;
}

// Rows of every kind (wide and narrow logits, ties at the max, signed
// zeros, -inf logits) at every width from 1 to 70, 19 rows at a time so
// the eight-row interleave has a partial block, and again one row at a
// time: every output equals the one-row scalar loop bitwise.
TEST(OpKernelsTest, SoftmaxRowsMatchScalarReferenceAtWidths1To70) {
  constexpr std::int64_t kRows = 19;
  Rng rng(11);
  for (std::int64_t cols = 1; cols <= 70; ++cols) {
    std::vector<float> in(static_cast<std::size_t>(kRows * cols));
    for (std::int64_t r = 0; r < kRows; ++r) {
      float* row = in.data() + r * cols;
      for (std::int64_t j = 0; j < cols; ++j) {
        row[j] = static_cast<float>(rng.Normal(0.0, r % 2 ? 3.0 : 40.0));
        if (r % 6 == 1 && j % 3 == 0) row[j] = 2.5f;
        if (r % 6 == 2) row[j] = j % 2 ? 0.0f : -0.0f;
      }
      if (r % 6 == 5 && cols > 1) {
        row[cols / 2] = -std::numeric_limits<float>::infinity();
      }
    }
    for (const float scale : {1.0f, 0.17677669f}) {
      std::vector<float> together(in.size());
      std::vector<float> alone(in.size());
      std::vector<float> want(in.size());
      SoftmaxRows(in.data(), together.data(), kRows, cols, scale);
      for (std::int64_t r = 0; r < kRows; ++r) {
        SoftmaxRows(in.data() + r * cols, alone.data() + r * cols, 1, cols,
                    scale);
        ReferenceSoftmax(in.data() + r * cols, want.data() + r * cols, cols,
                         scale);
      }
      for (std::size_t i = 0; i < in.size(); ++i) {
        ASSERT_EQ(Bits(together[i]), Bits(want[i]))
            << "cols=" << cols << " scale=" << scale << " i=" << i;
        ASSERT_EQ(Bits(alone[i]), Bits(want[i]))
            << "cols=" << cols << " scale=" << scale << " i=" << i;
      }
    }
  }
}

TEST(OpKernelsTest, BiasGeluRangeMatchesScalarGeluAtAnySplit) {
  Rng rng(5);
  for (const std::int64_t bn : {1, 7, 16, 32, 37, 128}) {
    const std::int64_t n = bn * 9 + 5;
    std::vector<float> x(static_cast<std::size_t>(n));
    std::vector<float> bias(static_cast<std::size_t>(bn));
    for (float& v : x) v = static_cast<float>(rng.Normal(0.0, 4.0));
    for (float& v : bias) v = static_cast<float>(rng.Normal());
    for (int split = 0; split < 8; ++split) {
      const std::int64_t s = static_cast<std::int64_t>(rng.UniformInt(
          static_cast<std::uint64_t>(n)));
      const std::int64_t e =
          s + static_cast<std::int64_t>(
                  rng.UniformInt(static_cast<std::uint64_t>(n - s + 1)));
      std::vector<float> out(x.size(), -1.0f);
      std::vector<float> th(x.size(), -1.0f);
      BiasGeluRange(x.data(), bias.data(), bn, s, e, out.data(),
                    split % 2 ? th.data() : nullptr);
      for (std::int64_t i = 0; i < n; ++i) {
        if (i < s || i >= e) {
          ASSERT_EQ(out[i], -1.0f) << "wrote outside [s, e) at " << i;
          continue;
        }
        const float v = x[i] + bias[i % bn];
        ASSERT_EQ(Bits(out[i]), Bits(GeluApprox(v)))
            << "bn=" << bn << " s=" << s << " e=" << e << " i=" << i;
        if (split % 2) {
          ASSERT_EQ(Bits(th[i]), Bits(FastTanh(GeluInner(v))));
        }
      }
    }
  }
}

}  // namespace
}  // namespace tfmae::ops::kernels
