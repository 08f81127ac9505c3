// Tests for the NN layer: module registry, layers, attention, transformer,
// positional encoding, Adam optimization, and checkpoint round-trips.
#include <bit>
#include <cmath>

#include <gtest/gtest.h>

#include "nn/adam.h"
#include "nn/attention.h"
#include "nn/layers.h"
#include "nn/serialize.h"
#include "nn/transformer.h"
#include "tensor/ops.h"
#include "util/checkpoint_file.h"
#include "util/rng.h"

namespace tfmae::nn {
namespace {

TEST(ModuleTest, RegistryCollectsNestedParameters) {
  Rng rng(1);
  FeedForward ffn(8, 16, &rng);
  // fc1: weight+bias, fc2: weight+bias.
  EXPECT_EQ(ffn.Parameters().size(), 4u);
  const auto named = ffn.NamedParameters();
  ASSERT_EQ(named.size(), 4u);
  EXPECT_EQ(named[0].first, "fc1.weight");
  EXPECT_EQ(named[3].first, "fc2.bias");
  EXPECT_EQ(ffn.NumParameters(), 8 * 16 + 16 + 16 * 8 + 8);
}

TEST(ModuleTest, ZeroGradClearsAllParameters) {
  Rng rng(2);
  Linear linear(4, 3, &rng);
  Tensor x = Tensor::Randn({2, 4}, &rng);
  ops::SumAll(linear.Forward(x)).Backward();
  bool any_nonzero = false;
  for (const Tensor& p : linear.Parameters()) {
    if (p.grad_data() != nullptr) {
      for (std::int64_t i = 0; i < p.numel(); ++i) {
        any_nonzero |= p.grad_data()[i] != 0.0f;
      }
    }
  }
  EXPECT_TRUE(any_nonzero);
  linear.ZeroGrad();
  for (const Tensor& p : linear.Parameters()) {
    if (p.grad_data() == nullptr) continue;
    for (std::int64_t i = 0; i < p.numel(); ++i) {
      EXPECT_EQ(p.grad_data()[i], 0.0f);
    }
  }
}

TEST(LayerTest, LinearComputesAffineMap) {
  Rng rng(3);
  Linear linear(2, 2, &rng);
  // Overwrite parameters with known values.
  auto params = linear.NamedParameters();
  // weight [2,2] = [[1,2],[3,4]], bias = [10, 20].
  std::vector<float> w = {1, 2, 3, 4};
  std::vector<float> b = {10, 20};
  std::copy(w.begin(), w.end(), params[0].second.data());
  std::copy(b.begin(), b.end(), params[1].second.data());
  Tensor x = Tensor::FromData({1, 2}, {1, 1});
  Tensor y = linear.Forward(x);
  EXPECT_FLOAT_EQ(y.at(0), 1 + 3 + 10);
  EXPECT_FLOAT_EQ(y.at(1), 2 + 4 + 20);
}

TEST(LayerTest, LayerNormNormalizesRows) {
  LayerNorm norm(4);
  Tensor x = Tensor::FromData({2, 4}, {1, 2, 3, 4, -5, 0, 5, 10});
  Tensor y = norm.Forward(x);
  for (std::int64_t r = 0; r < 2; ++r) {
    double mean = 0.0;
    double var = 0.0;
    for (std::int64_t c = 0; c < 4; ++c) mean += y.at(r * 4 + c);
    mean /= 4;
    for (std::int64_t c = 0; c < 4; ++c) {
      const double d = y.at(r * 4 + c) - mean;
      var += d * d;
    }
    var /= 4;
    EXPECT_NEAR(mean, 0.0, 1e-5);
    EXPECT_NEAR(var, 1.0, 1e-3);
  }
}

TEST(PositionalEncodingTest, MatchesClosedForm) {
  const std::int64_t dim = 8;
  Tensor pe = SinusoidalPositionalEncoding(5, dim);
  for (std::int64_t t = 0; t < 5; ++t) {
    for (std::int64_t i = 0; i < dim; ++i) {
      const double exponent =
          static_cast<double>(i % 2 == 0 ? i : i - 1) / dim;
      const double angle = t / std::pow(10000.0, exponent);
      const double expected = i % 2 == 0 ? std::sin(angle) : std::cos(angle);
      EXPECT_NEAR(pe.at(t * dim + i), expected, 1e-5);
    }
  }
}

TEST(PositionalEncodingTest, AddUsesGivenPositions) {
  const std::int64_t dim = 4;
  Tensor zero = Tensor::Zeros({2, dim});
  Tensor decorated = AddPositionalEncoding(zero, {3, 7});
  Tensor table = SinusoidalPositionalEncoding(8, dim);
  for (std::int64_t i = 0; i < dim; ++i) {
    EXPECT_FLOAT_EQ(decorated.at(i), table.at(3 * dim + i));
    EXPECT_FLOAT_EQ(decorated.at(dim + i), table.at(7 * dim + i));
  }
}

TEST(AttentionTest, OutputShapeAndFiniteness) {
  Rng rng(4);
  MultiHeadSelfAttention attention(16, 4, &rng);
  Tensor x = Tensor::Randn({10, 16}, &rng);
  Tensor y = attention.Forward(x);
  EXPECT_EQ(y.shape(), (Shape{10, 16}));
  for (std::int64_t i = 0; i < y.numel(); ++i) {
    EXPECT_TRUE(std::isfinite(y.at(i)));
  }
}

TEST(AttentionTest, ExposedWeightsAreRowStochasticAndConsistent) {
  Rng rng(14);
  MultiHeadSelfAttention attention(8, 2, &rng);
  Tensor x = Tensor::Randn({6, 8}, &rng);
  Tensor weights;
  Tensor with = attention.ForwardWithWeights(x, &weights);
  Tensor without = attention.Forward(x);
  // Same output either way.
  for (std::int64_t i = 0; i < with.numel(); ++i) {
    EXPECT_FLOAT_EQ(with.at(i), without.at(i));
  }
  // Weights: [heads, T, T], rows on the simplex.
  ASSERT_TRUE(weights.defined());
  EXPECT_EQ(weights.shape(), (Shape{2, 6, 6}));
  for (std::int64_t h = 0; h < 2; ++h) {
    for (std::int64_t r = 0; r < 6; ++r) {
      double sum = 0.0;
      for (std::int64_t c = 0; c < 6; ++c) {
        const float w = weights.at((h * 6 + r) * 6 + c);
        EXPECT_GE(w, 0.0f);
        sum += w;
      }
      EXPECT_NEAR(sum, 1.0, 1e-5);
    }
  }
}

TEST(AttentionTest, GradientsReachAllProjections) {
  Rng rng(5);
  MultiHeadSelfAttention attention(8, 2, &rng);
  Tensor x = Tensor::Randn({6, 8}, &rng);
  ops::SumAll(attention.Forward(x)).Backward();
  for (const auto& [name, param] : attention.NamedParameters()) {
    ASSERT_NE(param.grad_data(), nullptr) << name;
    double norm = 0.0;
    for (std::int64_t i = 0; i < param.numel(); ++i) {
      norm += std::abs(param.grad_data()[i]);
    }
    EXPECT_GT(norm, 0.0) << name << " received no gradient";
  }
}

TEST(TransformerTest, StackPreservesShape) {
  Rng rng(6);
  TransformerStack stack(3, 16, 4, 32, &rng);
  EXPECT_EQ(stack.num_layers(), 3);
  Tensor x = Tensor::Randn({12, 16}, &rng);
  Tensor y = stack.Forward(x);
  EXPECT_EQ(y.shape(), (Shape{12, 16}));
}

TEST(AdamTest, ConvergesOnLeastSquares) {
  // Fit y = 2x + 1 with a Linear layer.
  Rng rng(7);
  Linear model(1, 1, &rng);
  nn::AdamOptions options;
  options.learning_rate = 5e-2f;
  Adam adam(model.Parameters(), options);
  for (int step = 0; step < 300; ++step) {
    Tensor x = Tensor::Randn({8, 1}, &rng);
    std::vector<float> target_values(8);
    for (int i = 0; i < 8; ++i) target_values[i] = 2.0f * x.at(i) + 1.0f;
    Tensor target = Tensor::FromData({8, 1}, target_values);
    Tensor loss = ops::MseLoss(model.Forward(x), target);
    adam.ZeroGrad();
    loss.Backward();
    adam.Step();
  }
  const auto named = model.NamedParameters();
  EXPECT_NEAR(named[0].second.at(0), 2.0f, 0.1f);  // weight
  EXPECT_NEAR(named[1].second.at(0), 1.0f, 0.1f);  // bias
  EXPECT_EQ(adam.num_steps(), 300);
}

TEST(AdamTest, GradientClippingBoundsUpdateDirection) {
  Rng rng(8);
  Tensor p = Tensor::Zeros({4}).set_requires_grad(true);
  nn::AdamOptions options;
  options.clip_grad_norm = 1.0f;
  Adam adam({p}, options);
  // Huge gradient: clipping keeps the moment estimates sane (no NaN/inf).
  Tensor loss = ops::SumAll(ops::Scale(p, 1e6f));
  loss.Backward();
  adam.Step();
  for (std::int64_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(std::isfinite(p.at(i)));
  }
}

TEST(AdamTest, ExportImportStateReplaysIdentically) {
  // Two optimizers on identical parameters; after syncing state via
  // Export/Import, identical gradients must produce identical updates
  // (this is the property the training checkpoints rely on).
  Tensor p1 = Tensor::FromData({3}, {1.0f, 2.0f, 3.0f}).set_requires_grad(true);
  Tensor p2 = Tensor::FromData({3}, {1.0f, 2.0f, 3.0f}).set_requires_grad(true);
  Adam a(std::vector<Tensor>{p1}, nn::AdamOptions{});
  Adam b(std::vector<Tensor>{p2}, nn::AdamOptions{});
  for (int step = 0; step < 5; ++step) {
    Tensor loss = ops::SumAll(ops::Scale(p1, 0.5f));
    loss.Backward();
    a.Step();
    a.ZeroGrad();
  }
  ASSERT_TRUE(b.ImportState(a.ExportState()));
  for (std::int64_t i = 0; i < 3; ++i) p2.data()[i] = p1.at(i);
  for (int step = 0; step < 3; ++step) {
    Tensor la = ops::SumAll(ops::Scale(p1, 0.5f));
    la.Backward();
    a.Step();
    a.ZeroGrad();
    Tensor lb = ops::SumAll(ops::Scale(p2, 0.5f));
    lb.Backward();
    b.Step();
    b.ZeroGrad();
  }
  for (std::int64_t i = 0; i < 3; ++i) EXPECT_EQ(p1.at(i), p2.at(i));
  EXPECT_EQ(a.num_steps(), 8);
  EXPECT_EQ(b.num_steps(), 8);
}

// The scalar Adam step as it was before the update ran 16 lanes wide:
// serial double clip norm, then the per-element expressions in order.
void AdamStepSeed(const nn::AdamOptions& o, std::int64_t step,
                  std::vector<std::vector<float>>* w,
                  std::vector<std::vector<float>>* m,
                  std::vector<std::vector<float>>* v,
                  const std::vector<std::vector<float>>& g) {
  const float bias1 = 1.0f - std::pow(o.beta1, static_cast<float>(step));
  const float bias2 = 1.0f - std::pow(o.beta2, static_cast<float>(step));
  float scale = 1.0f;
  if (o.clip_grad_norm > 0.0f) {
    double sq = 0.0;
    for (const auto& gp : g) {
      for (const float x : gp) {
        sq += static_cast<double>(x) * static_cast<double>(x);
      }
    }
    const double norm = std::sqrt(sq);
    if (norm > o.clip_grad_norm) {
      scale = static_cast<float>(o.clip_grad_norm / (norm + 1e-12));
    }
  }
  for (std::size_t p = 0; p < g.size(); ++p) {
    for (std::size_t i = 0; i < g[p].size(); ++i) {
      const float grad = g[p][i] * scale;
      float& mi = (*m)[p][i];
      float& vi = (*v)[p][i];
      mi = o.beta1 * mi + (1.0f - o.beta1) * grad;
      vi = o.beta2 * vi + (1.0f - o.beta2) * grad * grad;
      const float m_hat = mi / bias1;
      const float v_hat = vi / bias2;
      (*w)[p][i] -= o.learning_rate * m_hat / (std::sqrt(v_hat) + o.eps);
    }
  }
}

// Lengths off the 16-lane grid and one past the parallel threshold, with
// zero and huge (squares overflow to Inf) gradients, clipping off and on:
// every weight and moment equals the scalar step's bits after each step.
TEST(AdamTest, VectorUpdateMatchesScalarFormBitwise) {
  const std::int64_t lengths[] = {1, 15, 16, 17, 37, (1 << 15) + 5};
  for (const float clip : {0.0f, 1.0f}) {
    Rng rng(12);
    std::vector<Tensor> params;
    std::vector<std::vector<float>> w;
    for (const std::int64_t n : lengths) {
      Tensor p = Tensor::Randn({n}, &rng).set_requires_grad(true);
      w.emplace_back(p.data(), p.data() + n);
      params.push_back(p);
    }
    std::vector<std::vector<float>> m;
    std::vector<std::vector<float>> v;
    for (const auto& wp : w) {
      m.emplace_back(wp.size(), 0.0f);
      v.emplace_back(wp.size(), 0.0f);
    }
    nn::AdamOptions options;
    options.learning_rate = 1e-3f;
    options.clip_grad_norm = clip;
    Adam adam(params, options);
    for (std::int64_t step = 1; step <= 4; ++step) {
      std::vector<std::vector<float>> g;
      for (Tensor& p : params) {
        float* pg = p.impl()->EnsureGrad();
        for (std::int64_t i = 0; i < p.numel(); ++i) {
          const std::uint64_t pick = rng.UniformInt(10);
          pg[i] = pick == 0   ? 0.0f
                  : pick == 1 ? (i % 2 ? 1e30f : -3e25f)
                              : static_cast<float>(rng.Normal(0.0, 0.1));
        }
        g.emplace_back(pg, pg + p.numel());
      }
      adam.Step();
      AdamStepSeed(options, step, &w, &m, &v, g);
      const nn::AdamState state = adam.ExportState();
      for (std::size_t p = 0; p < params.size(); ++p) {
        for (std::size_t i = 0; i < w[p].size(); ++i) {
          ASSERT_EQ(std::bit_cast<std::uint32_t>(params[p].data()[i]),
                    std::bit_cast<std::uint32_t>(w[p][i]))
              << "clip " << clip << " step " << step << " param " << p
              << " i " << i;
          ASSERT_EQ(std::bit_cast<std::uint32_t>(state.m[p][i]),
                    std::bit_cast<std::uint32_t>(m[p][i]));
          ASSERT_EQ(std::bit_cast<std::uint32_t>(state.v[p][i]),
                    std::bit_cast<std::uint32_t>(v[p][i]));
        }
      }
      adam.ZeroGrad();
    }
  }
}

TEST(AdamTest, ImportStateRejectsMismatchedShapes) {
  Tensor p = Tensor::FromData({3}, {1.0f, 2.0f, 3.0f}).set_requires_grad(true);
  Adam adam(std::vector<Tensor>{p}, nn::AdamOptions{});
  nn::AdamState wrong = adam.ExportState();
  wrong.m.pop_back();  // wrong parameter count
  EXPECT_FALSE(adam.ImportState(wrong));
  nn::AdamState resized = adam.ExportState();
  resized.v[0].resize(2);  // wrong element count
  EXPECT_FALSE(adam.ImportState(resized));
}

TEST(SerializeTest, SaveLoadRoundTrip) {
  Rng rng(9);
  TransformerStack original(2, 8, 2, 16, &rng);
  const std::vector<char> payload = EncodeParameters(original);

  Rng rng2(1234);  // different init
  TransformerStack reloaded(2, 8, 2, 16, &rng2);
  ASSERT_TRUE(DecodeParameters(&reloaded, payload));
  const auto a = original.NamedParameters();
  const auto b = reloaded.NamedParameters();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].second.ToVector(), b[i].second.ToVector()) << a[i].first;
  }
}

// Every rejected payload leaves the module's weights as they were.
TEST(SerializeTest, DecodeRejectsGarbageTruncationAndMismatch) {
  Rng rng(10);
  Linear model(2, 2, &rng);
  const std::vector<float> before =
      model.NamedParameters()[0].second.ToVector();
  Rng other_rng(11);
  const std::vector<char> payload = EncodeParameters(Linear(2, 2, &other_rng));

  const std::string garbage = "not a parameter payload";
  EXPECT_FALSE(DecodeParameters(&model, {}));
  EXPECT_FALSE(DecodeParameters(&model, {garbage.begin(), garbage.end()}));
  EXPECT_FALSE(DecodeParameters(
      &model, {payload.begin(), payload.end() - 1}));  // truncated
  std::vector<char> padded = payload;
  padded.push_back('x');
  EXPECT_FALSE(DecodeParameters(&model, padded));  // trailing bytes
  Rng wide_rng(12);
  EXPECT_FALSE(DecodeParameters(
      &model, EncodeParameters(Linear(3, 2, &wide_rng))));  // shape mismatch
  // An element count the payload cannot hold is refused before anything
  // is allocated for it.
  for (const std::uint64_t numel : {1ULL << 40, ~0ULL}) {
    util::ByteWriter huge;
    huge.U64(1);
    huge.String("weight");
    huge.U64(numel);
    huge.F32(0.5f);
    EXPECT_FALSE(DecodeParameters(&model, huge.Take())) << numel;
  }
  EXPECT_EQ(model.NamedParameters()[0].second.ToVector(), before);
}

}  // namespace
}  // namespace tfmae::nn
