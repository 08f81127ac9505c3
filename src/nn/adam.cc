#include "nn/adam.h"

#include <cmath>

#if defined(__AVX512F__)
#include <immintrin.h>
#endif

#include "obs/trace.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace tfmae::nn {

namespace {

// Fixed chunking for the fused update: each element's arithmetic is
// independent, so any chunk boundaries give bit-identical results — but fixed
// ones keep the dispatch shape stable across thread counts.
constexpr std::int64_t kAdamGrain = 1 << 14;
constexpr std::int64_t kAdamParallelThreshold = 1 << 15;

#if defined(__AVX512F__)
// _mm512_sqrt_ps passes _mm512_undefined_ps() as the unused merge source,
// which GCC 12 reports as uninitialized where it inlines. The all-lanes
// masked form is the same instruction with an initialized source.
inline __m512 SqrtV(__m512 x) {
  return _mm512_mask_sqrt_ps(x, static_cast<__mmask16>(0xffff), x);
}
#endif

// Fused Adam element update: both moment updates, bias correction, and the
// parameter write in one pass over [s, e). Exactly the arithmetic of the
// classic four-expression form, in the same order. The 16-lane body runs
// the scalar tail's operations lane by lane (mul, add, div and sqrt round
// as the scalar ones do, and nothing is fused), so every element gets the
// scalar bits on any ISA.
void AdamUpdateRange(float* w, float* m, float* v, const float* g,
                     std::int64_t s, std::int64_t e, float scale, float lr,
                     float b1, float b2, float bias1, float bias2, float eps) {
  std::int64_t i = s;
#if defined(__AVX512F__)
  const __m512 vscale = _mm512_set1_ps(scale);
  const __m512 vb1 = _mm512_set1_ps(b1);
  const __m512 vb2 = _mm512_set1_ps(b2);
  const __m512 vc1 = _mm512_set1_ps(1.0f - b1);
  const __m512 vc2 = _mm512_set1_ps(1.0f - b2);
  const __m512 vbias1 = _mm512_set1_ps(bias1);
  const __m512 vbias2 = _mm512_set1_ps(bias2);
  const __m512 vlr = _mm512_set1_ps(lr);
  const __m512 veps = _mm512_set1_ps(eps);
  for (; i + 16 <= e; i += 16) {
    const __m512 grad = _mm512_mul_ps(_mm512_loadu_ps(g + i), vscale);
    const __m512 mi = _mm512_add_ps(_mm512_mul_ps(vb1, _mm512_loadu_ps(m + i)),
                                    _mm512_mul_ps(vc1, grad));
    const __m512 vi =
        _mm512_add_ps(_mm512_mul_ps(vb2, _mm512_loadu_ps(v + i)),
                      _mm512_mul_ps(_mm512_mul_ps(vc2, grad), grad));
    _mm512_storeu_ps(m + i, mi);
    _mm512_storeu_ps(v + i, vi);
    const __m512 m_hat = _mm512_div_ps(mi, vbias1);
    const __m512 v_hat = _mm512_div_ps(vi, vbias2);
    const __m512 step = _mm512_div_ps(_mm512_mul_ps(vlr, m_hat),
                                      _mm512_add_ps(SqrtV(v_hat), veps));
    _mm512_storeu_ps(w + i, _mm512_sub_ps(_mm512_loadu_ps(w + i), step));
  }
#endif
  for (; i < e; ++i) {
    const float grad = g[i] * scale;
    m[i] = b1 * m[i] + (1.0f - b1) * grad;
    v[i] = b2 * v[i] + (1.0f - b2) * grad * grad;
    const float m_hat = m[i] / bias1;
    const float v_hat = v[i] / bias2;
    w[i] -= lr * m_hat / (std::sqrt(v_hat) + eps);
  }
}

}  // namespace

Adam::Adam(std::vector<Tensor> parameters, AdamOptions options)
    : parameters_(std::move(parameters)), options_(options) {
  m_.reserve(parameters_.size());
  v_.reserve(parameters_.size());
  for (const Tensor& p : parameters_) {
    TFMAE_CHECK(p.defined());
    m_.emplace_back(static_cast<std::size_t>(p.numel()), 0.0f);
    v_.emplace_back(static_cast<std::size_t>(p.numel()), 0.0f);
  }
}

void Adam::Step() {
  TFMAE_TRACE("nn.adam.step");
  TFMAE_COUNTER_ADD("nn.adam.steps", 1);
  ++step_count_;
  const float lr = options_.learning_rate;
  const float b1 = options_.beta1;
  const float b2 = options_.beta2;
  const float bias1 =
      1.0f - std::pow(b1, static_cast<float>(step_count_));
  const float bias2 =
      1.0f - std::pow(b2, static_cast<float>(step_count_));

  // Optional global-norm clipping across all parameters.
  float scale = 1.0f;
  if (options_.clip_grad_norm > 0.0f) {
    double sq = 0.0;
    for (const Tensor& p : parameters_) {
      const float* g = p.grad_data();
      if (g == nullptr) continue;
      const std::int64_t n = p.numel();
      for (std::int64_t i = 0; i < n; ++i) {
        sq += static_cast<double>(g[i]) * static_cast<double>(g[i]);
      }
    }
    const double norm = std::sqrt(sq);
    if (norm > options_.clip_grad_norm) {
      scale = static_cast<float>(options_.clip_grad_norm / (norm + 1e-12));
    }
  }

  const float eps = options_.eps;
  for (std::size_t pi = 0; pi < parameters_.size(); ++pi) {
    Tensor& p = parameters_[pi];
    const float* g = p.grad_data();
    if (g == nullptr) continue;
    float* w = p.data();
    float* m = m_[pi].data();
    float* v = v_[pi].data();
    const std::int64_t n = p.numel();
    if (n < kAdamParallelThreshold) {
      AdamUpdateRange(w, m, v, g, 0, n, scale, lr, b1, b2, bias1, bias2, eps);
    } else {
      ParallelFor(0, n, kAdamGrain, [=](std::int64_t s, std::int64_t e) {
        AdamUpdateRange(w, m, v, g, s, e, scale, lr, b1, b2, bias1, bias2,
                        eps);
      });
    }
  }
}

AdamState Adam::ExportState() const {
  AdamState state;
  ExportState(&state);
  return state;
}

void Adam::ExportState(AdamState* state) const {
  state->step_count = step_count_;
  state->m = m_;  // copy-assignment reuses the buffers when shapes match
  state->v = v_;
}

bool Adam::ImportState(const AdamState& state) {
  if (state.m.size() != m_.size() || state.v.size() != v_.size()) {
    return false;
  }
  for (std::size_t i = 0; i < m_.size(); ++i) {
    if (state.m[i].size() != m_[i].size() ||
        state.v[i].size() != v_[i].size()) {
      return false;
    }
  }
  step_count_ = state.step_count;
  m_ = state.m;
  v_ = state.v;
  return true;
}

void Adam::ZeroGrad() {
  for (Tensor& p : parameters_) p.ZeroGrad();
}

}  // namespace tfmae::nn
