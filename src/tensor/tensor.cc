#include "tensor/tensor.h"

#include <algorithm>
#include <cstring>
#include <unordered_set>

#include "obs/trace.h"
#include "tensor/capture.h"
#include "tensor/pool.h"
#include "util/logging.h"
#include "util/memory.h"
#include "util/rng.h"

namespace tfmae {

namespace {
thread_local bool g_grad_mode = true;

// Pool-backed buffer whose handle also keeps the LOGICAL MemoryStats books
// balanced: the exact byte count is recorded here and freed when the last
// alias (Tensor copy or Detach) drops the block. The pool tracks the
// physical (size-class) side separately.
std::shared_ptr<float[]> AllocateBuffer(std::int64_t numel) {
  const std::size_t bytes = static_cast<std::size_t>(numel) * sizeof(float);
  MemoryStats::RecordAlloc(bytes);
  std::shared_ptr<float[]> block = pool::Acquire(numel);
  return std::shared_ptr<float[]>(block.get(),
                                  [block, bytes](float*) mutable {
                                    MemoryStats::RecordFree(bytes);
                                    block.reset();
                                  });
}
}  // namespace

TensorImpl::TensorImpl(Shape s) : shape(std::move(s)) {
  TFMAE_CHECK_MSG(!shape.empty(), "rank-0 tensors are not supported");
  for (std::int64_t d : shape) {
    TFMAE_CHECK_MSG(d > 0, "non-positive dimension in " << ShapeToString(shape));
  }
  numel = NumElements(shape);
  data = AllocateBuffer(numel);
}

float* TensorImpl::EnsureGrad() {
  if (!grad) {
    const std::size_t bytes = static_cast<std::size_t>(numel) * sizeof(float);
    MemoryStats::RecordGradAlloc(bytes);
    std::shared_ptr<float[]> block = pool::Acquire(numel);
    grad = std::shared_ptr<float[]>(block.get(),
                                    [block, bytes](float*) mutable {
                                      MemoryStats::RecordFree(bytes);
                                      block.reset();
                                    });
    std::fill(grad.get(), grad.get() + numel, 0.0f);
  }
  return grad.get();
}

Tensor Tensor::Empty(Shape shape) {
  return Tensor(std::make_shared<TensorImpl>(std::move(shape)));
}

Tensor Tensor::Zeros(Shape shape) {
  Tensor t = Empty(std::move(shape));
  std::fill(t.data(), t.data() + t.numel(), 0.0f);
  return t;
}

Tensor Tensor::Full(Shape shape, float value) {
  Tensor t = Empty(std::move(shape));
  std::fill(t.data(), t.data() + t.numel(), value);
  return t;
}

Tensor Tensor::FromData(Shape shape, const std::vector<float>& values) {
  Tensor t = Empty(std::move(shape));
  TFMAE_CHECK_MSG(static_cast<std::int64_t>(values.size()) == t.numel(),
                  "FromData size mismatch: " << values.size() << " values for "
                                             << ShapeToString(t.shape()));
  std::memcpy(t.data(), values.data(), values.size() * sizeof(float));
  ops::capture::NoteFromData(t);
  return t;
}

Tensor Tensor::Randn(Shape shape, Rng* rng, float stddev) {
  Tensor t = Empty(std::move(shape));
  float* p = t.data();
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    p[i] = static_cast<float>(rng->Normal(0.0, stddev));
  }
  return t;
}

Tensor Tensor::Rand(Shape shape, Rng* rng, float lo, float hi) {
  Tensor t = Empty(std::move(shape));
  float* p = t.data();
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    p[i] = static_cast<float>(rng->Uniform(lo, hi));
  }
  return t;
}

const Shape& Tensor::shape() const {
  TFMAE_CHECK(defined());
  return impl_->shape;
}

std::int64_t Tensor::numel() const {
  TFMAE_CHECK(defined());
  return impl_->numel;
}

std::int64_t Tensor::dim(std::size_t axis) const {
  TFMAE_CHECK(defined() && axis < impl_->shape.size());
  return impl_->shape[axis];
}

std::size_t Tensor::rank() const {
  TFMAE_CHECK(defined());
  return impl_->shape.size();
}

float* Tensor::data() {
  TFMAE_CHECK(defined());
  return impl_->data.get();
}

const float* Tensor::data() const {
  TFMAE_CHECK(defined());
  return impl_->data.get();
}

float Tensor::at(std::int64_t flat_index) const {
  TFMAE_CHECK(defined() && flat_index >= 0 && flat_index < impl_->numel);
  return impl_->data[static_cast<std::size_t>(flat_index)];
}

std::vector<float> Tensor::ToVector() const {
  TFMAE_CHECK(defined());
  return std::vector<float>(data(), data() + numel());
}

float Tensor::item() const {
  TFMAE_CHECK_MSG(defined() && numel() == 1,
                  "item() requires a one-element tensor");
  return impl_->data[0];
}

bool Tensor::requires_grad() const {
  TFMAE_CHECK(defined());
  return impl_->requires_grad;
}

Tensor& Tensor::set_requires_grad(bool value) {
  TFMAE_CHECK(defined());
  impl_->requires_grad = value;
  return *this;
}

const float* Tensor::grad_data() const {
  TFMAE_CHECK(defined());
  return impl_->grad.get();
}

Tensor Tensor::grad() const {
  TFMAE_CHECK_MSG(defined() && impl_->grad,
                  "grad() called on a tensor with no accumulated gradient");
  Tensor g = Empty(impl_->shape);
  std::memcpy(g.data(), impl_->grad.get(),
              static_cast<std::size_t>(impl_->numel) * sizeof(float));
  return g;
}

void Tensor::ZeroGrad() {
  TFMAE_CHECK(defined());
  if (impl_->grad) {
    std::fill(impl_->grad.get(), impl_->grad.get() + impl_->numel, 0.0f);
  }
}

void Tensor::Backward() const {
  TFMAE_CHECK_MSG(defined() && numel() == 1,
                  "Backward() must be called on a scalar loss");
  // Iterative post-order DFS building a reverse topological order over the
  // recorded graph. The containers are thread-local and keep their capacity
  // (and the set its buckets) across calls, so repeated training steps walk
  // the same-shaped graph without touching the heap.
  struct Frame {
    TensorImpl* node;
    std::size_t next_input;
  };
  thread_local std::vector<TensorImpl*> topo;
  thread_local std::unordered_set<TensorImpl*> visited;
  thread_local std::vector<Frame> stack;
  topo.clear();
  visited.clear();
  stack.clear();
  stack.push_back({impl_.get(), 0});
  visited.insert(impl_.get());
  while (!stack.empty()) {
    Frame& frame = stack.back();
    if (frame.next_input < frame.node->inputs.size()) {
      TensorImpl* child = frame.node->inputs[frame.next_input++].impl().get();
      if (child != nullptr && visited.insert(child).second) {
        stack.push_back({child, 0});
      }
    } else {
      topo.push_back(frame.node);
      stack.pop_back();
    }
  }
  // topo is in post-order: inputs before outputs. Walk outputs-first.
  impl_->EnsureGrad()[0] = 1.0f;
  TFMAE_TRACE("tensor.backward");
  const bool time_nodes = obs::Enabled();
  for (std::size_t i = topo.size(); i-- > 0;) {
    TensorImpl* node = topo[i];
    if (node->backward_fn && node->grad) {
      if (time_nodes) {
        const std::uint64_t start = obs::NowNs();
        node->backward_fn(*node);
        obs::AutogradRecord(node->op, obs::NowNs() - start);
      } else {
        node->backward_fn(*node);
      }
    }
  }
}

Tensor Tensor::Detach() const {
  TFMAE_CHECK(defined());
  auto detached = std::make_shared<TensorImpl>(impl_->shape);
  // Alias the storage: Detach is free and reflects later in-place updates,
  // matching the stop-gradient semantics of Eq. (15). The buffer created by
  // the constructor is dropped here (its deleter returns it to the pool and
  // keeps the MemoryStats books balanced); the shared alias guarantees the
  // pool cannot recycle the aliased block until BOTH handles are gone.
  detached->data = impl_->data;
  return Tensor(std::move(detached));
}

Tensor Tensor::Clone() const {
  TFMAE_CHECK(defined());
  Tensor copy = Empty(impl_->shape);
  std::memcpy(copy.data(), data(),
              static_cast<std::size_t>(numel()) * sizeof(float));
  return copy;
}

bool GradModeEnabled() { return g_grad_mode; }

NoGradGuard::NoGradGuard() : previous_(g_grad_mode) { g_grad_mode = false; }

NoGradGuard::~NoGradGuard() { g_grad_mode = previous_; }

}  // namespace tfmae
