// Shape manipulation and row-indexing operators.
#include <cstring>

#include "tensor/capture.h"
#include "tensor/op_kernels.h"
#include "tensor/ops.h"
#include "tensor/ops_internal.h"
#include "tensor/pool.h"
#include "util/logging.h"

namespace tfmae::ops {
namespace {
using internal::SetGraph;
using internal::ShouldTrack;
}  // namespace

Tensor Reshape(const Tensor& x, Shape shape) {
  TFMAE_CHECK_MSG(NumElements(shape) == x.numel(),
                  "Reshape element-count mismatch: "
                      << ShapeToString(x.shape()) << " -> "
                      << ShapeToString(shape));
  Tensor out = Tensor::Empty(std::move(shape));
  std::memcpy(out.data(), x.data(),
              static_cast<std::size_t>(x.numel()) * sizeof(float));
  capture::NoteReshape(x, out);
  if (ShouldTrack({x})) {
    SetGraph(&out, "Reshape", {x}, [x](TensorImpl& self) {
      internal::AccumulateGrad(x, self.grad.get());
    });
  }
  return out;
}

Tensor Permute3(const Tensor& x, const std::array<int, 3>& perm) {
  TFMAE_CHECK_MSG(x.rank() == 3, "Permute3 expects a rank-3 tensor, got "
                                     << ShapeToString(x.shape()));
  const Shape& in = x.shape();
  Shape out_shape = {in[static_cast<std::size_t>(perm[0])],
                     in[static_cast<std::size_t>(perm[1])],
                     in[static_cast<std::size_t>(perm[2])]};
  Tensor out = Tensor::Empty(out_shape);
  kernels::Permute3Forward(x.data(), out.data(), {in[0], in[1], in[2]}, perm);
  capture::NotePermute3(x, perm, out);
  if (ShouldTrack({x})) {
    SetGraph(&out, "Permute3", {x}, [x, perm, out_shape](TensorImpl& self) {
      if (!x.requires_grad()) return;
      const float* grad = self.grad.get();
      pool::Scratch gx(x.numel(), /*zero_fill=*/true);
      if (perm == std::array<int, 3>{1, 0, 2}) {
        // gx[a][b][:] = 0 + grad[b][a][:], one row per (b, a); the zero
        // fill stays so a -0.0 gradient reads +0.0, as in the walk below.
        const std::int64_t rows_b = out_shape[0];
        const std::int64_t rows_a = out_shape[1];
        const std::int64_t cols = out_shape[2];
        for (std::int64_t b = 0; b < rows_b; ++b) {
          for (std::int64_t a = 0; a < rows_a; ++a) {
            float* dst = gx.data() + (a * rows_b + b) * cols;
            const float* src = grad + (b * rows_a + a) * cols;
            for (std::int64_t c = 0; c < cols; ++c) dst[c] += src[c];
          }
        }
        internal::AccumulateGrad(x, gx.data());
        return;
      }
      const auto in_strides = RowMajorStrides(x.shape());
      std::int64_t idx = 0;
      for (std::int64_t i = 0; i < out_shape[0]; ++i) {
        for (std::int64_t j = 0; j < out_shape[1]; ++j) {
          for (std::int64_t k = 0; k < out_shape[2]; ++k) {
            std::int64_t coords[3];
            coords[perm[0]] = i;
            coords[perm[1]] = j;
            coords[perm[2]] = k;
            gx.data()[coords[0] * in_strides[0] + coords[1] * in_strides[1] +
                      coords[2] * in_strides[2]] += grad[idx++];
          }
        }
      }
      internal::AccumulateGrad(x, gx.data());
    });
  }
  return out;
}

Tensor Transpose2(const Tensor& x) {
  TFMAE_CHECK_MSG(x.rank() == 2, "Transpose2 expects a rank-2 tensor");
  const std::int64_t m = x.dim(0);
  const std::int64_t n = x.dim(1);
  Tensor out = Tensor::Empty({n, m});
  const float* px = x.data();
  float* po = out.data();
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      po[j * m + i] = px[i * n + j];
    }
  }
  capture::NoteUnsupported("Transpose2");
  if (ShouldTrack({x})) {
    SetGraph(&out, "Transpose2", {x}, [x, m, n](TensorImpl& self) {
      if (!x.requires_grad()) return;
      const float* grad = self.grad.get();
      pool::Scratch gx(m * n);  // every element written
      for (std::int64_t i = 0; i < m; ++i) {
        for (std::int64_t j = 0; j < n; ++j) {
          gx.data()[i * n + j] = grad[j * m + i];
        }
      }
      internal::AccumulateGrad(x, gx.data());
    });
  }
  return out;
}

Tensor IndexRows(const Tensor& x, const std::vector<std::int64_t>& indices) {
  TFMAE_CHECK_MSG(x.rank() == 2, "IndexRows expects a rank-2 tensor");
  const std::int64_t rows = x.dim(0);
  const std::int64_t cols = x.dim(1);
  const std::int64_t out_rows = static_cast<std::int64_t>(indices.size());
  TFMAE_CHECK(out_rows > 0);
  Tensor out = Tensor::Empty({out_rows, cols});
  for (std::int64_t i = 0; i < out_rows; ++i) {
    const std::int64_t r = indices[static_cast<std::size_t>(i)];
    TFMAE_CHECK_MSG(r >= 0 && r < rows, "IndexRows index out of range: " << r);
    std::memcpy(out.data() + i * cols, x.data() + r * cols,
                static_cast<std::size_t>(cols) * sizeof(float));
  }
  capture::NoteIndexRows(x, indices, out);
  if (ShouldTrack({x})) {
    SetGraph(&out, "IndexRows", {x}, [x, indices, cols](TensorImpl& self) {
      if (!x.requires_grad()) return;
      const float* grad = self.grad.get();
      pool::Scratch gx(x.numel(), /*zero_fill=*/true);
      for (std::size_t i = 0; i < indices.size(); ++i) {
        const std::int64_t r = indices[i];
        for (std::int64_t c = 0; c < cols; ++c) {
          gx.data()[r * cols + c] +=
              grad[static_cast<std::int64_t>(i) * cols + c];
        }
      }
      internal::AccumulateGrad(x, gx.data());
    });
  }
  return out;
}

Tensor ScatterRows(const Tensor& src, const std::vector<std::int64_t>& indices,
                   std::int64_t total_rows) {
  TFMAE_CHECK_MSG(src.rank() == 2, "ScatterRows expects a rank-2 source");
  TFMAE_CHECK_MSG(static_cast<std::int64_t>(indices.size()) == src.dim(0),
                  "ScatterRows needs one index per source row");
  const std::int64_t cols = src.dim(1);
  Tensor out = Tensor::Zeros({total_rows, cols});
  for (std::size_t i = 0; i < indices.size(); ++i) {
    const std::int64_t r = indices[i];
    TFMAE_CHECK_MSG(r >= 0 && r < total_rows,
                    "ScatterRows index out of range: " << r);
    std::memcpy(out.data() + r * cols,
                src.data() + static_cast<std::int64_t>(i) * cols,
                static_cast<std::size_t>(cols) * sizeof(float));
  }
  capture::NoteScatterRows(src, indices, total_rows, out);
  if (ShouldTrack({src})) {
    SetGraph(&out, "ScatterRows", {src}, [src, indices, cols](TensorImpl& self) {
      if (!src.requires_grad()) return;
      const float* grad = self.grad.get();
      pool::Scratch gs(src.numel());  // every element written
      for (std::size_t i = 0; i < indices.size(); ++i) {
        const std::int64_t r = indices[i];
        for (std::int64_t c = 0; c < cols; ++c) {
          gs.data()[static_cast<std::int64_t>(i) * cols + c] =
              grad[r * cols + c];
        }
      }
      internal::AccumulateGrad(src, gs.data());
    });
  }
  return out;
}

Tensor RepeatRow(const Tensor& row, std::int64_t n) {
  TFMAE_CHECK_MSG(
      row.rank() == 1 || (row.rank() == 2 && row.dim(0) == 1),
      "RepeatRow expects a [D] or [1, D] tensor, got "
          << ShapeToString(row.shape()));
  const std::int64_t cols = row.rank() == 1 ? row.dim(0) : row.dim(1);
  Tensor out = Tensor::Empty({n, cols});
  for (std::int64_t i = 0; i < n; ++i) {
    std::memcpy(out.data() + i * cols, row.data(),
                static_cast<std::size_t>(cols) * sizeof(float));
  }
  capture::NoteRepeatRow(row, n, out);
  if (ShouldTrack({row})) {
    SetGraph(&out, "RepeatRow", {row}, [row, n, cols](TensorImpl& self) {
      if (!row.requires_grad()) return;
      const float* grad = self.grad.get();
      pool::Scratch gr(cols, /*zero_fill=*/true);
      for (std::int64_t i = 0; i < n; ++i) {
        for (std::int64_t c = 0; c < cols; ++c) {
          gr.data()[c] += grad[i * cols + c];
        }
      }
      internal::AccumulateGrad(row, gr.data());
    });
  }
  return out;
}

Tensor SliceRows(const Tensor& x, std::int64_t start, std::int64_t len) {
  TFMAE_CHECK_MSG(x.rank() == 2, "SliceRows expects a rank-2 tensor");
  TFMAE_CHECK_MSG(start >= 0 && len > 0 && start + len <= x.dim(0),
                  "SliceRows range [" << start << ", " << start + len
                                      << ") out of bounds for "
                                      << ShapeToString(x.shape()));
  const std::int64_t cols = x.dim(1);
  Tensor out = Tensor::Empty({len, cols});
  std::memcpy(out.data(), x.data() + start * cols,
              static_cast<std::size_t>(len * cols) * sizeof(float));
  capture::NoteUnsupported("SliceRows");
  if (ShouldTrack({x})) {
    SetGraph(&out, "SliceRows", {x}, [x, start, len, cols](TensorImpl& self) {
      if (!x.requires_grad()) return;
      const float* grad = self.grad.get();
      pool::Scratch gx(x.numel(), /*zero_fill=*/true);
      std::memcpy(gx.data() + start * cols, grad,
                  static_cast<std::size_t>(len * cols) * sizeof(float));
      internal::AccumulateGrad(x, gx.data());
    });
  }
  return out;
}

Tensor ConcatRows(const Tensor& a, const Tensor& b) {
  TFMAE_CHECK_MSG(a.rank() == 2 && b.rank() == 2 && a.dim(1) == b.dim(1),
                  "ConcatRows expects rank-2 tensors with equal columns");
  const std::int64_t cols = a.dim(1);
  const std::int64_t ra = a.dim(0);
  const std::int64_t rb = b.dim(0);
  Tensor out = Tensor::Empty({ra + rb, cols});
  std::memcpy(out.data(), a.data(),
              static_cast<std::size_t>(ra * cols) * sizeof(float));
  std::memcpy(out.data() + ra * cols, b.data(),
              static_cast<std::size_t>(rb * cols) * sizeof(float));
  capture::NoteUnsupported("ConcatRows");
  if (ShouldTrack({a, b})) {
    SetGraph(&out, "ConcatRows", {a, b}, [a, b, ra, rb, cols](TensorImpl& self) {
      const float* grad = self.grad.get();
      internal::AccumulateGrad(a, grad);
      if (b.requires_grad()) {
        internal::AccumulateGrad(b, grad + ra * cols);
      }
      (void)rb;
    });
  }
  return out;
}

Tensor Im2Col(const Tensor& x, std::int64_t kernel_size) {
  TFMAE_CHECK_MSG(x.rank() == 2, "Im2Col expects a rank-2 [T, C] tensor");
  TFMAE_CHECK_MSG(kernel_size >= 1 && kernel_size % 2 == 1,
                  "Im2Col requires an odd kernel size, got " << kernel_size);
  const std::int64_t t_len = x.dim(0);
  const std::int64_t channels = x.dim(1);
  const std::int64_t half = kernel_size / 2;
  Tensor out = Tensor::Zeros({t_len, kernel_size * channels});
  const float* px = x.data();
  float* po = out.data();
  for (std::int64_t t = 0; t < t_len; ++t) {
    for (std::int64_t k = 0; k < kernel_size; ++k) {
      const std::int64_t src = t + k - half;
      if (src < 0 || src >= t_len) continue;  // zero padding
      std::memcpy(po + (t * kernel_size + k) * channels, px + src * channels,
                  static_cast<std::size_t>(channels) * sizeof(float));
    }
  }
  capture::NoteUnsupported("Im2Col");
  if (ShouldTrack({x})) {
    SetGraph(&out, "Im2Col", {x}, [x, kernel_size, t_len, channels,
                         half](TensorImpl& self) {
      if (!x.requires_grad()) return;
      const float* grad = self.grad.get();
      pool::Scratch gx(x.numel(), /*zero_fill=*/true);
      for (std::int64_t t = 0; t < t_len; ++t) {
        for (std::int64_t k = 0; k < kernel_size; ++k) {
          const std::int64_t src = t + k - half;
          if (src < 0 || src >= t_len) continue;
          for (std::int64_t c = 0; c < channels; ++c) {
            gx.data()[src * channels + c] +=
                grad[(t * kernel_size + k) * channels + c];
          }
        }
      }
      internal::AccumulateGrad(x, gx.data());
    });
  }
  return out;
}

}  // namespace tfmae::ops
