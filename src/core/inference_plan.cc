// Plan builder + replay executor for pre-planned inference (DESIGN.md §10).
//
// Build pipeline (all at Capture() time):
//   1. trace   — run the eager ScoreWindow under a capture::Recorder.
//   2. elide   — Reshape outputs become value aliases of their inputs (a
//                row-major reshape is a copy with identical contents, so the
//                consumer can read the producer's storage directly).
//   3. lower   — int8 plans only: calibrated weight-bearing matmuls become
//                quant-linear ops (DESIGN.md §12).
//   4. plan    — lifetime analysis (first-def / last-use op interval per
//                storage) feeds a best-fit offset allocator that lays every
//                input, intermediate, and op scratch region into one arena.
//   5. resolve — every op becomes a ReplayOp: a kernel function pointer plus
//                raw data pointers into the arena / parameter storage.
//   6. verify  — one replay of the capture window, memcmp'd against the
//                eager scores; any difference rejects the plan.
//
// Replay (Score()) binds the window's values and index vectors into the
// arena and runs `for (op : ops) op.fn(op)`. No tensors, no autograd, no
// shared_ptr churn, no dispatch branching.
#include "core/inference_plan.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <limits>
#include <map>
#include <utility>

#include "nn/transformer.h"
#include "obs/trace.h"
#include "tensor/capture.h"
#include "tensor/gemm_kernels.h"
#include "tensor/op_kernels.h"
#include "tensor/pool.h"
#include "tensor/quant_kernels.h"
#include "util/logging.h"
#include "util/memory.h"

namespace tfmae::core {
namespace {

namespace cap = ops::capture;
namespace kn = ops::kernels;

// Arena offsets are aligned to 16 floats (64 bytes, one cache line) so
// adjacent slots never share a line.
constexpr std::int64_t kAlignFloats = 16;

struct ReplayOp;
using ReplayFn = void (*)(const ReplayOp&);

/// Resolved operands of one int8 linear op (DESIGN.md §12). Lives in
/// State::qdata; the ReplayOp only carries a pointer so the fp32 hot path
/// stays compact.
struct QuantOpData {
  const float* src = nullptr;    ///< fp32 input activation, [m, k]
  std::uint8_t* qbuf = nullptr;  ///< u8 arena slot, [m, k4]
  bool quantize = false;  ///< first site reading this input: fills qbuf
  const float* ch_inv = nullptr;  ///< per-channel 1/scale, k floats
  const std::int8_t* packed = nullptr;   ///< VNNI-packed s8 weights
  const float* col_scale = nullptr;      ///< per-output-channel scales
  const std::int32_t* col_comp = nullptr;  ///< zero-point compensation
  const float* bias = nullptr;             ///< null for Epilogue::kNone
  quant::Epilogue epilogue = quant::Epilogue::kNone;
  std::int64_t m = 0;
  std::int64_t k = 0;
  std::int64_t n = 0;
};

/// A fully-resolved op: kernel pointer plus raw operand pointers. Replay
/// never touches tensors or node tables.
struct ReplayOp {
  ReplayFn fn = nullptr;
  const char* name = "";  ///< op kind, printed by TFMAE_PLAN_PROFILE

  const float* in0 = nullptr;
  const float* in1 = nullptr;
  const float* in2 = nullptr;
  std::int64_t n0 = 0;  ///< numel of in0 (broadcast modulus)
  std::int64_t n1 = 0;  ///< numel of in1 (broadcast modulus)
  float* out = nullptr;
  std::int64_t out_n = 0;

  // Dimension attributes; meaning depends on the kernel (gemm m/k/n, row
  // ops rows/cols, binary ops the BinaryKind).
  std::int64_t m = 0;
  std::int64_t k = 0;
  std::int64_t n = 0;
  std::int64_t batch = 0;
  float scalar = 0.0f;

  int perm[3] = {0, 1, 2};
  std::int64_t pdims[3] = {0, 0, 0};

  // Index-consuming ops: `idx` points at the plan-owned snapshot or is
  // rebound per replay to the window's mask vector (dyn >= 0).
  const std::int64_t* idx = nullptr;
  std::int64_t idx_n = 0;
  int dyn = -1;  ///< -1 static, 0 = unmasked vector, 1 = masked vector

  float* scratch = nullptr;  ///< arena region for row-op temporaries
  std::int64_t grain = 1;    ///< row chunk grain (scratch region indexing)
  const float* pe = nullptr;  ///< positional-encoding table (kPosEncAdd)

  const QuantOpData* qd = nullptr;  ///< int8 linear ops only
};

// ---- Replay kernels --------------------------------------------------------
//
// Every kernel reproduces the corresponding eager forward exactly: same
// per-element arithmetic (tensor/op_kernels.h), same accumulation order.
// The elementwise kernels cut the eager ops' chunks (ForEachElemChunk).

void RunBinary(const ReplayOp& op) {
  const auto kind = static_cast<kn::BinaryKind>(op.m);
  kn::ForEachElemChunk(op.out_n, [&op, kind](std::int64_t s, std::int64_t e) {
    kn::BinaryRange(kind, op.in0, op.n0, op.in1, op.n1, s, e, op.out);
  });
}

void RunBiasGelu(const ReplayOp& op) {
  const float* x = op.in0;
  const float* bias = op.in1;
  const std::int64_t bn = op.n1;
  float* out = op.out;
  kn::ForEachElemChunk(op.out_n, [=](std::int64_t s, std::int64_t e) {
    kn::BiasGeluRange(x, bias, bn, s, e, out, nullptr);
  });
}

void RunQuantLinear(const ReplayOp& op) {
  const QuantOpData& q = *op.qd;
  if (q.quantize) {
    quant::QuantizeU8PerChannel(q.src, q.qbuf, q.m, q.k, q.ch_inv);
  }
  // a_scale is 1: the per-channel activation scales are folded into the
  // packed weights (row_scale at pack time), see quant_kernels.h.
  quant::QuantLinear(q.qbuf, q.packed, q.col_scale, q.col_comp, q.bias, 1.0f,
                     q.epilogue, op.out, q.m, q.k, q.n);
}

void RunMatMul(const ReplayOp& op) {
  std::memset(op.out, 0,
              static_cast<std::size_t>(op.m * op.n) * sizeof(float));
  gemm::Gemm(op.in0, op.in1, op.out, op.m, op.k, op.n);
}

void RunBatchedMatMul(const ReplayOp& op) {
  std::memset(op.out, 0,
              static_cast<std::size_t>(op.batch * op.m * op.n) * sizeof(float));
  gemm::BatchedGemm(op.in0, op.in1, op.out, op.batch, op.m, op.k, op.n);
}

// gemm::BatchedGemmBt's two steps, packing into the op's arena scratch
// instead of a pool buffer, so replay never calls the pool.
void RunBatchedMatMulBt(const ReplayOp& op) {
  std::memset(op.out, 0,
              static_cast<std::size_t>(op.batch * op.m * op.n) * sizeof(float));
  gemm::BatchedTransposePack(op.in1, op.batch, op.n, op.k, op.scratch);
  gemm::BatchedGemm(op.in0, op.scratch, op.out, op.batch, op.m, op.k, op.n);
}

void RunPermute3(const ReplayOp& op) {
  kn::Permute3Forward(op.in0, op.out,
                      {op.pdims[0], op.pdims[1], op.pdims[2]},
                      {op.perm[0], op.perm[1], op.perm[2]});
}

void RunIndexRows(const ReplayOp& op) {
  const std::int64_t cols = op.k;
  for (std::int64_t i = 0; i < op.idx_n; ++i) {
    std::memcpy(op.out + i * cols, op.in0 + op.idx[i] * cols,
                static_cast<std::size_t>(cols) * sizeof(float));
  }
}

void RunScatterRows(const ReplayOp& op) {
  const std::int64_t cols = op.k;
  std::memset(op.out, 0,
              static_cast<std::size_t>(op.m * cols) * sizeof(float));
  for (std::int64_t i = 0; i < op.idx_n; ++i) {
    std::memcpy(op.out + op.idx[i] * cols, op.in0 + i * cols,
                static_cast<std::size_t>(cols) * sizeof(float));
  }
}

void RunRepeatRow(const ReplayOp& op) {
  const std::int64_t cols = op.k;
  for (std::int64_t i = 0; i < op.m; ++i) {
    std::memcpy(op.out + i * cols, op.in0,
                static_cast<std::size_t>(cols) * sizeof(float));
  }
}

void RunScaleSoftmax(const ReplayOp& op) {
  const std::int64_t cols = op.k;
  kn::ForEachRowChunk(op.m, cols, [&op, cols](std::int64_t r0,
                                              std::int64_t r1) {
    kn::SoftmaxRows(op.in0 + r0 * cols, op.out + r0 * cols, r1 - r0, cols,
                    op.scalar);
  });
}

void RunLayerNorm(const ReplayOp& op) {
  const std::int64_t cols = op.k;
  kn::ForEachRowChunk(op.m, cols, [&op, cols](std::int64_t r0,
                                              std::int64_t r1) {
    for (std::int64_t r = r0; r < r1; ++r) {
      float mean = 0.0f;
      float inv_std = 0.0f;
      kn::LayerNormRow(op.in0 + r * cols, op.in1, op.in2, cols, op.scalar,
                       op.out + r * cols, &mean, &inv_std);
    }
  });
}

void RunPosEncAdd(const ReplayOp& op) {
  const std::int64_t dim = op.k;
  for (std::int64_t i = 0; i < op.m; ++i) {
    const float* pe_row = op.pe + op.idx[i] * dim;
    const float* x = op.in0 + i * dim;
    float* out = op.out + i * dim;
    // Same operand order as the eager gather-then-AddInPlace: pe + x.
    for (std::int64_t d = 0; d < dim; ++d) out[d] = pe_row[d] + x[d];
  }
}

void RunSymKlPerRow(const ReplayOp& op) {
  const std::int64_t cols = op.k;
  kn::ForEachRowChunk(op.m, cols, [&op, cols](std::int64_t r0,
                                              std::int64_t r1) {
    float* tmp = op.scratch + (r0 / op.grain) * 2 * cols;
    for (std::int64_t r = r0; r < r1; ++r) {
      op.out[r] = kn::SymmetricKlRow(op.in0 + r * cols, op.in1 + r * cols,
                                     cols, tmp, tmp + cols);
    }
  });
}

// ---- Memory planner --------------------------------------------------------

/// Best-fit offset allocator over a single arena. Free blocks coalesce with
/// their neighbors; the arena grows only when no free block fits, so the
/// final size is the lifetime-aware high-water mark.
class ArenaPlanner {
 public:
  std::int64_t Alloc(std::int64_t floats) {
    floats = Align(floats);
    int best = -1;
    for (int i = 0; i < static_cast<int>(free_.size()); ++i) {
      if (free_[i].floats >= floats &&
          (best < 0 || free_[i].floats < free_[best].floats)) {
        best = i;
      }
    }
    if (best >= 0) {
      const std::int64_t offset = free_[best].offset;
      free_[best].offset += floats;
      free_[best].floats -= floats;
      if (free_[best].floats == 0) {
        free_.erase(free_.begin() + best);
      }
      return offset;
    }
    const std::int64_t offset = end_;
    end_ += floats;
    return offset;
  }

  void Free(std::int64_t offset, std::int64_t floats) {
    floats = Align(floats);
    Block block{offset, floats};
    auto pos = std::lower_bound(
        free_.begin(), free_.end(), block,
        [](const Block& a, const Block& b) { return a.offset < b.offset; });
    pos = free_.insert(pos, block);
    // Coalesce with the successor, then the predecessor.
    auto next = pos + 1;
    if (next != free_.end() && pos->offset + pos->floats == next->offset) {
      pos->floats += next->floats;
      free_.erase(next);
    }
    if (pos != free_.begin()) {
      auto prev = pos - 1;
      if (prev->offset + prev->floats == pos->offset) {
        prev->floats += pos->floats;
        free_.erase(pos);
      }
    }
  }

  std::int64_t total_floats() const { return end_; }

 private:
  struct Block {
    std::int64_t offset;
    std::int64_t floats;
  };
  static std::int64_t Align(std::int64_t floats) {
    return (floats + kAlignFloats - 1) / kAlignFloats * kAlignFloats;
  }

  std::vector<Block> free_;  // sorted by offset
  std::int64_t end_ = 0;
};

/// TFMAE_PLAN_PROFILE's name of each cap::OpKind, in enum order.
constexpr const char* kOpNames[] = {
    "Binary", "BiasGelu", "MatMul", "BatchedMatMul", "BatchedMatMulBt",
    "Reshape", "Permute3", "IndexRows", "ScatterRows", "RepeatRow",
    "ScaleSoftmax", "LayerNorm", "PosEncAdd", "SymKlPerRow"};
static_assert(std::size(kOpNames) ==
              static_cast<std::size_t>(cap::OpKind::kSymKlPerRow) + 1);

/// Per-op scratch requirement in floats; zero for ops without temporaries.
std::int64_t ScratchFloats(const cap::CapturedOp& op) {
  if (op.kind == cap::OpKind::kSymKlPerRow) {
    // The two softmax rows, one pair per row chunk.
    const std::int64_t rows = op.attrs[0];
    const std::int64_t cols = op.attrs[1];
    const std::int64_t grain = kn::RowChunkGrain(cols);
    return (rows + grain - 1) / grain * 2 * cols;
  }
  if (op.kind == cap::OpKind::kBatchedMatMulBt) {
    // The packed B operand: batch x [k, n].
    return op.attrs[0] * op.attrs[2] * op.attrs[3];
  }
  return 0;
}

}  // namespace

// ---- State -----------------------------------------------------------------

struct InferencePlan::State {
  // Geometry the plan was compiled for (Matches()).
  std::int64_t length = 0;
  std::int64_t num_features = 0;
  std::int64_t unmasked_count = 0;
  std::int64_t masked_count = 0;
  std::int64_t freq_count = 0;
  std::int64_t score_rows = 0;

  // The arena: ONE pool allocation, ONE logical MemoryStats record.
  std::shared_ptr<float[]> arena;
  std::int64_t arena_floats = 0;

  std::vector<Tensor> params;  ///< keeps weight storage alive
  std::map<std::int64_t, std::vector<float>> pe_tables;  ///< dim -> [T, dim]
  std::vector<std::vector<std::int64_t>> index_snapshots;

  std::vector<ReplayOp> ops;
  struct BindInput {
    cap::InputTag tag;
    float* dst;
    std::int64_t numel;
  };
  std::vector<BindInput> inputs;
  std::vector<int> dyn_idx_ops;  ///< op indices whose idx rebinds per window
  int terminal = -1;             ///< index of the kSymKlPerRow op

  // Calibration observer sites: fp32 weight-bearing matmuls in op order.
  struct ObserverSite {
    int op_index;
    int weight_index;
    const float* in;
    std::int64_t rows;
    std::int64_t cols;
  };
  std::vector<ObserverSite> observer_sites;

  // Int8 path state (quantized plans only). qdata and qpacks never
  // reallocate once ReplayOps point into them (reserved up front).
  struct QuantWeightPack {
    std::vector<std::int8_t> packed;
    std::vector<float> col_scale;
    std::vector<std::int32_t> col_comp;
  };
  std::vector<QuantWeightPack> qpacks;
  std::vector<QuantOpData> qdata;
  std::unique_ptr<std::uint8_t[]> qarena;  ///< packed u8 activation slots
  std::int64_t qarena_bytes = 0;
  // Per-slot per-channel activation scales (and reciprocals); fully built
  // before any QuantOpData points into them.
  std::vector<std::vector<float>> qch_scale;
  std::vector<std::vector<float>> qch_inv;

  // TFMAE_PLAN_PROFILE: nanoseconds per op summed over profiled replays.
  // Per plan, so concurrently replaying lanes never share them.
  std::vector<double> profile_ns;
  std::int64_t profile_replays = 0;
};

InferencePlan::InferencePlan() = default;

InferencePlan::~InferencePlan() {
  if (state_ != nullptr && state_->arena != nullptr) {
    MemoryStats::RecordFree(
        static_cast<std::size_t>(state_->arena_floats) * sizeof(float));
  }
  if (state_ != nullptr && state_->qarena != nullptr) {
    MemoryStats::RecordFree(static_cast<std::size_t>(state_->qarena_bytes));
  }
}

// ---- Capture ---------------------------------------------------------------

std::unique_ptr<InferencePlan> InferencePlan::Capture(
    const TfmaeModel& model, const MaskedWindow& example,
    std::vector<float>* eager_scores, std::string* error,
    const QuantSpec* quant) {
  TFMAE_CHECK(eager_scores != nullptr);
  TFMAE_TRACE("infer.plan.capture");
  const auto t0 = std::chrono::steady_clock::now();
  auto fail = [error](const std::string& reason)
      -> std::unique_ptr<InferencePlan> {
    if (error != nullptr) *error = reason;
    TFMAE_COUNTER_ADD("infer.plan.capture_failures", 1);
    return nullptr;
  };

  // 1. Trace the eager scoring pass. The recorder keeps every noted tensor
  // alive, so node identity is stable for the duration.
  cap::Recorder recorder;
  for (const Tensor& p : model.Parameters()) recorder.AddParameter(p);
  recorder.TagIndexVector(&example.temporal.unmasked,
                          cap::IndexTag::kTemporalUnmasked);
  recorder.TagIndexVector(&example.temporal.masked,
                          cap::IndexTag::kTemporalMasked);
  *eager_scores = model.ScoreWindow(example);
  if (!recorder.ok()) return fail("capture: " + recorder.error());
  if (recorder.score_rows() < 0) return fail("capture: no terminal score op");

  const std::vector<cap::NodeInfo>& nodes = recorder.nodes();
  std::vector<cap::CapturedOp> captured = recorder.ops();

  auto plan = std::unique_ptr<InferencePlan>(new InferencePlan());
  plan->stats_.captured_ops = static_cast<std::int64_t>(captured.size());
  auto state = std::make_unique<State>();
  state->length = example.length;
  state->num_features = example.num_features;
  state->unmasked_count =
      static_cast<std::int64_t>(example.temporal.unmasked.size());
  state->masked_count =
      static_cast<std::int64_t>(example.temporal.masked.size());
  state->freq_count = static_cast<std::int64_t>(example.frequency.size());
  state->score_rows = recorder.score_rows();
  state->params = recorder.parameters();

  TFMAE_TRACE("infer.plan.build");

  // 2. Reshape elision: rewrite inputs to canonical value nodes, drop the
  // reshape ops. A canonical node owns the storage for every alias.
  std::vector<int> alias(nodes.size());
  for (int i = 0; i < static_cast<int>(alias.size()); ++i) alias[i] = i;
  std::vector<cap::CapturedOp> prog;
  prog.reserve(captured.size());
  for (cap::CapturedOp& op : captured) {
    for (int& in : op.inputs) in = alias[in];
    if (op.kind == cap::OpKind::kReshape) {
      alias[op.output] = op.inputs[0];
      ++plan->stats_.elided_reshapes;
      continue;
    }
    prog.push_back(std::move(op));
  }

  // 3. Int8 lowering (quantized plans only): every weight-bearing matmul
  // with a calibrated site becomes a quant-linear op. A single consumer
  // that is the Linear bias add (kBinary kAdd with a weight operand) or the
  // feed-forward kBiasGelu is folded into the dequantization epilogue — the
  // fp32 matmul output is then never materialized, which is the "elide
  // quant/dequant pairs at fused boundaries" half of the accounting (the
  // other half is shared-input quantization reuse, counted at resolve).
  // qsite_of runs parallel to prog: >= 0 indexes qsites.
  struct QuantLowering {
    int x_node = -1;
    int w_node = -1;
    int bias_node = -1;  ///< -1 for Epilogue::kNone
    quant::Epilogue epilogue = quant::Epilogue::kNone;
    std::int64_t m = 0;
    std::int64_t k = 0;
    std::int64_t n = 0;
    int out_node = -1;  ///< the folded consumer's output (or the matmul's)
    const QuantSite* site = nullptr;
  };
  std::vector<QuantLowering> qsites;
  std::vector<int> qsite_of(prog.size(), -1);
  if (quant != nullptr) {
    std::vector<int> quses(nodes.size(), 0);
    std::vector<int> consumer(nodes.size(), -1);  // unique consumer, -2 many
    for (int i = 0; i < static_cast<int>(prog.size()); ++i) {
      for (int in : prog[i].inputs) {
        ++quses[in];
        consumer[in] = consumer[in] == -1 ? i : -2;
      }
    }
    std::vector<bool> removed(prog.size(), false);
    std::vector<int> qmark(prog.size(), -1);
    for (int i = 0; i < static_cast<int>(prog.size()); ++i) {
      const cap::CapturedOp& op = prog[i];
      if (op.kind != cap::OpKind::kMatMul) continue;
      const int w_node = op.inputs[1];
      if (nodes[w_node].kind != cap::NodeKind::kWeight) continue;
      const QuantSite* site = quant->Find(nodes[w_node].weight_index);
      if (site == nullptr) continue;
      const std::int64_t k = op.attrs[1];
      const std::int64_t n = op.attrs[2];
      if (site->in_features != k ||
          static_cast<std::int64_t>(site->absmax.size()) != k) {
        continue;  // calibrated against a different geometry: stay fp32
      }
      QuantLowering lo;
      lo.x_node = op.inputs[0];
      lo.w_node = w_node;
      lo.m = op.attrs[0];
      lo.k = k;
      lo.n = n;
      lo.out_node = op.output;
      lo.site = site;
      const int u = op.output;
      if (quses[u] == 1 && consumer[u] >= 0 && !removed[consumer[u]]) {
        const cap::CapturedOp& c = prog[consumer[u]];
        if (c.kind == cap::OpKind::kBinary &&
            static_cast<kn::BinaryKind>(c.attrs[0]) == kn::BinaryKind::kAdd) {
          const int other = c.inputs[0] == u ? c.inputs[1] : c.inputs[0];
          if (nodes[other].kind == cap::NodeKind::kWeight &&
              nodes[other].numel == n) {
            lo.bias_node = other;
            lo.epilogue = quant::Epilogue::kBias;
            lo.out_node = c.output;
            removed[consumer[u]] = true;
            ++plan->stats_.elided_quant_pairs;
          }
        } else if (c.kind == cap::OpKind::kBiasGelu && c.inputs[0] == u &&
                   nodes[c.inputs[1]].kind == cap::NodeKind::kWeight &&
                   nodes[c.inputs[1]].numel == n) {
          lo.bias_node = c.inputs[1];
          lo.epilogue = quant::Epilogue::kBiasGelu;
          lo.out_node = c.output;
          removed[consumer[u]] = true;
          ++plan->stats_.elided_quant_pairs;
        }
      }
      qmark[i] = static_cast<int>(qsites.size());
      qsites.push_back(lo);
    }
    if (qsites.empty()) {
      return fail("quant: no calibrated site matches this graph");
    }
    std::vector<cap::CapturedOp> lowered;
    std::vector<int> lowered_qsite;
    lowered.reserve(prog.size());
    for (int i = 0; i < static_cast<int>(prog.size()); ++i) {
      if (removed[i]) continue;
      cap::CapturedOp op = std::move(prog[i]);
      if (qmark[i] >= 0) {
        const QuantLowering& lo = qsites[static_cast<std::size_t>(qmark[i])];
        // The quant-linear op defines the folded consumer's output and
        // reads {x, w, bias}; the fp32 matmul intermediate disappears.
        op.output = lo.out_node;
        if (lo.bias_node >= 0) op.inputs.push_back(lo.bias_node);
      }
      lowered_qsite.push_back(qmark[i]);
      lowered.push_back(std::move(op));
    }
    prog = std::move(lowered);
    qsite_of = std::move(lowered_qsite);
    plan->stats_.quantized = true;
    plan->stats_.quant_linear_ops = static_cast<std::int64_t>(qsites.size());
  }

  // 4. Lifetime analysis + arena layout. def/last are op indices; inputs
  // are bound before op 0 (def -1) and terminal scores leave through the
  // caller's buffer.
  const int nops = static_cast<int>(prog.size());
  std::vector<int> def(nodes.size(), -2), last(nodes.size(), -2);
  for (int j = 0; j < nops; ++j) {
    const cap::CapturedOp& op = prog[j];
    for (int in : op.inputs) {
      if (nodes[in].kind == cap::NodeKind::kIntermediate ||
          nodes[in].kind == cap::NodeKind::kInput) {
        last[in] = std::max(last[in], j);
      }
    }
    if (op.output >= 0) def[op.output] = j;
  }
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i].kind == cap::NodeKind::kInput && alias[i] == static_cast<int>(i)) {
      def[i] = -1;
    }
  }

  ArenaPlanner planner;
  std::vector<std::int64_t> offset(nodes.size(), -1);
  std::vector<std::int64_t> scratch_offset(nops, -1);
  auto alloc_node = [&](int node) {
    offset[node] = planner.Alloc(nodes[node].numel);
    ++plan->stats_.slots;
  };
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (def[i] == -1) alloc_node(static_cast<int>(i));
  }
  for (int j = 0; j < nops; ++j) {
    const cap::CapturedOp& op = prog[j];
    const std::int64_t sfloats = ScratchFloats(op);
    if (sfloats > 0) {
      scratch_offset[j] = planner.Alloc(sfloats);
      ++plan->stats_.slots;
    }
    if (op.output >= 0) {
      alloc_node(op.output);
      if (last[op.output] < j) last[op.output] = j;  // unread output
    }
    // Frees happen after op j: scratch immediately, operands at last use.
    if (scratch_offset[j] >= 0) planner.Free(scratch_offset[j], sfloats);
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      if (last[i] == j && offset[i] >= 0 &&
          (nodes[i].kind == cap::NodeKind::kIntermediate ||
           nodes[i].kind == cap::NodeKind::kInput)) {
        planner.Free(offset[i], nodes[i].numel);
        last[i] = -3;  // freed
      }
    }
  }

  state->arena_floats = std::max<std::int64_t>(planner.total_floats(), 1);
  state->arena = pool::Acquire(state->arena_floats);
  const std::int64_t arena_bytes =
      state->arena_floats * static_cast<std::int64_t>(sizeof(float));
  MemoryStats::RecordAlloc(static_cast<std::size_t>(arena_bytes));
  plan->stats_.arena_bytes = arena_bytes;
  float* arena = state->arena.get();

  // 4b. Int8 activation arena: one u8 slot per DISTINCT quantized input
  // node (q/k/v share theirs), lifetime-planned exactly like the fp32
  // arena but in bytes — a slot is one quarter the size of its fp32
  // counterpart. The first quant op reading a node fills the slot; later
  // sites reuse it (each reuse is one more elided quant/dequant pair).
  struct QSlot {
    std::int64_t offset = -1;
    std::int64_t bytes = 0;
    int first = -1;  ///< op index that quantizes
    int last = -1;   ///< last op index that reads
    int vec = -1;    ///< index into State::qch_scale / qch_inv
    std::vector<float> ch_absmax;  ///< per-channel calibrated |x| range
  };
  std::map<int, QSlot> qslots;  // by canonical x node
  for (int j = 0; j < nops; ++j) {
    const int qi = qsite_of[j];
    if (qi < 0) continue;
    const QuantLowering& lo = qsites[static_cast<std::size_t>(qi)];
    QSlot& slot = qslots[lo.x_node];
    if (slot.first < 0) {
      slot.first = j;
      slot.bytes = lo.m * quant::RoundUpK4(lo.k);
      slot.ch_absmax = lo.site->absmax;
    } else {
      ++plan->stats_.elided_quant_pairs;
      // Sites sharing an input see identical data, so their calibrated
      // ranges agree; the element-wise max is a no-op in practice but
      // keeps the slot's shared scales safe if they ever diverge.
      for (std::size_t c = 0; c < slot.ch_absmax.size(); ++c) {
        slot.ch_absmax[c] = std::max(slot.ch_absmax[c], lo.site->absmax[c]);
      }
    }
    slot.last = j;
  }
  // Activation scales, shared by every site reading the slot. The step is
  // per-tensor — the calibrated tensor-wide absmax — carried through the
  // per-channel fold machinery (all channels get the same step, so the
  // fold into the weight rows is a uniform no-op on weight precision).
  // Per-channel steps (SmoothQuant-style folding at alpha in {0.5, 1}) and
  // extra headroom were both tried and measurably hurt parity: tight
  // per-channel steps clip out-of-distribution test activations — exactly
  // the anomaly signal the detector scores — and the fold inflates the
  // per-column weight dynamic range.
  for (auto& [node, slot] : qslots) {
    slot.vec = static_cast<int>(state->qch_scale.size());
    float amax_max = 0.0f;
    for (const float a : slot.ch_absmax) amax_max = std::max(amax_max, a);
    if (amax_max <= 1e-20f) amax_max = 1.0f;
    std::vector<float> sc(slot.ch_absmax.size());
    std::vector<float> inv(slot.ch_absmax.size());
    for (std::size_t c = 0; c < slot.ch_absmax.size(); ++c) {
      sc[c] = amax_max / 127.0f;
      inv[c] = 1.0f / sc[c];
    }
    state->qch_scale.push_back(std::move(sc));
    state->qch_inv.push_back(std::move(inv));
  }
  if (!qslots.empty()) {
    ArenaPlanner qplanner;  // byte-granular (alignment = 16 bytes)
    for (int j = 0; j < nops; ++j) {
      for (auto& [node, slot] : qslots) {
        if (slot.first == j) slot.offset = qplanner.Alloc(slot.bytes);
      }
      for (auto& [node, slot] : qslots) {
        if (slot.last == j) qplanner.Free(slot.offset, slot.bytes);
      }
    }
    state->qarena_bytes = std::max<std::int64_t>(qplanner.total_floats(), 1);
    state->qarena =
        std::make_unique<std::uint8_t[]>(
            static_cast<std::size_t>(state->qarena_bytes));
    MemoryStats::RecordAlloc(static_cast<std::size_t>(state->qarena_bytes));
    plan->stats_.quant_arena_bytes = state->qarena_bytes;
  }

  // 5. Resolve. Positional-encoding tables first (pure function of
  // (length, dim); a longer table's prefix equals the shorter one, so the
  // plan's private table matches the eager path's cache bit-for-bit).
  for (const cap::CapturedOp& op : prog) {
    if (op.kind != cap::OpKind::kPosEncAdd) continue;
    const std::int64_t dim = op.attrs[1];
    if (state->pe_tables.count(dim) != 0) continue;
    Tensor table = nn::SinusoidalPositionalEncoding(state->length, dim);
    state->pe_tables[dim].assign(table.data(),
                                 table.data() + table.numel());
  }

  // Then every op becomes a ReplayOp.
  auto node_ptr = [&](int node) -> float* {
    const cap::NodeInfo& info = nodes[node];
    if (info.kind == cap::NodeKind::kWeight) {
      return state->params[static_cast<std::size_t>(info.weight_index)].data();
    }
    TFMAE_CHECK_MSG(offset[node] >= 0, "plan: node without storage");
    return arena + offset[node];
  };
  auto bind_indices = [&](ReplayOp* rop, const cap::CapturedOp& op,
                          int op_index) {
    if (op.index_tag == cap::IndexTag::kTemporalUnmasked) {
      rop->dyn = 0;
      state->dyn_idx_ops.push_back(op_index);
    } else if (op.index_tag == cap::IndexTag::kTemporalMasked) {
      rop->dyn = 1;
      state->dyn_idx_ops.push_back(op_index);
    } else {
      state->index_snapshots.push_back(op.indices);
      rop->idx = state->index_snapshots.back().data();
    }
  };

  state->ops.reserve(static_cast<std::size_t>(nops));
  // index_snapshots / qdata / qpacks must never reallocate once pointers
  // are taken.
  state->index_snapshots.reserve(static_cast<std::size_t>(nops));
  state->qdata.reserve(qsites.size());
  state->qpacks.reserve(qsites.size());
  const bool is_quant = quant != nullptr;
  for (int j = 0; j < nops; ++j) {
    const cap::CapturedOp& op = prog[j];
    ReplayOp rop;
    if (op.output >= 0) {
      rop.out = node_ptr(op.output);
      rop.out_n = nodes[op.output].numel;
    }
    const int qi = qsite_of[j];
    if (qi >= 0) {
      // Int8 linear: pack this site's weights once, wire the shared u8
      // activation slot, fuse the dequant (+bias/+GeLU) epilogue.
      const QuantLowering& lo = qsites[static_cast<std::size_t>(qi)];
      const QSlot& slot = qslots.at(lo.x_node);
      State::QuantWeightPack pack;
      pack.packed.resize(
          static_cast<std::size_t>(quant::PackedWeightBytes(lo.k, lo.n)));
      pack.col_scale.resize(static_cast<std::size_t>(lo.n));
      pack.col_comp.resize(static_cast<std::size_t>(lo.n));
      // The slot's per-channel activation scales fold into the weights
      // here; the replayed epilogue then dequantizes with a_scale = 1.
      quant::QuantizePackWeights(
          node_ptr(lo.w_node), lo.k, lo.n, pack.packed.data(),
          pack.col_scale.data(), pack.col_comp.data(),
          state->qch_scale[static_cast<std::size_t>(slot.vec)].data());
      state->qpacks.push_back(std::move(pack));
      const State::QuantWeightPack& stored = state->qpacks.back();
      QuantOpData qd;
      qd.src = node_ptr(lo.x_node);
      qd.qbuf = state->qarena.get() + slot.offset;
      qd.quantize = slot.first == j;
      qd.ch_inv = state->qch_inv[static_cast<std::size_t>(slot.vec)].data();
      qd.packed = stored.packed.data();
      qd.col_scale = stored.col_scale.data();
      qd.col_comp = stored.col_comp.data();
      qd.bias = lo.bias_node >= 0 ? node_ptr(lo.bias_node) : nullptr;
      qd.epilogue = lo.epilogue;
      qd.m = lo.m;
      qd.k = lo.k;
      qd.n = lo.n;
      state->qdata.push_back(qd);
      rop.fn = RunQuantLinear;
      rop.name = lo.epilogue == quant::Epilogue::kBiasGelu
                     ? "QuantLinearBiasGelu"
                 : lo.epilogue == quant::Epilogue::kBias ? "QuantLinearBias"
                                                         : "QuantLinear";
      rop.qd = &state->qdata.back();
      rop.m = lo.m;
      rop.k = lo.k;
      rop.n = lo.n;
      state->ops.push_back(rop);
      continue;
    }
    switch (op.kind) {
      case cap::OpKind::kBinary:
        rop.fn = RunBinary;
        rop.m = op.attrs[0];  // BinaryKind
        rop.in0 = node_ptr(op.inputs[0]);
        rop.n0 = nodes[op.inputs[0]].numel;
        rop.in1 = node_ptr(op.inputs[1]);
        rop.n1 = nodes[op.inputs[1]].numel;
        break;
      case cap::OpKind::kBiasGelu:
        rop.fn = RunBiasGelu;
        rop.in0 = node_ptr(op.inputs[0]);
        rop.in1 = node_ptr(op.inputs[1]);
        rop.n1 = nodes[op.inputs[1]].numel;
        break;
      case cap::OpKind::kMatMul:
        rop.fn = RunMatMul;
        rop.in0 = node_ptr(op.inputs[0]);
        rop.in1 = node_ptr(op.inputs[1]);
        rop.m = op.attrs[0];
        rop.k = op.attrs[1];
        rop.n = op.attrs[2];
        if (nodes[op.inputs[1]].kind == cap::NodeKind::kWeight) {
          // Calibration hook: this matmul's fp32 input is observable.
          state->observer_sites.push_back(
              {j, nodes[op.inputs[1]].weight_index, rop.in0, rop.m, rop.k});
        }
        break;
      case cap::OpKind::kBatchedMatMul:
      case cap::OpKind::kBatchedMatMulBt:
        rop.fn = op.kind == cap::OpKind::kBatchedMatMul ? RunBatchedMatMul
                                                        : RunBatchedMatMulBt;
        rop.in0 = node_ptr(op.inputs[0]);
        rop.in1 = node_ptr(op.inputs[1]);
        rop.batch = op.attrs[0];
        rop.m = op.attrs[1];
        rop.k = op.attrs[2];
        rop.n = op.attrs[3];
        if (scratch_offset[j] >= 0) rop.scratch = arena + scratch_offset[j];
        break;
      case cap::OpKind::kReshape:
        TFMAE_CHECK_MSG(false, "plan: reshape survived elision");
        break;
      case cap::OpKind::kPermute3:
        rop.fn = RunPermute3;
        rop.in0 = node_ptr(op.inputs[0]);
        for (int d = 0; d < 3; ++d) {
          rop.pdims[d] = op.attrs[d];
          rop.perm[d] = static_cast<int>(op.attrs[3 + d]);
        }
        break;
      case cap::OpKind::kIndexRows:
        rop.fn = RunIndexRows;
        rop.in0 = node_ptr(op.inputs[0]);
        rop.k = op.attrs[0];
        rop.idx_n = rop.out_n / rop.k;
        bind_indices(&rop, op, j);
        break;
      case cap::OpKind::kScatterRows:
        rop.fn = RunScatterRows;
        rop.in0 = node_ptr(op.inputs[0]);
        rop.m = op.attrs[0];
        rop.k = op.attrs[1];
        rop.idx_n = nodes[op.inputs[0]].numel / rop.k;
        bind_indices(&rop, op, j);
        break;
      case cap::OpKind::kRepeatRow:
        rop.fn = RunRepeatRow;
        rop.in0 = node_ptr(op.inputs[0]);
        rop.m = op.attrs[0];
        rop.k = op.attrs[1];
        break;
      case cap::OpKind::kScaleSoftmax:
        rop.fn = RunScaleSoftmax;
        rop.in0 = node_ptr(op.inputs[0]);
        rop.m = op.attrs[0];
        rop.k = op.attrs[1];
        rop.scalar = op.scalar;
        break;
      case cap::OpKind::kLayerNorm:
        rop.fn = RunLayerNorm;
        rop.in0 = node_ptr(op.inputs[0]);
        rop.in1 = node_ptr(op.inputs[1]);
        rop.in2 = node_ptr(op.inputs[2]);
        rop.m = op.attrs[0];
        rop.k = op.attrs[1];
        rop.scalar = op.scalar;
        break;
      case cap::OpKind::kPosEncAdd:
        rop.fn = RunPosEncAdd;
        rop.in0 = node_ptr(op.inputs[0]);
        rop.m = op.attrs[0];
        rop.k = op.attrs[1];
        rop.pe = state->pe_tables.at(op.attrs[1]).data();
        bind_indices(&rop, op, j);
        break;
      case cap::OpKind::kSymKlPerRow:
        rop.fn = RunSymKlPerRow;
        rop.in0 = node_ptr(op.inputs[0]);
        rop.in1 = node_ptr(op.inputs[1]);
        rop.m = op.attrs[0];
        rop.k = op.attrs[1];
        rop.scratch = arena + scratch_offset[j];
        rop.grain = kn::RowChunkGrain(rop.k);
        state->terminal = j;
        break;
    }
    rop.name = kOpNames[static_cast<int>(op.kind)];
    state->ops.push_back(rop);
  }
  plan->stats_.ops = static_cast<std::int64_t>(state->ops.size());

  // Input binding table (values rebound every replay).
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i].kind == cap::NodeKind::kInput &&
        alias[i] == static_cast<int>(i)) {
      state->inputs.push_back(
          {nodes[i].input_tag, arena + offset[i], nodes[i].numel});
    }
  }

  // From here on the plan owns the arena accounting (destructor records
  // the free), so failure paths stay balanced.
  const bool terminal_ok =
      state->terminal == static_cast<int>(state->ops.size()) - 1;
  plan->state_ = std::move(state);
  if (!terminal_ok) return fail("plan: score op is not terminal");

  // 6. Self-verification. fp32 plans must reproduce the eager scores
  // bit-for-bit. Int8 plans cannot (quantization changes values), so they
  // must instead (a) replay twice bitwise-identically — determinism —
  // (b) produce only finite scores, and (c) land inside a coarse
  // quantization-noise envelope of the eager scores, which catches wiring
  // bugs (wrong slot, stale scale) without rejecting honest rounding.
  {
    TFMAE_TRACE("infer.plan.verify");
    std::vector<float> replayed;
    plan->Score(example, &replayed);
    if (replayed.size() != eager_scores->size()) {
      return fail("plan: self-verification score count mismatch");
    }
    if (!is_quant) {
      if (std::memcmp(replayed.data(), eager_scores->data(),
                      replayed.size() * sizeof(float)) != 0) {
        return fail("plan: self-verification mismatch vs eager scores");
      }
    } else {
      std::vector<float> second;
      plan->Score(example, &second);
      if (std::memcmp(replayed.data(), second.data(),
                      replayed.size() * sizeof(float)) != 0) {
        return fail("quant: replay is not deterministic");
      }
      float eager_max = 0.0f;
      float max_err = 0.0f;
      for (std::size_t i = 0; i < replayed.size(); ++i) {
        if (!std::isfinite(replayed[i])) {
          return fail("quant: non-finite score in self-verification");
        }
        eager_max = std::max(eager_max, std::fabs((*eager_scores)[i]));
        max_err = std::max(max_err, std::fabs(replayed[i] -
                                              (*eager_scores)[i]));
      }
      if (max_err > 0.25f * std::max(eager_max, 1e-3f)) {
        return fail("quant: scores outside the eager agreement envelope");
      }
    }
  }
  plan->stats_.replays = 0;

  plan->stats_.capture_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  TFMAE_COUNTER_ADD("infer.plan.captures", 1);
  TFMAE_GAUGE_SET("infer.plan.ops", plan->stats_.ops);
  TFMAE_GAUGE_SET("infer.plan.arena_bytes", plan->stats_.arena_bytes);
  if (is_quant) {
    TFMAE_COUNTER_ADD("infer.quant.captures", 1);
    TFMAE_GAUGE_SET("infer.quant.arena_bytes", plan->stats_.quant_arena_bytes);
  }
  return plan;
}

// ---- Replay ----------------------------------------------------------------

void InferencePlan::PrintProfile() const {
  const State& s = *state_;
  const double replays = static_cast<double>(s.profile_replays);
  double total = 0.0;
  std::map<std::string, std::pair<int, double>> by_kind;  // count, ns
  for (std::size_t j = 0; j < s.ops.size(); ++j) {
    total += s.profile_ns[j];
    auto& kind = by_kind[s.ops[j].name];
    ++kind.first;
    kind.second += s.profile_ns[j];
  }
  std::string report;
  char line[256];
  std::snprintf(line, sizeof(line),
                "plan profile (%s, %zu ops) over %lld replays: "
                "%.0f ns/replay\n",
                stats_.quantized ? "int8" : "fp32", s.ops.size(),
                static_cast<long long>(s.profile_replays), total / replays);
  report += line;
  for (const auto& [name, kind] : by_kind) {
    std::snprintf(line, sizeof(line), "  %-20s x%-3d %5.1f%%  %9.0f ns\n",
                  name.c_str(), kind.first, 100.0 * kind.second / total,
                  kind.second / replays);
    report += line;
  }
  for (std::size_t j = 0; j < s.ops.size(); ++j) {
    if (s.profile_ns[j] / total <= 0.02) continue;
    const ReplayOp& op = s.ops[j];
    std::snprintf(line, sizeof(line),
                  "  op[%zu] %s out_n=%lld m=%lld k=%lld n=%lld batch=%lld"
                  "  %.1f%%  %.0f ns\n",
                  j, op.name, static_cast<long long>(op.out_n),
                  static_cast<long long>(op.m), static_cast<long long>(op.k),
                  static_cast<long long>(op.n),
                  static_cast<long long>(op.batch),
                  100.0 * s.profile_ns[j] / total, s.profile_ns[j] / replays);
    report += line;
  }
  std::fputs(report.c_str(), stderr);
}

bool InferencePlan::Matches(const MaskedWindow& window) const {
  const State& s = *state_;
  return window.length == s.length && window.num_features == s.num_features &&
         static_cast<std::int64_t>(window.temporal.unmasked.size()) ==
             s.unmasked_count &&
         static_cast<std::int64_t>(window.temporal.masked.size()) ==
             s.masked_count &&
         static_cast<std::int64_t>(window.frequency.size()) == s.freq_count;
}

void InferencePlan::Score(const MaskedWindow& window,
                          std::vector<float>* out) {
  ScoreImpl(window, out, nullptr);
}

void InferencePlan::ScoreWithActivationObserver(
    const MaskedWindow& window, std::vector<float>* out,
    const ActivationObserver& observer) {
  TFMAE_CHECK(observer != nullptr);
  ScoreImpl(window, out, &observer);
}

void InferencePlan::ScoreImpl(const MaskedWindow& window,
                              std::vector<float>* out,
                              const ActivationObserver* observer) {
  TFMAE_CHECK(out != nullptr && state_ != nullptr);
  TFMAE_CHECK_MSG(Matches(window), "inference plan replayed on a window of "
                                   "different geometry");
  TFMAE_TRACE("infer.plan.replay");
  State& s = *state_;

  // Canary discipline (TFMAE_POOL_SCRUB=1): poison the whole arena between
  // replays so a slot read before its op writes it fails loudly instead of
  // silently reusing the previous window's values.
  if (pool::ScrubEnabled()) {
    std::fill(s.arena.get(), s.arena.get() + s.arena_floats,
              std::numeric_limits<float>::quiet_NaN());
  }

  // Bind this window's dynamic state: input values and mask index vectors.
  for (const State::BindInput& in : s.inputs) {
    switch (in.tag) {
      case cap::InputTag::kTemporalValues:
        std::memcpy(in.dst, window.values.data(),
                    static_cast<std::size_t>(in.numel) * sizeof(float));
        break;
      case cap::InputTag::kFreqBase:
      case cap::InputTag::kFreqCos:
      case cap::InputTag::kFreqSin: {
        // Assemble the per-feature frequency columns directly into the
        // arena slot — same values the eager path materializes into its
        // FromData vectors.
        const std::int64_t t_len = s.length;
        const std::int64_t nf = s.num_features;
        for (std::int64_t f = 0; f < nf; ++f) {
          const auto& column = window.frequency[static_cast<std::size_t>(f)];
          const std::vector<float>& src =
              in.tag == cap::InputTag::kFreqBase
                  ? column.base
                  : (in.tag == cap::InputTag::kFreqCos ? column.cos_coef
                                                       : column.sin_coef);
          for (std::int64_t t = 0; t < t_len; ++t) {
            in.dst[t * nf + f] = src[static_cast<std::size_t>(t)];
          }
        }
        break;
      }
      case cap::InputTag::kNone:
        TFMAE_CHECK_MSG(false, "plan: untagged input slot");
    }
  }
  for (int j : s.dyn_idx_ops) {
    ReplayOp& op = s.ops[static_cast<std::size_t>(j)];
    const std::vector<std::int64_t>& idx =
        op.dyn == 0 ? window.temporal.unmasked : window.temporal.masked;
    op.idx = idx.data();
  }

  out->resize(static_cast<std::size_t>(s.score_rows));
  s.ops[static_cast<std::size_t>(s.terminal)].out = out->data();

  // TFMAE_PLAN_PROFILE=1 swaps the tight replay loop for a per-op timed
  // variant that prints where this plan's replay time goes every 100
  // replays: one row per op kind, then each op above 2% of the total. The
  // timing wrappers perturb the loop, so the default path stays
  // branch-free.
  static const bool kProfile = std::getenv("TFMAE_PLAN_PROFILE") != nullptr;
  if (kProfile) {
    s.profile_ns.resize(s.ops.size(), 0.0);
    std::size_t prof_si = 0;
    for (std::size_t j = 0; j < s.ops.size(); ++j) {
      // Calibration must still see activations when profiling is on.
      while (observer != nullptr && prof_si < s.observer_sites.size() &&
             s.observer_sites[prof_si].op_index == static_cast<int>(j)) {
        const auto& site = s.observer_sites[prof_si];
        (*observer)(site.weight_index, site.in, site.rows, site.cols);
        ++prof_si;
      }
      const auto t0 = std::chrono::steady_clock::now();
      s.ops[j].fn(s.ops[j]);
      s.profile_ns[j] += std::chrono::duration<double, std::nano>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
    }
    if (++s.profile_replays % 100 == 0) PrintProfile();
  } else if (observer != nullptr) {
    // Calibration replay: fire the observer with each weight-bearing
    // matmul's fp32 input right before that op executes. Scores are
    // identical to the unobserved path — the observer only reads.
    std::size_t si = 0;
    const auto& sites = s.observer_sites;
    for (std::size_t j = 0; j < s.ops.size(); ++j) {
      while (si < sites.size() && sites[si].op_index == static_cast<int>(j)) {
        (*observer)(sites[si].weight_index, sites[si].in, sites[si].rows,
                    sites[si].cols);
        ++si;
      }
      s.ops[j].fn(s.ops[j]);
    }
  } else {
    for (const ReplayOp& op : s.ops) op.fn(op);
  }

  ++stats_.replays;
  TFMAE_COUNTER_ADD("infer.plan.replays", 1);
}

}  // namespace tfmae::core
