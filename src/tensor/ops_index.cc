#include <cstring>

#include "src/autograd/node.h"
#include "src/common/thread_pool.h"
#include "src/tensor/dispatch.h"
#include "src/tensor/ops.h"
#include "src/tensor/ops_internal.h"

namespace tdp {
namespace {

using internal_ops::NormalizeDim;

}  // namespace

Tensor IndexSelect(const Tensor& t, int64_t dim, const Tensor& indices) {
  TDP_CHECK(t.defined() && indices.defined());
  TDP_CHECK(indices.dtype() == DType::kInt64 && indices.dim() == 1)
      << "IndexSelect indices must be 1-d int64";
  const int64_t d = NormalizeDim(dim, t.dim());
  const Tensor tc = t.RowMajor();
  const Tensor ic = indices.RowMajor();
  const int64_t k = ic.numel();

  std::vector<int64_t> out_shape = t.shape();
  out_shape[static_cast<size_t>(d)] = k;
  Tensor out = Tensor::Empty(out_shape, t.dtype(), t.device());

  // Geometry: [outer, dim, inner] with contiguous input.
  int64_t outer = 1, inner = 1;
  for (int64_t i = 0; i < d; ++i) outer *= t.size(i);
  for (int64_t i = d + 1; i < t.dim(); ++i) inner *= t.size(i);
  const int64_t dim_size = t.size(d);
  const int64_t* ip = ic.data<int64_t>();
  const int64_t esize = DTypeSize(t.dtype());

  // Validate once up front so the gather loops below stay branch-free.
  for (int64_t j = 0; j < k; ++j) {
    TDP_CHECK(ip[j] >= 0 && ip[j] < dim_size)
        << "index " << ip[j] << " out of range [0, " << dim_size << ")";
  }

  const uint8_t* sp =
      reinterpret_cast<const uint8_t*>(tc.impl()->buffer->data()) +
      tc.offset() * esize;
  uint8_t* op = out.impl()->buffer->data();
  if (inner == 1 && outer == 1) {
    // Row select from a scalar column — the hot shape (every relational
    // filter/join/sort materialization lands here). A typed gather loop
    // beats per-row memcpy dispatch by a wide margin; output rows are
    // disjoint, so sharding cannot change the result.
    TDP_DISPATCH_ALL(t.dtype(), {
      const scalar_t* s = reinterpret_cast<const scalar_t*>(sp);
      scalar_t* o = reinterpret_cast<scalar_t*>(op);
      ParallelFor(0, k, GrainForCost(2),
                  [o, s, ip](int64_t begin, int64_t end) {
                    for (int64_t j = begin; j < end; ++j) o[j] = s[ip[j]];
                  });
    });
  } else {
    const int64_t width = inner * esize;
    ParallelFor(0, outer * k, GrainForCost(std::max<int64_t>(width / 8, 1)),
                [=](int64_t begin, int64_t end) {
                  for (int64_t r = begin; r < end; ++r) {
                    const int64_t o = r / k, j = r % k;
                    std::memcpy(op + r * width,
                                sp + (o * dim_size + ip[j]) * width,
                                static_cast<size_t>(width));
                  }
                });
  }

  Tensor indices_saved = ic;
  autograd::RecordOp(
      "IndexSelect", {t, Tensor()}, out,
      [t, d, indices_saved](const Tensor& g) {
        // Scatter-add the gradient rows back to their source positions.
        Tensor grad_in = Tensor::Zeros(t.shape(), g.dtype(), g.device());
        const Tensor gc = g.Contiguous();
        int64_t outer = 1, inner = 1;
        for (int64_t i = 0; i < d; ++i) outer *= t.size(i);
        for (int64_t i = d + 1; i < t.dim(); ++i) inner *= t.size(i);
        const int64_t dim_size = t.size(d);
        const int64_t k = indices_saved.numel();
        const int64_t* ip = indices_saved.data<int64_t>();
        TDP_DISPATCH_FLOAT(g.dtype(), {
          const scalar_t* gp = gc.data<scalar_t>();
          scalar_t* rp = grad_in.data<scalar_t>();
          for (int64_t o = 0; o < outer; ++o) {
            for (int64_t j = 0; j < k; ++j) {
              const scalar_t* src = gp + (o * k + j) * inner;
              scalar_t* dst = rp + (o * dim_size + ip[j]) * inner;
              for (int64_t i = 0; i < inner; ++i) dst[i] += src[i];
            }
          }
        });
        return std::vector<Tensor>{grad_in, Tensor()};
      });
  return out;
}

namespace {

constexpr int64_t kNonZeroBlock = 4096;

/// Writes the indices of the set entries in mask[lo, hi) to `dst`,
/// returning how many were written. The store is unconditional and the
/// cursor advances by the mask byte, so a random mask costs no branch
/// mispredictions (the naive `if (m[i]) dst[j++] = i;` form spends most
/// of its time in mispredict stalls at ~50% selectivity). `dst` must have
/// room for hi - lo entries — the cursor trails the store, so slots past
/// the final count hold garbage that the caller never copies out.
int64_t CompactRange(const bool* mp, int64_t lo, int64_t hi, int64_t* dst) {
  int64_t j = 0;
  for (int64_t i = lo; i < hi; ++i) {
    dst[j] = i;
    j += mp[i] ? 1 : 0;
  }
  return j;
}

}  // namespace

Tensor NonZero(const Tensor& mask) {
  TDP_CHECK(mask.defined());
  TDP_CHECK(mask.dtype() == DType::kBool && mask.dim() == 1)
      << "NonZero expects a 1-d bool mask";
  const Tensor mc = mask.RowMajor();
  const bool* mp = mc.data<bool>();
  const int64_t n = mc.numel();

  // Morsel-sized masks (the per-morsel filter path) take one fused pass:
  // compact into a stack block, then copy the exact count out. No heap
  // bookkeeping, no second scan of the mask.
  if (n <= kNonZeroBlock) {
    int64_t tmp[kNonZeroBlock];
    const int64_t count = CompactRange(mp, 0, n, tmp);
    Tensor out = Tensor::Empty({count}, DType::kInt64, mask.device());
    // An empty tensor has no buffer, and memcpy from/to null is UB even
    // for zero bytes.
    if (count > 0) {
      std::memcpy(out.data<int64_t>(), tmp,
                  static_cast<size_t>(count) * sizeof(int64_t));
    }
    return out;
  }

  // Two passes over fixed 4096-element blocks: a vectorizable popcount
  // pass, an exclusive prefix over the block counts, then each block
  // compacts its indices at its own precomputed offset. Block boundaries
  // are fixed, so the output is the ascending index list at any thread
  // count.
  constexpr int64_t kBlock = kNonZeroBlock;
  const int64_t num_blocks = (n + kBlock - 1) / kBlock;
  std::vector<int64_t> block_offsets(static_cast<size_t>(num_blocks) + 1, 0);
  int64_t* counts = block_offsets.data() + 1;
  ParallelFor(0, num_blocks, GrainForCost(kBlock),
              [mp, n, counts](int64_t begin, int64_t end) {
                for (int64_t blk = begin; blk < end; ++blk) {
                  const int64_t lo = blk * kBlock;
                  const int64_t hi = std::min(n, lo + kBlock);
                  int64_t c = 0;
                  for (int64_t i = lo; i < hi; ++i) c += mp[i] ? 1 : 0;
                  counts[blk] = c;
                }
              });
  for (int64_t blk = 0; blk < num_blocks; ++blk) {
    block_offsets[static_cast<size_t>(blk) + 1] +=
        block_offsets[static_cast<size_t>(blk)];
  }
  const int64_t count = block_offsets[static_cast<size_t>(num_blocks)];
  Tensor out = Tensor::Empty({count}, DType::kInt64, mask.device());
  if (count == 0) return out;  // no buffer to compact into
  int64_t* op = out.data<int64_t>();
  const int64_t* offsets = block_offsets.data();
  ParallelFor(0, num_blocks, GrainForCost(kBlock),
              [mp, n, op, offsets](int64_t begin, int64_t end) {
                // Per-block compaction goes through a stack block so the
                // unconditional store in CompactRange can overrun the
                // block's count without touching the neighbour's range
                // (the output tensor has no slack past the last index).
                int64_t tmp[kBlock];
                for (int64_t blk = begin; blk < end; ++blk) {
                  const int64_t lo = blk * kBlock;
                  const int64_t hi = std::min(n, lo + kBlock);
                  const int64_t c = CompactRange(mp, lo, hi, tmp);
                  std::memcpy(op + offsets[blk], tmp,
                              static_cast<size_t>(c) * sizeof(int64_t));
                }
              });
  return out;
}

Tensor MaskedSelectRows(const Tensor& t, const Tensor& mask) {
  TDP_CHECK(t.defined() && mask.defined());
  TDP_CHECK(mask.dim() == 1 && mask.numel() == t.size(0))
      << "mask must be 1-d with one entry per row";
  return IndexSelect(t, 0, NonZero(mask));
}

Tensor Gather(const Tensor& t, int64_t dim, const Tensor& index) {
  TDP_CHECK(t.defined() && index.defined());
  TDP_CHECK(index.dtype() == DType::kInt64);
  TDP_CHECK_EQ(t.dim(), index.dim());
  const int64_t d = NormalizeDim(dim, t.dim());
  const Tensor tc = t.Contiguous();
  const Tensor ic = index.Contiguous();
  Tensor out = Tensor::Empty(index.shape(), t.dtype(), t.device());

  // Walk the index space of `index`; for each position, replace the d-th
  // coordinate by the index value when addressing `t`.
  const int64_t n = ic.numel();
  const std::vector<int64_t> tstrides = ContiguousStrides(t.shape());
  const std::vector<int64_t> istrides = ContiguousStrides(index.shape());
  const int64_t* ip = ic.data<int64_t>();
  TDP_DISPATCH_ALL(t.dtype(), {
    const scalar_t* sp = tc.data<scalar_t>();
    scalar_t* op = out.data<scalar_t>();
    std::vector<int64_t> idx(static_cast<size_t>(index.dim()), 0);
    for (int64_t flat = 0; flat < n; ++flat) {
      const int64_t gathered = ip[flat];
      TDP_CHECK(gathered >= 0 && gathered < t.size(d));
      int64_t soff = 0;
      for (int64_t dd = 0; dd < index.dim(); ++dd) {
        const int64_t coord = dd == d ? gathered : idx[static_cast<size_t>(dd)];
        soff += coord * tstrides[static_cast<size_t>(dd)];
      }
      op[flat] = sp[soff];
      for (int64_t dd = index.dim() - 1; dd >= 0; --dd) {
        const size_t ud = static_cast<size_t>(dd);
        if (++idx[ud] < index.size(dd)) break;
        idx[ud] = 0;
      }
    }
  });

  Tensor index_saved = ic;
  autograd::RecordOp(
      "Gather", {t, Tensor()}, out, [t, d, index_saved](const Tensor& g) {
        Tensor grad_in = Tensor::Zeros(t.shape(), g.dtype(), g.device());
        const Tensor gc = g.Contiguous();
        const std::vector<int64_t> tstrides = ContiguousStrides(t.shape());
        const int64_t n = index_saved.numel();
        const int64_t* ip = index_saved.data<int64_t>();
        TDP_DISPATCH_FLOAT(g.dtype(), {
          const scalar_t* gp = gc.data<scalar_t>();
          scalar_t* rp = grad_in.data<scalar_t>();
          std::vector<int64_t> idx(static_cast<size_t>(index_saved.dim()), 0);
          for (int64_t flat = 0; flat < n; ++flat) {
            int64_t soff = 0;
            for (int64_t dd = 0; dd < index_saved.dim(); ++dd) {
              const int64_t coord =
                  dd == d ? ip[flat] : idx[static_cast<size_t>(dd)];
              soff += coord * tstrides[static_cast<size_t>(dd)];
            }
            rp[soff] += gp[flat];
            for (int64_t dd = index_saved.dim() - 1; dd >= 0; --dd) {
              const size_t ud = static_cast<size_t>(dd);
              if (++idx[ud] < index_saved.size(dd)) break;
              idx[ud] = 0;
            }
          }
        });
        return std::vector<Tensor>{grad_in, Tensor()};
      });
  return out;
}

Tensor ScatterAddRows(const Tensor& base, const Tensor& index,
                      const Tensor& src) {
  TDP_CHECK(base.defined() && index.defined() && src.defined());
  TDP_CHECK(index.dtype() == DType::kInt64 && index.dim() == 1);
  TDP_CHECK_EQ(index.numel(), src.size(0));
  TDP_CHECK_EQ(base.dim(), src.dim());
  for (int64_t i = 1; i < base.dim(); ++i) {
    TDP_CHECK_EQ(base.size(i), src.size(i));
  }
  Tensor out = base.Detach().Clone();
  const Tensor sc = src.Detach().Contiguous();
  const Tensor ic = index.Contiguous();
  const int64_t rows = src.size(0);
  const int64_t inner = src.numel() / std::max<int64_t>(rows, 1);
  const int64_t* ip = ic.data<int64_t>();
  TDP_DISPATCH_NUMERIC(base.dtype(), {
    scalar_t* op = out.data<scalar_t>();
    const scalar_t* sp = sc.data<scalar_t>();
    for (int64_t r = 0; r < rows; ++r) {
      const int64_t dst = ip[r];
      TDP_CHECK(dst >= 0 && dst < out.size(0));
      scalar_t* d = op + dst * inner;
      const scalar_t* s = sp + r * inner;
      for (int64_t i = 0; i < inner; ++i) d[i] += s[i];
    }
  });
  Tensor index_saved = ic;
  autograd::RecordOp("ScatterAddRows", {base, Tensor(), src}, out,
                     [index_saved](const Tensor& g) {
                       // d/dbase = g; d/dsrc = g gathered at index rows.
                       return std::vector<Tensor>{
                           g, Tensor(), IndexSelect(g, 0, index_saved)};
                     });
  return out;
}

Tensor OneHot(const Tensor& indices, int64_t num_classes) {
  TDP_CHECK(indices.defined());
  TDP_CHECK(indices.dtype() == DType::kInt64 && indices.dim() == 1);
  TDP_CHECK_GT(num_classes, 0);
  const Tensor ic = indices.Contiguous();
  const int64_t n = ic.numel();
  Tensor out =
      Tensor::Zeros({n, num_classes}, DType::kFloat32, indices.device());
  const int64_t* ip = ic.data<int64_t>();
  float* op = out.data<float>();
  for (int64_t i = 0; i < n; ++i) {
    TDP_CHECK(ip[i] >= 0 && ip[i] < num_classes)
        << "one-hot index " << ip[i] << " out of range";
    op[i * num_classes + ip[i]] = 1.0f;
  }
  return out;
}

}  // namespace tdp
