#include <cmath>

#include "src/autograd/node.h"
#include "src/common/thread_pool.h"
#include "src/tensor/dispatch.h"
#include "src/tensor/ops.h"
#include "src/tensor/ops_internal.h"

namespace tdp {

namespace {

using internal_ops::BroadcastStrides;
using internal_ops::OffsetIterator;

enum class BinKind {
  kAdd,
  kSub,
  kMul,
  kDiv,
  kMax,
  kMin,
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kAnd,
  kOr,
};

bool IsComparison(BinKind kind) {
  return kind == BinKind::kEq || kind == BinKind::kNe ||
         kind == BinKind::kLt || kind == BinKind::kLe ||
         kind == BinKind::kGt || kind == BinKind::kGe;
}


// Accelerated backend: templated inner loops; contiguous same-shape inputs
// take a branch-free tight loop, a single-element operand (scalar literal
// against a column — every `col <op> constant` predicate and projection)
// is hoisted out of a tight loop over the other side, and anything else
// falls back to a strided odometer walk. All three paths apply the same
// per-element `f`, so results are bit-identical regardless of which fires.
template <typename T, typename OutT, typename F>
void AccelLoop(const Tensor& a, const Tensor& b, Tensor& out,
               const std::vector<int64_t>& out_shape, F f) {
  OutT* op = out.data<OutT>();
  const int64_t n = out.numel();
  const bool fast = a.is_contiguous() && b.is_contiguous() &&
                    a.shape() == out_shape && b.shape() == out_shape;
  if (fast) {
    const T* ap = a.data<T>();
    const T* bp = b.data<T>();
    ParallelFor(0, n, GrainForCost(1),
                [op, ap, bp, &f](int64_t shard_begin, int64_t shard_end) {
                  for (int64_t i = shard_begin; i < shard_end; ++i) {
                    op[i] = f(ap[i], bp[i]);
                  }
                });
    return;
  }
  if (b.numel() == 1 && a.is_contiguous() && a.shape() == out_shape) {
    const T* ap = a.data<T>();
    const T bv = *b.data<T>();
    ParallelFor(0, n, GrainForCost(1),
                [op, ap, bv, &f](int64_t shard_begin, int64_t shard_end) {
                  for (int64_t i = shard_begin; i < shard_end; ++i) {
                    op[i] = f(ap[i], bv);
                  }
                });
    return;
  }
  if (a.numel() == 1 && b.is_contiguous() && b.shape() == out_shape) {
    const T av = *a.data<T>();
    const T* bp = b.data<T>();
    ParallelFor(0, n, GrainForCost(1),
                [op, av, bp, &f](int64_t shard_begin, int64_t shard_end) {
                  for (int64_t i = shard_begin; i < shard_end; ++i) {
                    op[i] = f(av, bp[i]);
                  }
                });
    return;
  }
  const T* abase = a.data<T>();
  const T* bbase = b.data<T>();
  const std::vector<std::vector<int64_t>> strides = {
      BroadcastStrides(a.shape(), a.strides(), out_shape),
      BroadcastStrides(b.shape(), b.strides(), out_shape)};
  // Each shard walks its own odometer, seeked to the shard's first element.
  ParallelFor(0, n, GrainForCost(2),
              [op, abase, bbase, &f, &out_shape, &strides](
                  int64_t shard_begin, int64_t shard_end) {
                OffsetIterator it(out_shape, strides);
                it.Seek(shard_begin);
                for (int64_t i = shard_begin; i < shard_end; ++i, it.Next()) {
                  op[i] = f(abase[it.offset(0)], bbase[it.offset(1)]);
                }
              });
}

// The op kind is hoisted out of the loop here: each case hands AccelLoop a
// capture-free lambda whose body is one branch-free expression, so the
// inner loops stay vectorizable (a per-element `switch (kind)` defeats
// SIMD — tools/check_vectorization.sh guards against its return).
template <typename T>
void AccelArithLoop(BinKind kind, const Tensor& a, const Tensor& b,
                    Tensor& out, const std::vector<int64_t>& out_shape) {
  switch (kind) {
    case BinKind::kAdd:
      return AccelLoop<T, T>(a, b, out, out_shape,
                             [](T x, T y) { return x + y; });
    case BinKind::kSub:
      return AccelLoop<T, T>(a, b, out, out_shape,
                             [](T x, T y) { return x - y; });
    case BinKind::kMul:
      return AccelLoop<T, T>(a, b, out, out_shape,
                             [](T x, T y) { return x * y; });
    case BinKind::kDiv:
      return AccelLoop<T, T>(a, b, out, out_shape,
                             [](T x, T y) { return x / y; });
    case BinKind::kMax:
      return AccelLoop<T, T>(a, b, out, out_shape,
                             [](T x, T y) { return x >= y ? x : y; });
    case BinKind::kMin:
      return AccelLoop<T, T>(a, b, out, out_shape,
                             [](T x, T y) { return x <= y ? x : y; });
    default:
      TDP_LOG(Fatal) << "not an arithmetic kind";
  }
}

template <typename T>
void AccelCompareLoop(BinKind kind, const Tensor& a, const Tensor& b,
                      Tensor& out, const std::vector<int64_t>& out_shape) {
  switch (kind) {
    case BinKind::kEq:
      return AccelLoop<T, bool>(a, b, out, out_shape,
                                [](T x, T y) { return x == y; });
    case BinKind::kNe:
      return AccelLoop<T, bool>(a, b, out, out_shape,
                                [](T x, T y) { return x != y; });
    case BinKind::kLt:
      return AccelLoop<T, bool>(a, b, out, out_shape,
                                [](T x, T y) { return x < y; });
    case BinKind::kLe:
      return AccelLoop<T, bool>(a, b, out, out_shape,
                                [](T x, T y) { return x <= y; });
    case BinKind::kGt:
      return AccelLoop<T, bool>(a, b, out, out_shape,
                                [](T x, T y) { return x > y; });
    case BinKind::kGe:
      return AccelLoop<T, bool>(a, b, out, out_shape,
                                [](T x, T y) { return x >= y; });
    default:
      TDP_LOG(Fatal) << "not a comparison kind";
  }
}

// Reference backend: routes every element through `Compute` values
// (double, or int64 for integer comparisons) — the semantics the
// accelerated loops are measured against. Rank-1
// operands (columns and broadcast scalars) index by one stride each;
// higher ranks walk an odometer.
template <typename Compute, typename T, typename OutT, typename F>
void ReferenceLoop(const Tensor& a, const Tensor& b, Tensor& out,
                   const std::vector<int64_t>& out_shape, F f) {
  OutT* op = out.data<OutT>();
  const T* ap = a.data<T>();
  const T* bp = b.data<T>();
  const int64_t n = out.numel();
  const std::vector<std::vector<int64_t>> strides = {
      BroadcastStrides(a.shape(), a.strides(), out_shape),
      BroadcastStrides(b.shape(), b.strides(), out_shape)};
  if (out_shape.size() == 1) {
    const int64_t sa = strides[0][0];
    const int64_t sb = strides[1][0];
    ParallelFor(0, n, GrainForCost(4),
                [op, ap, bp, sa, sb, f](int64_t shard_begin,
                                        int64_t shard_end) {
                  for (int64_t i = shard_begin; i < shard_end; ++i) {
                    op[i] = static_cast<OutT>(
                        f(static_cast<Compute>(ap[i * sa]),
                          static_cast<Compute>(bp[i * sb])));
                  }
                });
    return;
  }
  ParallelFor(0, n, GrainForCost(4),
              [op, ap, bp, f, &out_shape, &strides](int64_t shard_begin,
                                                    int64_t shard_end) {
                OffsetIterator it(out_shape, strides);
                it.Seek(shard_begin);
                for (int64_t i = shard_begin; i < shard_end; ++i, it.Next()) {
                  op[i] = static_cast<OutT>(
                      f(static_cast<Compute>(ap[it.offset(0)]),
                        static_cast<Compute>(bp[it.offset(1)])));
                }
              });
}

// Dispatches `f` over the operands' dtype: bool outputs (comparisons and
// logical ops) take any input dtype, arithmetic writes its compute dtype.
template <typename Compute, typename F>
void ReferenceApply(const Tensor& a, const Tensor& b, Tensor& out,
                    const std::vector<int64_t>& out_shape, F f) {
  if (out.dtype() == DType::kBool) {
    TDP_DISPATCH_ALL(a.dtype(), {
      ReferenceLoop<Compute, scalar_t, bool>(a, b, out, out_shape, f);
    });
  } else {
    TDP_DISPATCH_NUMERIC(a.dtype(), {
      ReferenceLoop<Compute, scalar_t, scalar_t>(a, b, out, out_shape, f);
    });
  }
}

template <typename C>
void ReferenceCompare(BinKind kind, const Tensor& a, const Tensor& b,
                      Tensor& out, const std::vector<int64_t>& out_shape) {
  switch (kind) {
    case BinKind::kEq:
      return ReferenceApply<C>(a, b, out, out_shape,
                               [](C x, C y) { return x == y; });
    case BinKind::kNe:
      return ReferenceApply<C>(a, b, out, out_shape,
                               [](C x, C y) { return x != y; });
    case BinKind::kLt:
      return ReferenceApply<C>(a, b, out, out_shape,
                               [](C x, C y) { return x < y; });
    case BinKind::kLe:
      return ReferenceApply<C>(a, b, out, out_shape,
                               [](C x, C y) { return x <= y; });
    case BinKind::kGt:
      return ReferenceApply<C>(a, b, out, out_shape,
                               [](C x, C y) { return x > y; });
    case BinKind::kGe:
      return ReferenceApply<C>(a, b, out, out_shape,
                               [](C x, C y) { return x >= y; });
    default:
      TDP_LOG(Fatal) << "not a comparison kind";
  }
}

void ReferenceEval(BinKind kind, const Tensor& a, const Tensor& b, Tensor& out,
                   const std::vector<int64_t>& out_shape) {
  using D = double;
  switch (kind) {
    case BinKind::kAdd:
      return ReferenceApply<D>(a, b, out, out_shape,
                               [](D x, D y) { return x + y; });
    case BinKind::kSub:
      return ReferenceApply<D>(a, b, out, out_shape,
                               [](D x, D y) { return x - y; });
    case BinKind::kMul:
      return ReferenceApply<D>(a, b, out, out_shape,
                               [](D x, D y) { return x * y; });
    case BinKind::kDiv:
      return ReferenceApply<D>(a, b, out, out_shape,
                               [](D x, D y) { return x / y; });
    case BinKind::kMax:
      return ReferenceApply<D>(a, b, out, out_shape,
                               [](D x, D y) { return x >= y ? x : y; });
    case BinKind::kMin:
      return ReferenceApply<D>(a, b, out, out_shape,
                               [](D x, D y) { return x <= y ? x : y; });
    case BinKind::kAnd:
      return ReferenceApply<D>(a, b, out, out_shape,
                               [](D x, D y) { return x != 0 && y != 0; });
    case BinKind::kOr:
      return ReferenceApply<D>(a, b, out, out_shape,
                               [](D x, D y) { return x != 0 || y != 0; });
    default:
      // Two integer operands compare as int64: through doubles 2^53 and
      // 2^53+1 would be equal.
      if (IsFloatingPoint(a.dtype())) {
        return ReferenceCompare<D>(kind, a, b, out, out_shape);
      }
      return ReferenceCompare<int64_t>(kind, a, b, out, out_shape);
  }
}

// Computes the raw (no autograd) result of a binary op.
Tensor BinaryEval(BinKind kind, const Tensor& a0, const Tensor& b0) {
  TDP_CHECK(a0.defined() && b0.defined());
  TDP_CHECK(a0.device() == b0.device()) << "inputs on different devices";
  const Device device = a0.device();
  const std::vector<int64_t> out_shape =
      BroadcastShapes(a0.shape(), b0.shape());

  DType compute_dtype;
  DType out_dtype;
  if (kind == BinKind::kAnd || kind == BinKind::kOr) {
    TDP_CHECK(a0.dtype() == DType::kBool && b0.dtype() == DType::kBool)
        << "logical ops require bool operands";
    compute_dtype = DType::kBool;
    out_dtype = DType::kBool;
  } else if (IsComparison(kind)) {
    compute_dtype = PromoteTypes(a0.dtype(), b0.dtype());
    out_dtype = DType::kBool;
  } else {
    compute_dtype = PromoteTypes(a0.dtype(), b0.dtype());
    TDP_CHECK(compute_dtype != DType::kBool)
        << "arithmetic on bool tensors is not supported";
    out_dtype = compute_dtype;
  }

  const Tensor a = a0.To(compute_dtype);
  const Tensor b = b0.To(compute_dtype);
  Tensor out = Tensor::Empty(out_shape, out_dtype, device);

  if (device == Device::kCpu) {
    ReferenceEval(kind, a, b, out, out_shape);
    return out;
  }

  if (kind == BinKind::kAnd || kind == BinKind::kOr) {
    if (kind == BinKind::kAnd) {
      AccelLoop<bool, bool>(a, b, out, out_shape,
                            [](bool x, bool y) { return x && y; });
    } else {
      AccelLoop<bool, bool>(a, b, out, out_shape,
                            [](bool x, bool y) { return x || y; });
    }
    return out;
  }

  if (IsComparison(kind)) {
    TDP_DISPATCH_NUMERIC(compute_dtype, {
      AccelCompareLoop<scalar_t>(kind, a, b, out, out_shape);
    });
    return out;
  }

  TDP_DISPATCH_NUMERIC(compute_dtype, {
    AccelArithLoop<scalar_t>(kind, a, b, out, out_shape);
  });
  return out;
}

}  // namespace

Tensor ReduceGradToShape(const Tensor& grad,
                         const std::vector<int64_t>& shape) {
  if (grad.shape() == shape) return grad;
  Tensor g = grad;
  // Sum away leading broadcast dims.
  while (g.dim() > static_cast<int64_t>(shape.size())) {
    g = Sum(g, /*dim=*/0, /*keepdim=*/false);
  }
  // Sum dims that were expanded from size 1.
  for (int64_t d = 0; d < g.dim(); ++d) {
    if (shape[static_cast<size_t>(d)] == 1 && g.size(d) != 1) {
      g = Sum(g, d, /*keepdim=*/true);
    }
  }
  TDP_CHECK(g.shape() == shape);
  return g;
}

Tensor Add(const Tensor& a, const Tensor& b) {
  Tensor out = BinaryEval(BinKind::kAdd, a, b);
  autograd::RecordOp("Add", {a, b}, out, [a, b](const Tensor& g) {
    return std::vector<Tensor>{ReduceGradToShape(g, a.shape()),
                               ReduceGradToShape(g, b.shape())};
  });
  return out;
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  Tensor out = BinaryEval(BinKind::kSub, a, b);
  autograd::RecordOp("Sub", {a, b}, out, [a, b](const Tensor& g) {
    return std::vector<Tensor>{ReduceGradToShape(g, a.shape()),
                               ReduceGradToShape(Neg(g), b.shape())};
  });
  return out;
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  Tensor out = BinaryEval(BinKind::kMul, a, b);
  autograd::RecordOp("Mul", {a, b}, out, [a, b](const Tensor& g) {
    return std::vector<Tensor>{
        ReduceGradToShape(Mul(g, b.Detach()), a.shape()),
        ReduceGradToShape(Mul(g, a.Detach()), b.shape())};
  });
  return out;
}

Tensor Div(const Tensor& a, const Tensor& b) {
  Tensor out = BinaryEval(BinKind::kDiv, a, b);
  autograd::RecordOp("Div", {a, b}, out, [a, b](const Tensor& g) {
    const Tensor ad = a.Detach();
    const Tensor bd = b.Detach();
    Tensor ga = Div(g, bd);
    Tensor gb = Neg(Div(Mul(g, ad), Mul(bd, bd)));
    return std::vector<Tensor>{ReduceGradToShape(ga, a.shape()),
                               ReduceGradToShape(gb, b.shape())};
  });
  return out;
}

Tensor Maximum(const Tensor& a, const Tensor& b) {
  Tensor out = BinaryEval(BinKind::kMax, a, b);
  autograd::RecordOp("Maximum", {a, b}, out, [a, b](const Tensor& g) {
    const Tensor mask = Ge(a.Detach(), b.Detach());  // ties -> a
    const Tensor maskf = mask.To(g.dtype());
    return std::vector<Tensor>{
        ReduceGradToShape(Mul(g, maskf), a.shape()),
        ReduceGradToShape(Mul(g, RSubScalar(1.0, maskf)), b.shape())};
  });
  return out;
}

Tensor Minimum(const Tensor& a, const Tensor& b) {
  Tensor out = BinaryEval(BinKind::kMin, a, b);
  autograd::RecordOp("Minimum", {a, b}, out, [a, b](const Tensor& g) {
    const Tensor mask = Le(a.Detach(), b.Detach());
    const Tensor maskf = mask.To(g.dtype());
    return std::vector<Tensor>{
        ReduceGradToShape(Mul(g, maskf), a.shape()),
        ReduceGradToShape(Mul(g, RSubScalar(1.0, maskf)), b.shape())};
  });
  return out;
}

namespace {
Tensor ScalarLike(const Tensor& t, double s) {
  DType dtype = t.dtype();
  if (!IsFloatingPoint(dtype) && s != static_cast<int64_t>(s)) {
    dtype = DType::kFloat32;  // int tensor op fractional scalar -> float
  }
  if (dtype == DType::kBool) dtype = DType::kFloat32;
  return Tensor::Scalar(s, dtype, t.device());
}
}  // namespace

Tensor AddScalar(const Tensor& a, double s) { return Add(a, ScalarLike(a, s)); }
Tensor SubScalar(const Tensor& a, double s) { return Sub(a, ScalarLike(a, s)); }
Tensor RSubScalar(double s, const Tensor& a) {
  return Sub(ScalarLike(a, s), a);
}
Tensor MulScalar(const Tensor& a, double s) { return Mul(a, ScalarLike(a, s)); }
Tensor DivScalar(const Tensor& a, double s) { return Div(a, ScalarLike(a, s)); }
Tensor RDivScalar(double s, const Tensor& a) {
  return Div(ScalarLike(a, s), a);
}

Tensor Eq(const Tensor& a, const Tensor& b) {
  return BinaryEval(BinKind::kEq, a, b);
}
Tensor Ne(const Tensor& a, const Tensor& b) {
  return BinaryEval(BinKind::kNe, a, b);
}
Tensor Lt(const Tensor& a, const Tensor& b) {
  return BinaryEval(BinKind::kLt, a, b);
}
Tensor Le(const Tensor& a, const Tensor& b) {
  return BinaryEval(BinKind::kLe, a, b);
}
Tensor Gt(const Tensor& a, const Tensor& b) {
  return BinaryEval(BinKind::kGt, a, b);
}
Tensor Ge(const Tensor& a, const Tensor& b) {
  return BinaryEval(BinKind::kGe, a, b);
}

Tensor LogicalAnd(const Tensor& a, const Tensor& b) {
  return BinaryEval(BinKind::kAnd, a, b);
}
Tensor LogicalOr(const Tensor& a, const Tensor& b) {
  return BinaryEval(BinKind::kOr, a, b);
}

Tensor Where(const Tensor& cond, const Tensor& a, const Tensor& b) {
  TDP_CHECK(cond.dtype() == DType::kBool) << "Where condition must be bool";
  // out = cond * a + (1 - cond) * b computed via masks; autograd flows
  // through the Mul/Add composition automatically.
  const DType dtype = PromoteTypes(a.dtype(), b.dtype());
  const Tensor condf = cond.To(dtype);
  return Add(Mul(condf, a), Mul(RSubScalar(1.0, condf), b));
}

}  // namespace tdp
