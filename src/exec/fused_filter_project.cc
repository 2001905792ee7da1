#include "src/exec/fused_filter_project.h"

#include <atomic>
#include <cstring>
#include <type_traits>
#include <utility>

#include "src/common/thread_pool.h"
#include "src/tensor/ops.h"

namespace tdp {
namespace exec {
namespace {

std::atomic<bool> g_fused_enabled{true};

using CmpOp = FusedFilterProject::CmpOp;
using ArithOp = FusedFilterProject::ArithOp;

// The evaluation below mirrors the unfused chain element for element.
// Unfused, `col <cmp> lit` runs as: ScalarToTensor(lit) -> To(compute) on
// both operands (compute = PromoteTypes) -> BinaryEval, where the kAccel
// backend compares in compute dtype and the kCpu reference backend routes
// every element through double (int64 for integer compares). The fused
// loops apply the identical casts inline — `static_cast<ComputeT>(col[i])`
// replaces the To() copy, the literal is pre-converted through the same
// ScalarToTensor chain — so the resulting booleans/values are
// bit-identical on both backends.

/// `lit <cmp> col` rewritten as `col <cmp'> lit`. Comparison mirroring is
/// exact under IEEE semantics (including NaN operands): x < y iff y > x.
/// This is also precisely the normalization CompareStringLiteral applies
/// to string predicates with the literal on the left.
CmpOp MirrorCmp(CmpOp op) {
  switch (op) {
    case CmpOp::kLt:
      return CmpOp::kGt;
    case CmpOp::kLe:
      return CmpOp::kGe;
    case CmpOp::kGt:
      return CmpOp::kLt;
    case CmpOp::kGe:
      return CmpOp::kLe;
    default:
      return op;  // Eq/Ne are symmetric
  }
}

/// One conjunct after per-morsel resolution: a typed compare of a
/// contiguous column array against a constant already converted to the
/// promoted compute dtype.
struct ResolvedCmp {
  const void* data = nullptr;
  DType col_dtype = DType::kInt64;
  DType compute = DType::kInt64;  // kInt64 / kFloat32 / kFloat64
  CmpOp op = CmpOp::kEq;          // normalized: column on the left
  int64_t lit_i = 0;
  float lit_f = 0;
  double lit_d = 0;
};

struct ResolvedProj {
  bool passthrough = false;
  int64_t col = 0;  // passthrough source
  const void* data = nullptr;
  DType col_dtype = DType::kInt64;
  DType compute = DType::kInt64;
  ArithOp op = ArithOp::kAdd;
  bool lit_on_left = false;  // order matters for Sub
  int64_t lit_i = 0;
  float lit_f = 0;
  double lit_d = 0;
};

template <typename ComputeT>
ComputeT LitAs(const ResolvedCmp& c);
template <>
int64_t LitAs<int64_t>(const ResolvedCmp& c) { return c.lit_i; }
template <>
float LitAs<float>(const ResolvedCmp& c) { return c.lit_f; }
template <>
double LitAs<double>(const ResolvedCmp& c) { return c.lit_d; }

template <typename ComputeT>
ComputeT ProjLitAs(const ResolvedProj& p);
template <>
int64_t ProjLitAs<int64_t>(const ResolvedProj& p) { return p.lit_i; }
template <>
float ProjLitAs<float>(const ResolvedProj& p) { return p.lit_f; }
template <>
double ProjLitAs<double>(const ResolvedProj& p) { return p.lit_d; }

/// Applies one compare over rows [lo, hi): the first conjunct writes the
/// mask, later conjuncts AND into it (the unfused path materializes each
/// compare and LogicalAnds them — same booleans, one pass, no tensors).
template <typename ColT, typename ComputeT>
void CmpRange(const ColT* col, ComputeT lit, CmpOp op, bool ref_math,
              bool first, int64_t lo, int64_t hi, unsigned char* keep) {
  auto apply = [&](auto f) {
    if (first) {
      for (int64_t i = lo; i < hi; ++i) {
        keep[i] = static_cast<unsigned char>(f(i));
      }
    } else {
      for (int64_t i = lo; i < hi; ++i) {
        keep[i] &= static_cast<unsigned char>(f(i));
      }
    }
  };
  auto run = [&](auto cmp) {
    if (ref_math && std::is_floating_point_v<ComputeT>) {
      // Reference backend: float operands pass through double, exactly as
      // the interpretive ReferenceLoop computes them (integer compares
      // stay int64 there too).
      const double litd = static_cast<double>(lit);
      apply([col, litd, cmp](int64_t i) {
        return cmp(static_cast<double>(static_cast<ComputeT>(col[i])), litd);
      });
    } else {
      apply([col, lit, cmp](int64_t i) {
        return cmp(static_cast<ComputeT>(col[i]), lit);
      });
    }
  };
  switch (op) {
    case CmpOp::kEq:
      run([](auto a, auto b) { return a == b; });
      break;
    case CmpOp::kNe:
      run([](auto a, auto b) { return a != b; });
      break;
    case CmpOp::kLt:
      run([](auto a, auto b) { return a < b; });
      break;
    case CmpOp::kLe:
      run([](auto a, auto b) { return a <= b; });
      break;
    case CmpOp::kGt:
      run([](auto a, auto b) { return a > b; });
      break;
    case CmpOp::kGe:
      run([](auto a, auto b) { return a >= b; });
      break;
  }
}

template <typename ColT>
void CmpRangeCompute(const ResolvedCmp& c, bool ref_math, bool first,
                     int64_t lo, int64_t hi, unsigned char* keep) {
  const ColT* col = static_cast<const ColT*>(c.data);
  switch (c.compute) {
    case DType::kInt64:
      CmpRange<ColT, int64_t>(col, LitAs<int64_t>(c), c.op, ref_math, first,
                              lo, hi, keep);
      break;
    case DType::kFloat32:
      CmpRange<ColT, float>(col, LitAs<float>(c), c.op, ref_math, first, lo,
                            hi, keep);
      break;
    default:
      CmpRange<ColT, double>(col, LitAs<double>(c), c.op, ref_math, first,
                             lo, hi, keep);
      break;
  }
}

void CmpRangeDyn(const ResolvedCmp& c, bool ref_math, bool first, int64_t lo,
                 int64_t hi, unsigned char* keep) {
  switch (c.col_dtype) {
    case DType::kInt32:
      CmpRangeCompute<int32_t>(c, ref_math, first, lo, hi, keep);
      break;
    case DType::kInt64:
      CmpRangeCompute<int64_t>(c, ref_math, first, lo, hi, keep);
      break;
    case DType::kFloat32:
      CmpRangeCompute<float>(c, ref_math, first, lo, hi, keep);
      break;
    default:
      CmpRangeCompute<double>(c, ref_math, first, lo, hi, keep);
      break;
  }
}

/// Gather + arith for one projection over the selected rows: out[j] =
/// col[idx[j]] <op> lit in the promoted dtype (kAccel), or through the
/// reference backend's double chain (kCpu). Matches the unfused
/// Select-then-Add/Sub/Mul composition bit for bit: gathering commutes
/// with the per-element casts and ops.
template <typename ColT, typename ComputeT>
void ProjRange(const ColT* col, const int64_t* idx, ComputeT lit, ArithOp op,
               bool lit_left, bool ref_math, int64_t lo, int64_t hi,
               ComputeT* out) {
  auto run = [&](auto f) {
    if (ref_math) {
      const double litd = static_cast<double>(lit);
      if (lit_left) {
        for (int64_t j = lo; j < hi; ++j) {
          out[j] = static_cast<ComputeT>(f(
              litd, static_cast<double>(static_cast<ComputeT>(col[idx[j]]))));
        }
      } else {
        for (int64_t j = lo; j < hi; ++j) {
          out[j] = static_cast<ComputeT>(f(
              static_cast<double>(static_cast<ComputeT>(col[idx[j]])), litd));
        }
      }
    } else {
      if (lit_left) {
        for (int64_t j = lo; j < hi; ++j) {
          out[j] = f(lit, static_cast<ComputeT>(col[idx[j]]));
        }
      } else {
        for (int64_t j = lo; j < hi; ++j) {
          out[j] = f(static_cast<ComputeT>(col[idx[j]]), lit);
        }
      }
    }
  };
  switch (op) {
    case ArithOp::kAdd:
      run([](auto a, auto b) { return a + b; });
      break;
    case ArithOp::kSub:
      run([](auto a, auto b) { return a - b; });
      break;
    case ArithOp::kMul:
      run([](auto a, auto b) { return a * b; });
      break;
  }
}

template <typename ColT>
void ProjRangeCompute(const ResolvedProj& p, const int64_t* idx,
                      bool ref_math, int64_t lo, int64_t hi, void* out) {
  const ColT* col = static_cast<const ColT*>(p.data);
  switch (p.compute) {
    case DType::kInt64:
      ProjRange<ColT, int64_t>(col, idx, ProjLitAs<int64_t>(p), p.op,
                               p.lit_on_left, ref_math, lo, hi,
                               static_cast<int64_t*>(out));
      break;
    case DType::kFloat32:
      ProjRange<ColT, float>(col, idx, ProjLitAs<float>(p), p.op,
                             p.lit_on_left, ref_math, lo, hi,
                             static_cast<float*>(out));
      break;
    default:
      ProjRange<ColT, double>(col, idx, ProjLitAs<double>(p), p.op,
                              p.lit_on_left, ref_math, lo, hi,
                              static_cast<double*>(out));
      break;
  }
}

void ProjRangeDyn(const ResolvedProj& p, const int64_t* idx, bool ref_math,
                  int64_t lo, int64_t hi, void* out) {
  switch (p.col_dtype) {
    case DType::kInt32:
      ProjRangeCompute<int32_t>(p, idx, ref_math, lo, hi, out);
      break;
    case DType::kInt64:
      ProjRangeCompute<int64_t>(p, idx, ref_math, lo, hi, out);
      break;
    case DType::kFloat32:
      ProjRangeCompute<float>(p, idx, ref_math, lo, hi, out);
      break;
    default:
      ProjRangeCompute<double>(p, idx, ref_math, lo, hi, out);
      break;
  }
}

/// Converts the resolved literal through the exact unfused chain:
/// ScalarToTensor makes an int literal an exact kInt64 tensor and a float
/// literal a kFloat32 tensor; To(compute) then static_casts.
/// Returns false for literal kinds the fused path does not handle.
bool ConvertNumericLit(const ScalarValue& v, DType col_dtype, DType* compute,
                       int64_t* lit_i, float* lit_f, double* lit_d) {
  if (v.is_int()) {
    const int64_t raw = v.int_value();
    *compute = PromoteTypes(col_dtype, DType::kInt64);
    switch (*compute) {
      case DType::kInt64:
        *lit_i = raw;
        return true;
      case DType::kFloat32:
        *lit_f = static_cast<float>(raw);
        return true;
      case DType::kFloat64:
        *lit_d = static_cast<double>(raw);
        return true;
      default:
        return false;
    }
  }
  if (v.is_float()) {
    const float raw = static_cast<float>(v.float_value());
    *compute = PromoteTypes(col_dtype, DType::kFloat32);
    switch (*compute) {
      case DType::kFloat32:
        *lit_f = raw;
        return true;
      case DType::kFloat64:
        *lit_d = static_cast<double>(raw);
        return true;
      default:
        return false;
    }
  }
  return false;
}

/// A numeric column the fused loops can address directly: plain encoding,
/// rank 1, one of the four numeric dtypes, dense, and autograd-free (the
/// unfused tensor ops would record autograd state the fused loops skip).
bool FusableNumericColumn(const Column& col) {
  if (col.encoding() != Encoding::kPlain) return false;
  const Tensor& t = col.data();
  if (t.dim() != 1 || !t.is_contiguous() || t.requires_grad()) return false;
  switch (t.dtype()) {
    case DType::kInt32:
    case DType::kInt64:
    case DType::kFloat32:
    case DType::kFloat64:
      return true;
    default:
      return false;
  }
}

enum class LeafStatus { kOk, kConstFalse, kConstTrue, kFallback };

}  // namespace

bool SetFusedEvalEnabled(bool enabled) {
  return g_fused_enabled.exchange(enabled, std::memory_order_relaxed);
}

bool FusedEvalEnabled() {
  return g_fused_enabled.load(std::memory_order_relaxed);
}

// ---- Compilation ------------------------------------------------------------

struct FusedCompiler {
  using LitSource = FusedFilterProject::LitSource;
  using Conjunct = FusedFilterProject::Conjunct;
  using Projection = FusedFilterProject::Projection;

  static bool CompileLit(const BoundExpr& e, LitSource* out) {
    if (e.kind == BoundExprKind::kLiteral) {
      const auto& lit = static_cast<const BoundLiteral&>(e);
      if (!lit.value.is_numeric() && !lit.value.is_string()) return false;
      out->is_param = false;
      out->literal = lit.value;
      return true;
    }
    if (e.kind == BoundExprKind::kParameter) {
      out->is_param = true;
      out->ordinal = static_cast<const BoundParameter&>(e).ordinal;
      return true;
    }
    return false;
  }

  static bool CmpFromOp(sql::BinaryOp op, CmpOp* out) {
    switch (op) {
      case sql::BinaryOp::kEq:
        *out = CmpOp::kEq;
        return true;
      case sql::BinaryOp::kNe:
        *out = CmpOp::kNe;
        return true;
      case sql::BinaryOp::kLt:
        *out = CmpOp::kLt;
        return true;
      case sql::BinaryOp::kLe:
        *out = CmpOp::kLe;
        return true;
      case sql::BinaryOp::kGt:
        *out = CmpOp::kGt;
        return true;
      case sql::BinaryOp::kGe:
        *out = CmpOp::kGe;
        return true;
      default:
        return false;
    }
  }

  static bool ArithFromOp(sql::BinaryOp op, ArithOp* out) {
    switch (op) {
      case sql::BinaryOp::kAdd:
        *out = ArithOp::kAdd;
        return true;
      case sql::BinaryOp::kSub:
        *out = ArithOp::kSub;
        return true;
      case sql::BinaryOp::kMul:
        *out = ArithOp::kMul;
        return true;
      default:
        return false;
    }
  }

  /// <colref> <cmp> <literal/param>, either operand order.
  static bool CompileConjunct(const BoundExpr& e, Conjunct* out) {
    if (e.kind != BoundExprKind::kBinary) return false;
    const auto& b = static_cast<const BoundBinary&>(e);
    if (!CmpFromOp(b.op, &out->op)) return false;
    if (b.left->kind == BoundExprKind::kColumnRef) {
      out->col = static_cast<const BoundColumnRef&>(*b.left).column_index;
      out->lit_on_left = false;
      return CompileLit(*b.right, &out->lit);
    }
    if (b.right->kind == BoundExprKind::kColumnRef) {
      out->col = static_cast<const BoundColumnRef&>(*b.right).column_index;
      out->lit_on_left = true;
      return CompileLit(*b.left, &out->lit);
    }
    return false;
  }

  /// Flattens an AND-tree of fusable conjuncts. The unfused path
  /// materializes every conjunct and LogicalAnds the bool masks; AND is
  /// associative and commutative over bool, so the flat conjunct list
  /// reproduces the tree's mask exactly.
  static bool CompilePredicate(const BoundExpr& e,
                               std::vector<Conjunct>* out) {
    if (e.kind == BoundExprKind::kBinary &&
        static_cast<const BoundBinary&>(e).op == sql::BinaryOp::kAnd) {
      const auto& b = static_cast<const BoundBinary&>(e);
      return CompilePredicate(*b.left, out) &&
             CompilePredicate(*b.right, out);
    }
    Conjunct c;
    if (!CompileConjunct(e, &c)) return false;
    out->push_back(std::move(c));
    return true;
  }

  /// Column passthrough, or <colref> +|-|* <numeric literal/param>.
  static bool CompileProjection(const BoundExpr& e, Projection* p) {
    if (e.kind == BoundExprKind::kColumnRef) {
      p->passthrough = true;
      p->col = static_cast<const BoundColumnRef&>(e).column_index;
      return true;
    }
    if (e.kind != BoundExprKind::kBinary) return false;
    const auto& b = static_cast<const BoundBinary&>(e);
    if (!ArithFromOp(b.op, &p->op)) return false;
    p->passthrough = false;
    if (b.left->kind == BoundExprKind::kColumnRef) {
      p->col = static_cast<const BoundColumnRef&>(*b.left).column_index;
      p->lit_on_left = false;
      return CompileLit(*b.right, &p->lit);
    }
    if (b.right->kind == BoundExprKind::kColumnRef) {
      p->col = static_cast<const BoundColumnRef&>(*b.right).column_index;
      p->lit_on_left = true;
      return CompileLit(*b.left, &p->lit);
    }
    return false;
  }
};

FusedProgramPtr FusedFilterProject::Compile(const plan::FilterNode& filter,
                                            const plan::ProjectNode* project) {
  auto program = std::shared_ptr<FusedFilterProject>(new FusedFilterProject());
  if (filter.predicate == nullptr ||
      !FusedCompiler::CompilePredicate(*filter.predicate,
                                       &program->conjuncts_)) {
    return nullptr;
  }
  if (project != nullptr) {
    std::vector<Projection> projections;
    bool ok = project->exprs.size() == project->schema.size();
    for (const BoundExprPtr& expr : project->exprs) {
      Projection p;
      if (!ok || !FusedCompiler::CompileProjection(*expr, &p)) {
        ok = false;
        break;
      }
      projections.push_back(std::move(p));
    }
    if (ok) {
      // A non-fusable projection list degrades to a filter-only program;
      // the caller keeps running the Project unfused.
      program->has_project_ = true;
      program->projections_ = std::move(projections);
      for (const auto& cs : project->schema) {
        program->project_names_.push_back(cs.name);
      }
    }
  }
  return program;
}

// ---- Execution --------------------------------------------------------------

namespace {

const ScalarValue* ResolveLit(const FusedFilterProject::LitSource& lit,
                              const ExecContext& ctx) {
  if (!lit.is_param) return &lit.literal;
  if (ctx.params == nullptr ||
      lit.ordinal >= static_cast<int64_t>(ctx.params->size())) {
    return nullptr;  // unfused path reports the binding error
  }
  const ScalarValue& v = (*ctx.params)[static_cast<size_t>(lit.ordinal)];
  return v.is_null() ? nullptr : &v;
}

LeafStatus ResolveCmpLeaf(const FusedFilterProject::Conjunct& c,
                          const Chunk& input, const ExecContext& ctx,
                          ResolvedCmp* out) {
  if (c.col < 0 || c.col >= input.num_columns()) return LeafStatus::kFallback;
  const ScalarValue* v = ResolveLit(c.lit, ctx);
  if (v == nullptr) return LeafStatus::kFallback;
  const Column& col = input.columns[static_cast<size_t>(c.col)];

  if (v->is_string()) {
    // Dictionary compare, lowered exactly as CompareStringLiteral lowers
    // it: normalize the literal to the right, then turn the string
    // predicate into an order-preserving code compare (an absent equality
    // code short-circuits the conjunct to a constant).
    if (col.encoding() != Encoding::kDictionary) return LeafStatus::kFallback;
    const Tensor& codes = col.data();
    if (codes.dtype() != DType::kInt64 || codes.dim() != 1 ||
        !codes.is_contiguous() || codes.requires_grad()) {
      return LeafStatus::kFallback;
    }
    const CmpOp norm = c.lit_on_left ? MirrorCmp(c.op) : c.op;
    const std::string& s = v->string_value();
    out->data = codes.data<int64_t>();
    out->col_dtype = DType::kInt64;
    out->compute = DType::kInt64;
    switch (norm) {
      case CmpOp::kEq: {
        const int64_t code = col.DictionaryCode(s);
        if (code < 0) return LeafStatus::kConstFalse;
        out->op = CmpOp::kEq;
        out->lit_i = code;
        return LeafStatus::kOk;
      }
      case CmpOp::kNe: {
        const int64_t code = col.DictionaryCode(s);
        if (code < 0) return LeafStatus::kConstTrue;
        out->op = CmpOp::kNe;
        out->lit_i = code;
        return LeafStatus::kOk;
      }
      case CmpOp::kLt:
        out->op = CmpOp::kLt;
        out->lit_i = col.LowerBoundCode(s);
        return LeafStatus::kOk;
      case CmpOp::kLe:
        out->op = CmpOp::kLt;
        out->lit_i = col.UpperBoundCode(s);
        return LeafStatus::kOk;
      case CmpOp::kGt:
        out->op = CmpOp::kGe;
        out->lit_i = col.UpperBoundCode(s);
        return LeafStatus::kOk;
      case CmpOp::kGe:
        out->op = CmpOp::kGe;
        out->lit_i = col.LowerBoundCode(s);
        return LeafStatus::kOk;
    }
    return LeafStatus::kFallback;
  }

  if (!v->is_numeric()) return LeafStatus::kFallback;
  if (!FusableNumericColumn(col)) return LeafStatus::kFallback;
  const Tensor& t = col.data();
  if (!ConvertNumericLit(*v, t.dtype(), &out->compute, &out->lit_i,
                         &out->lit_f, &out->lit_d)) {
    return LeafStatus::kFallback;
  }
  out->data = static_cast<const void*>(
      reinterpret_cast<const char*>(t.impl()->buffer->data()) +
      t.offset() * DTypeSize(t.dtype()));
  out->col_dtype = t.dtype();
  out->op = c.lit_on_left ? MirrorCmp(c.op) : c.op;
  return LeafStatus::kOk;
}

bool ResolveProjLeaf(const FusedFilterProject::Projection& p,
                     const Chunk& input, const ExecContext& ctx,
                     ResolvedProj* out) {
  if (p.col < 0 || p.col >= input.num_columns()) return false;
  out->passthrough = p.passthrough;
  out->col = p.col;
  if (p.passthrough) return true;
  const ScalarValue* v = ResolveLit(p.lit, ctx);
  if (v == nullptr || !v->is_numeric()) return false;
  const Column& col = input.columns[static_cast<size_t>(p.col)];
  if (!FusableNumericColumn(col)) return false;
  const Tensor& t = col.data();
  if (!ConvertNumericLit(*v, t.dtype(), &out->compute, &out->lit_i,
                         &out->lit_f, &out->lit_d)) {
    return false;
  }
  out->data = static_cast<const void*>(
      reinterpret_cast<const char*>(t.impl()->buffer->data()) +
      t.offset() * DTypeSize(t.dtype()));
  out->col_dtype = t.dtype();
  out->op = p.op;
  out->lit_on_left = p.lit_on_left;
  return true;
}

}  // namespace

std::optional<Chunk> FusedFilterProject::Execute(const Chunk& input,
                                                 const ExecContext& ctx) const {
  if (!FusedEvalEnabled() || ctx.soft_mode) return std::nullopt;

  std::vector<ResolvedCmp> cmps;
  cmps.reserve(conjuncts_.size());
  bool const_false = false;
  for (const Conjunct& c : conjuncts_) {
    ResolvedCmp r;
    switch (ResolveCmpLeaf(c, input, ctx, &r)) {
      case LeafStatus::kOk:
        cmps.push_back(r);
        break;
      case LeafStatus::kConstFalse:
        const_false = true;
        break;
      case LeafStatus::kConstTrue:
        break;  // drop: ANDing all-true changes nothing
      case LeafStatus::kFallback:
        return std::nullopt;
    }
  }

  std::vector<ResolvedProj> projs;
  if (has_project_) {
    projs.reserve(projections_.size());
    for (const Projection& p : projections_) {
      ResolvedProj r;
      if (!ResolveProjLeaf(p, input, ctx, &r)) return std::nullopt;
      projs.push_back(r);
    }
  }

  const int64_t n = input.num_rows();
  Tensor mask = Tensor::Empty({n}, DType::kBool, ctx.device);
  unsigned char* keep = reinterpret_cast<unsigned char*>(mask.data<bool>());
  if (n == 0) {
    // fall through: an empty mask selects nothing, matching the unfused
    // path over an empty morsel.
  } else if (const_false) {
    std::memset(keep, 0, static_cast<size_t>(n));
  } else if (cmps.empty()) {
    std::memset(keep, 1, static_cast<size_t>(n));
  } else {
    const bool ref_math = ctx.device == Device::kCpu;
    // Disjoint shards write disjoint mask ranges: bit-identical at any
    // thread count, and each shard runs all conjuncts with hot caches.
    ParallelFor(0, n, GrainForCost(static_cast<int64_t>(cmps.size()) * 2),
                [&](int64_t lo, int64_t hi) {
                  bool first = true;
                  for (const ResolvedCmp& c : cmps) {
                    CmpRangeDyn(c, ref_math, first, lo, hi, keep);
                    first = false;
                  }
                });
  }

  // The fused mask equals the unfused predicate mask element for element,
  // so selection through the shared NonZero keeps index order — and with
  // it every downstream result — identical to the unfused path.
  const Tensor indices = NonZero(mask);
  if (!has_project_) return input.Select(indices);

  const int64_t k = indices.numel();
  const int64_t* idx = indices.data<int64_t>();
  const bool ref_math = ctx.device == Device::kCpu;
  Chunk out;
  out.names = project_names_;
  for (const ResolvedProj& p : projs) {
    if (p.passthrough) {
      out.columns.push_back(
          input.columns[static_cast<size_t>(p.col)].Select(indices));
      continue;
    }
    Tensor result = Tensor::Empty({k}, p.compute, ctx.device);
    void* op = result.impl()->buffer->data();
    ParallelFor(0, k, GrainForCost(4), [&](int64_t lo, int64_t hi) {
      ProjRangeDyn(p, idx, ref_math, lo, hi, op);
    });
    out.columns.push_back(Column::Plain(std::move(result)));
  }
  return out;
}

}  // namespace exec
}  // namespace tdp
