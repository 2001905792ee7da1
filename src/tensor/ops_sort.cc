#include <algorithm>
#include <cmath>
#include <numeric>
#include <type_traits>

#include "src/autograd/node.h"
#include "src/tensor/dispatch.h"
#include "src/tensor/ops.h"

namespace tdp {
namespace {

// Floating-point comparisons with NaN violate strict weak ordering, which
// is undefined behavior in std::stable_sort. Give floats a total order:
// NaN sorts after every real value (in both directions, like SQL NULLS
// LAST), and all NaNs compare equivalent to each other.
template <typename T>
bool IsNan(T v) {
  if constexpr (std::is_floating_point_v<T>) {
    return std::isnan(v);
  } else {
    (void)v;
    return false;
  }
}

// True when `a` and `b` belong to the same equivalence class of the total
// order (equal values, or both NaN).
template <typename T>
bool SameValue(T a, T b) {
  return a == b || (IsNan(a) && IsNan(b));
}

}  // namespace

Tensor ArgSort(const Tensor& t, bool descending) {
  TDP_CHECK(t.defined());
  TDP_CHECK_EQ(t.dim(), 1) << "ArgSort expects a 1-d tensor";
  const Tensor tc = t.Detach().Contiguous();
  const int64_t n = tc.numel();
  Tensor out = Tensor::Empty({n}, DType::kInt64, t.device());
  int64_t* op = out.data<int64_t>();
  std::iota(op, op + n, 0);
  // Bool orders false < true.
  TDP_DISPATCH_ALL(t.dtype(), {
    const scalar_t* sp = tc.data<scalar_t>();
    if (descending) {
      std::stable_sort(op, op + n, [sp](int64_t a, int64_t b) {
        if (IsNan(sp[a])) return false;  // NaN last
        if (IsNan(sp[b])) return true;
        return sp[a] > sp[b];
      });
    } else {
      std::stable_sort(op, op + n, [sp](int64_t a, int64_t b) {
        if (IsNan(sp[a])) return false;  // NaN last
        if (IsNan(sp[b])) return true;
        return sp[a] < sp[b];
      });
    }
  });
  return out;
}

SortResult Sort(const Tensor& t, bool descending) {
  Tensor indices = ArgSort(t, descending);
  Tensor values = IndexSelect(t, 0, indices);
  return {values, indices};
}

UniqueResult Unique(const Tensor& t) {
  TDP_CHECK(t.defined());
  TDP_CHECK_EQ(t.dim(), 1) << "Unique expects a 1-d tensor";
  const Tensor tc = t.Detach().Contiguous();
  const int64_t n = tc.numel();
  const Tensor order = ArgSort(tc, /*descending=*/false);
  const int64_t* op = order.data<int64_t>();

  UniqueResult result;
  Tensor inverse = Tensor::Empty({n}, DType::kInt64, t.device());
  int64_t* inv = inverse.data<int64_t>();

  TDP_DISPATCH_NUMERIC(t.dtype(), {
    const scalar_t* sp = tc.data<scalar_t>();
    std::vector<scalar_t> values;
    std::vector<int64_t> counts;
    for (int64_t i = 0; i < n; ++i) {
      const scalar_t v = sp[op[i]];
      // NaN != NaN, so a plain comparison would open one group per NaN
      // row; SameValue collapses them into a single trailing group (the
      // ascending sort above places every NaN at the end).
      if (values.empty() || !SameValue(values.back(), v)) {
        values.push_back(v);
        counts.push_back(0);
      }
      inv[op[i]] = static_cast<int64_t>(values.size()) - 1;
      ++counts.back();
    }
    const int64_t u = static_cast<int64_t>(values.size());
    Tensor vt = Tensor::Empty({u}, t.dtype(), t.device());
    scalar_t* vp = vt.data<scalar_t>();
    for (int64_t i = 0; i < u; ++i) vp[i] = values[static_cast<size_t>(i)];
    Tensor ct = Tensor::Empty({u}, DType::kInt64, t.device());
    int64_t* cp = ct.data<int64_t>();
    for (int64_t i = 0; i < u; ++i) cp[i] = counts[static_cast<size_t>(i)];
    result.values = vt;
    result.counts = ct;
  });
  result.inverse = inverse;
  return result;
}

}  // namespace tdp
