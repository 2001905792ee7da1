#include "src/exec/keys.h"

#include <algorithm>
#include <numeric>
#include <string>
#include <type_traits>

#include "src/common/logging.h"
#include "src/common/thread_pool.h"
#include "src/tensor/dispatch.h"
#include "src/tensor/dtype.h"

namespace tdp {
namespace exec {
namespace {

// 2^63 as a double: the first double above every int64.
constexpr double kTwoPow63 = 9223372036854775808.0;

// Murmur3's 64-bit finalizer.
uint64_t Mix(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

// How a join key column compares: strings by value, integers as int64,
// floats as doubles (PE columns hard-decode to float32).
enum class KeyKind { kString, kInteger, kFloat };

KeyKind KindOf(const Column& column) {
  switch (column.encoding()) {
    case Encoding::kDictionary:
      return KeyKind::kString;
    case Encoding::kProbability:
      return KeyKind::kFloat;
    case Encoding::kPlain:
      break;
  }
  return IsFloatingPoint(column.data().dtype()) ? KeyKind::kFloat
                                                : KeyKind::kInteger;
}

// Code in `to` of each string of `from` (-1 when absent): one merge of the
// two sorted dictionaries.
std::vector<int64_t> TranslateDictionary(const std::vector<std::string>& from,
                                         const std::vector<std::string>& to) {
  std::vector<int64_t> out(from.size(), -1);
  if (&from == &to) {
    std::iota(out.begin(), out.end(), 0);
    return out;
  }
  size_t j = 0;
  for (size_t i = 0; i < from.size(); ++i) {
    while (j < to.size() && to[j] < from[i]) ++j;
    if (j < to.size() && to[j] == from[i]) out[i] = static_cast<int64_t>(j);
  }
  return out;
}

}  // namespace

StatusOr<std::vector<int64_t>> KeyCodes(const Column& column, bool* is_float) {
  bool floating = false;
  std::vector<int64_t> codes;
  if (column.encoding() == Encoding::kDictionary) {
    codes = column.data().ToVector<int64_t>();
  } else {
    const Tensor values = column.DecodeValues().Detach().Contiguous();
    if (values.dim() != 1) {
      return Status::TypeError(
          "tensor-valued columns cannot be grouping/join keys");
    }
    floating = IsFloatingPoint(values.dtype());
    codes.resize(static_cast<size_t>(values.numel()));
    TDP_DISPATCH_ALL(values.dtype(), {
      const scalar_t* v = values.data<scalar_t>();
      ParallelFor(0, values.numel(), GrainForCost(1), [&](int64_t lo,
                                                          int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
          if constexpr (std::is_floating_point_v<scalar_t>) {
            codes[static_cast<size_t>(i)] =
                DoubleOrderCode(static_cast<double>(v[i]));
          } else {
            codes[static_cast<size_t>(i)] = static_cast<int64_t>(v[i]);
          }
        }
      });
    });
  }
  if (is_float != nullptr) *is_float = floating;
  return codes;
}

StatusOr<std::vector<int64_t>> KeyTuples(const std::vector<Column>& columns) {
  const size_t width = columns.size();
  std::vector<int64_t> tuples;
  for (size_t k = 0; k < width; ++k) {
    TDP_ASSIGN_OR_RETURN(const std::vector<int64_t> codes,
                         KeyCodes(columns[k]));
    if (k == 0) tuples.resize(codes.size() * width);
    for (size_t r = 0; r < codes.size(); ++r) tuples[r * width + k] = codes[r];
  }
  return tuples;
}

// ---- SortKeys ---------------------------------------------------------------

namespace {

// Rows per top-k block: fixed, so the blocks (not the threads) define the
// work split.
constexpr int64_t kTopKBlockRows = 16384;

}  // namespace

Status SortKeys::Add(const Column& column, bool descending) {
  bool is_float = false;
  TDP_ASSIGN_OR_RETURN(std::vector<int64_t> rank, KeyCodes(column, &is_float));
  // (A constant evaluates to one row even over an empty relation.)
  TDP_CHECK(static_cast<int64_t>(rank.size()) == rows || rows == 0);
  for (int64_t& r : rank) r = SortRank(r, descending, is_float);
  ranks.push_back(std::move(rank));
  return Status::OK();
}

std::vector<int64_t> SortKeys::Sorted(int64_t limit) const {
  const auto less = [this](int64_t a, int64_t b) { return Less(a, b); };
  if (limit < 0 || limit >= rows) {
    std::vector<int64_t> order(static_cast<size_t>(rows));
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), less);
    return order;
  }
  if (limit == 0) return {};
  // Top-k: every block keeps its `limit` least rows in a bounded max-heap,
  // in parallel; the global top-k is among the winners. `Less` is total,
  // so the top-k is unique and the split cannot change it.
  const int64_t blocks = (rows + kTopKBlockRows - 1) / kTopKBlockRows;
  const int64_t keep = std::min(limit, kTopKBlockRows);
  std::vector<std::vector<int64_t>> winners(static_cast<size_t>(blocks));
  ParallelFor(0, blocks, 1, [&](int64_t b0, int64_t b1) {
    for (int64_t b = b0; b < b1; ++b) {
      std::vector<int64_t>& heap = winners[static_cast<size_t>(b)];
      heap.reserve(static_cast<size_t>(keep));
      const int64_t end = std::min(rows, (b + 1) * kTopKBlockRows);
      for (int64_t row = b * kTopKBlockRows; row < end; ++row) {
        if (static_cast<int64_t>(heap.size()) < keep) {
          heap.push_back(row);
          std::push_heap(heap.begin(), heap.end(), less);
        } else if (Less(row, heap.front())) {
          std::pop_heap(heap.begin(), heap.end(), less);
          heap.back() = row;
          std::push_heap(heap.begin(), heap.end(), less);
        }
      }
    }
  });
  std::vector<int64_t> top;
  for (const std::vector<int64_t>& w : winners) {
    top.insert(top.end(), w.begin(), w.end());
  }
  std::nth_element(top.begin(), top.begin() + limit, top.end(), less);
  top.resize(static_cast<size_t>(limit));
  std::sort(top.begin(), top.end(), less);
  return top;
}

// ---- KeyTable ---------------------------------------------------------------

KeyTable::KeyTable(int64_t width) : width_(width), slots_(16, -1) {}

uint64_t KeyTable::Hash(const int64_t* key, int64_t width) {
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (int64_t k = 0; k < width; ++k) {
    h = Mix(h ^ static_cast<uint64_t>(key[k]));
  }
  return h;
}

bool KeyTable::Equal(int64_t id, const int64_t* key) const {
  const int64_t* stored = this->key(id);
  for (int64_t k = 0; k < width_; ++k) {
    if (stored[k] != key[k]) return false;
  }
  return true;
}

size_t KeyTable::Probe(const int64_t* key, uint64_t hash) const {
  const size_t mask = slots_.size() - 1;
  size_t s = static_cast<size_t>(hash) & mask;
  while (true) {
    const int64_t id = slots_[s];
    if (id < 0 ||
        (hashes_[static_cast<size_t>(id)] == hash && Equal(id, key))) {
      return s;
    }
    s = (s + 1) & mask;
  }
}

std::pair<int64_t, bool> KeyTable::Insert(const int64_t* key) {
  const uint64_t hash = Hash(key, width_);
  size_t s = Probe(key, hash);
  if (slots_[s] >= 0) return {slots_[s], false};
  // Keep the load factor at or below 1/2.
  if (2 * (hashes_.size() + 1) > slots_.size()) {
    Grow();
    s = Probe(key, hash);
  }
  const int64_t id = size();
  keys_.insert(keys_.end(), key, key + width_);
  hashes_.push_back(hash);
  slots_[s] = id;
  return {id, true};
}

int64_t KeyTable::Find(const int64_t* key) const {
  return slots_[Probe(key, Hash(key, width_))];
}

void KeyTable::Grow() {
  slots_.assign(slots_.size() * 2, -1);
  const size_t mask = slots_.size() - 1;
  for (size_t id = 0; id < hashes_.size(); ++id) {
    size_t s = static_cast<size_t>(hashes_[id]) & mask;
    while (slots_[s] >= 0) s = (s + 1) & mask;
    slots_[s] = static_cast<int64_t>(id);
  }
}

std::vector<int64_t> KeyTable::SortIds() {
  const int64_t n = size();
  std::vector<int64_t> order(static_cast<size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [this](int64_t a, int64_t b) {
    return std::lexicographical_compare(key(a), key(a) + width_, key(b),
                                        key(b) + width_);
  });
  std::vector<int64_t> new_id(static_cast<size_t>(n));
  std::vector<int64_t> keys(keys_.size());
  std::vector<uint64_t> hashes(hashes_.size());
  for (int64_t i = 0; i < n; ++i) {
    const int64_t old = order[static_cast<size_t>(i)];
    new_id[static_cast<size_t>(old)] = i;
    std::copy(key(old), key(old) + width_, keys.begin() + i * width_);
    hashes[static_cast<size_t>(i)] = hashes_[static_cast<size_t>(old)];
  }
  keys_ = std::move(keys);
  hashes_ = std::move(hashes);
  for (int64_t& slot : slots_) {
    if (slot >= 0) slot = new_id[static_cast<size_t>(slot)];
  }
  return new_id;
}

// ---- KeyRows ----------------------------------------------------------------

void KeyRows::Add(const int64_t* key, int64_t row) {
  ids_.push_back(keys_.Insert(key).first);
  rows_.push_back(row);
}

void KeyRows::Finish() {
  // Counting sort by id; stable, so each key's rows stay ascending.
  offsets_.assign(static_cast<size_t>(keys_.size()) + 1, 0);
  for (int64_t id : ids_) ++offsets_[static_cast<size_t>(id) + 1];
  std::partial_sum(offsets_.begin(), offsets_.end(), offsets_.begin());
  std::vector<int64_t> cursor(offsets_.begin(), offsets_.end() - 1);
  std::vector<int64_t> rows(rows_.size());
  for (size_t i = 0; i < ids_.size(); ++i) {
    rows[static_cast<size_t>(cursor[static_cast<size_t>(ids_[i])]++)] =
        rows_[i];
  }
  rows_ = std::move(rows);
  ids_ = {};
}

std::span<const int64_t> KeyRows::Find(const int64_t* key) const {
  const int64_t id = keys_.Find(key);
  if (id < 0) return {};
  const int64_t begin = offsets_[static_cast<size_t>(id)];
  return {rows_.data() + begin,
          static_cast<size_t>(offsets_[static_cast<size_t>(id) + 1] - begin)};
}

// ---- Join key reconciliation ------------------------------------------------

StatusOr<JoinKeys> MakeJoinKeys(const Chunk& build,
                                const std::vector<int64_t>& build_cols,
                                const Chunk& side,
                                const std::vector<int64_t>& side_cols) {
  const int64_t rows = side.num_rows();
  const int64_t width = static_cast<int64_t>(side_cols.size());
  JoinKeys out;
  out.width = width;
  out.codes.assign(static_cast<size_t>(rows * width), 0);
  out.live.assign(static_cast<size_t>(rows), 1);
  for (int64_t k = 0; k < width; ++k) {
    const Column& b = build.columns[static_cast<size_t>(build_cols[k])];
    const Column& s = side.columns[static_cast<size_t>(side_cols[k])];
    const KeyKind bk = KindOf(b);
    const KeyKind sk = KindOf(s);
    const auto code = [&](int64_t r) -> int64_t& {
      return out.codes[static_cast<size_t>(r * width + k)];
    };
    if (sk == KeyKind::kString || bk == KeyKind::kString) {
      if (sk != bk) {  // a string never equals a number
        std::fill(out.live.begin(), out.live.end(), 0);
        continue;
      }
      const std::vector<int64_t> to_build =
          TranslateDictionary(s.dictionary(), b.dictionary());
      const std::vector<int64_t> codes = s.data().ToVector<int64_t>();
      for (int64_t r = 0; r < rows; ++r) {
        code(r) = to_build[static_cast<size_t>(codes[static_cast<size_t>(r)])];
        if (code(r) < 0) out.live[static_cast<size_t>(r)] = 0;
      }
      continue;
    }
    const Tensor values = s.DecodeValues();
    if (values.dim() != 1) {
      return Status::TypeError("join key must be a scalar column");
    }
    if (sk == KeyKind::kInteger) {
      const std::vector<int64_t> v =
          values.To(DType::kInt64).ToVector<int64_t>();
      for (int64_t r = 0; r < rows; ++r) {
        const int64_t i = v[static_cast<size_t>(r)];
        if (bk == KeyKind::kInteger) {
          code(r) = i;
          continue;
        }
        // Against a float key: the double equal to `i`, if one exists.
        const double d = static_cast<double>(i);
        if (d < kTwoPow63 && static_cast<int64_t>(d) == i) {
          code(r) = DoubleOrderCode(d);
        } else {
          out.live[static_cast<size_t>(r)] = 0;
        }
      }
      continue;
    }
    const std::vector<double> v = values.To(DType::kFloat64).ToVector<double>();
    for (int64_t r = 0; r < rows; ++r) {
      const double d = v[static_cast<size_t>(r)];
      if (std::isnan(d)) {  // NaN = anything is false
        out.live[static_cast<size_t>(r)] = 0;
      } else if (bk == KeyKind::kFloat) {
        code(r) = DoubleOrderCode(d);
      } else if (d >= -kTwoPow63 && d < kTwoPow63 && d == std::trunc(d)) {
        code(r) = static_cast<int64_t>(d);  // the int64 equal to `d`
      } else {
        out.live[static_cast<size_t>(r)] = 0;
      }
    }
  }
  return out;
}

}  // namespace exec
}  // namespace tdp
