#ifndef TDP_EXEC_KEYS_H_
#define TDP_EXEC_KEYS_H_

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "src/common/statusor.h"
#include "src/exec/chunk.h"
#include "src/storage/column.h"

namespace tdp {
namespace exec {

// The one key module: group ids, DISTINCT, hash join build/probe, ORDER
// BY and the spill kernels all derive their keys here (`KeyCodes`,
// `MakeJoinKeys`, `SortKeys`) and look them up in one flat table
// (`KeyTable`), so value equality and order mean the same thing
// everywhere.

// ---- Order-preserving key codes ---------------------------------------------
//
// Each key value maps to an int64 whose signed order (and equality)
// matches the engine's value semantics exactly —
//   * integer-kind values (int64/int32/uint8/bool, dictionary codes) map
//     to themselves: order and equality are trivially preserved;
//   * float-kind values map through their double magnitude with the sign
//     folded in (-0 normalized to +0, every NaN to one canonical code that
//     sorts above +inf) — matching ArgSort's NaN-last comparator and
//     Unique's SameValue equivalence (-0 == +0, all NaNs equal).
// The mapping is ROW-LOCAL, so codes computed per morsel or spill page
// are globally consistent.

/// Canonical NaN code: above every finite/inf code (NaN sorts last
/// ascending); `SortRank` pins NaN last under descending too.
constexpr int64_t kNanOrderCode = 0x7ff8000000000000LL;

inline int64_t DoubleOrderCode(double d) {
  if (std::isnan(d)) return kNanOrderCode;
  if (d == 0.0) return 0;  // -0 and +0 share a code
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  const int64_t magnitude = static_cast<int64_t>(bits & 0x7fffffffffffffffULL);
  return (bits >> 63) != 0 ? -magnitude : magnitude;
}

/// Per-row order codes for one scalar column (see above): dictionary
/// columns yield their codes, PE columns hard-decode first. `is_float`
/// (optional) reports whether the NaN-last rule applies to this key.
StatusOr<std::vector<int64_t>> KeyCodes(const Column& column,
                                        bool* is_float = nullptr);

/// `KeyCodes` of several columns as row-major tuples (rows x
/// columns.size()) — the layout `KeyTable` takes.
StatusOr<std::vector<int64_t>> KeyTuples(const std::vector<Column>& columns);

/// A code's rank under one ORDER BY direction: ascending signed order of
/// ranks is the key's ORDER BY order, NaN last under BOTH directions
/// (ArgSort's comparator contract). Descending flips the code with `~`,
/// an order-reversing bijection that cannot overflow; a float key's NaN
/// then takes the top rank, which no flipped float code reaches.
inline int64_t SortRank(int64_t code, bool descending, bool is_float) {
  if (!descending) return code;
  if (is_float && code == kNanOrderCode) {
    return std::numeric_limits<int64_t>::max();
  }
  return ~code;
}

// ---- Sort order -------------------------------------------------------------

/// The ORDER BY order of a relation's rows: per ORDER BY item, the
/// `SortRank`s of its `KeyCodes`. `Less` compares the items' ranks in turn
/// and breaks full ties by row index, a strict total order that is exactly
/// the composition of stable per-key sorts: NaN last in both directions,
/// -0 equal to +0, int64 exact. The first k rows under it are therefore
/// unique. The in-memory sort, the external sort and the index top-k all
/// order rows through this one type.
struct SortKeys {
  explicit SortKeys(int64_t num_rows) : rows(num_rows) {}

  /// Appends the next ORDER BY item: `column` must hold one scalar per
  /// row.
  Status Add(const Column& column, bool descending);

  bool Less(int64_t a, int64_t b) const {
    for (const std::vector<int64_t>& rank : ranks) {
      const int64_t ra = rank[static_cast<size_t>(a)];
      const int64_t rb = rank[static_cast<size_t>(b)];
      if (ra != rb) return ra < rb;
    }
    return a < b;
  }

  /// Row ids in `Less` order, cut to the first `limit` (every row when
  /// `limit` is negative). A limit below the row count runs a parallel
  /// top-k over fixed row blocks; the result depends on neither the block
  /// size nor the thread count.
  std::vector<int64_t> Sorted(int64_t limit = -1) const;

  int64_t rows;
  std::vector<std::vector<int64_t>> ranks;  // per item, per row
};

// ---- Flat key table ---------------------------------------------------------

/// Open-addressing hash table over tuples of `width` int64 codes. Tuples
/// are stored flat (size() x width) and receive dense ids in first-seen
/// order; `SortIds` renumbers them into lexicographic code order, which
/// for `KeyCodes` tuples is value order — the engine's group order.
/// Width 0 is allowed: every row then shares the one empty tuple.
class KeyTable {
 public:
  explicit KeyTable(int64_t width);

  /// Number of distinct tuples.
  int64_t size() const { return static_cast<int64_t>(hashes_.size()); }

  /// The id of `key` (`width` codes) and whether this call inserted it
  /// (new tuples get id size()).
  std::pair<int64_t, bool> Insert(const int64_t* key);
  /// The id of `key`, or -1 when absent.
  int64_t Find(const int64_t* key) const;
  /// The codes of tuple `id`.
  const int64_t* key(int64_t id) const {
    return keys_.data() + id * width_;
  }

  /// Renumbers the ids so that id order is lexicographic (signed) code
  /// order; returns each old id's new id.
  std::vector<int64_t> SortIds();

  /// The tuple hash the table probes with (also picks grace-join
  /// partitions: those use the high bits, the table the low ones).
  static uint64_t Hash(const int64_t* key, int64_t width);

 private:
  bool Equal(int64_t id, const int64_t* key) const;
  /// Slot holding `key`'s id, or the empty slot where it would go.
  size_t Probe(const int64_t* key, uint64_t hash) const;
  void Grow();

  int64_t width_;
  std::vector<int64_t> keys_;     // size() x width, flat
  std::vector<uint64_t> hashes_;  // per id
  std::vector<int64_t> slots_;    // ids; -1 = empty; power-of-two size
};

/// A `KeyTable` plus each key's rows, ascending, in CSR form: the build
/// side of a hash join. `Add` rows in ascending order, then `Finish`.
class KeyRows {
 public:
  explicit KeyRows(int64_t width) : keys_(width) {}

  void Add(const int64_t* key, int64_t row);
  void Finish();
  /// Rows added under `key`, ascending; empty when absent.
  std::span<const int64_t> Find(const int64_t* key) const;

 private:
  KeyTable keys_;
  std::vector<int64_t> ids_;      // per added row, until Finish
  std::vector<int64_t> offsets_;  // size()+1 after Finish
  std::vector<int64_t> rows_;
};

// ---- Join key reconciliation ------------------------------------------------

/// One join side's key tuples in the code domain of the build side's key
/// columns, row-major (rows x width). Equal tuples mean SQL `=` holds on
/// every key: int vs int compares as int64, any float compares exactly
/// (1 = 1.0, but 2^53+1 <> (double)2^53), strings compare by value
/// through a merge of the two sorted dictionaries. `live[r] == 0` marks a
/// row that equals nothing on the build side: a NaN key, a string against
/// a number, or a value the build key's type cannot hold.
struct JoinKeys {
  int64_t width = 0;
  std::vector<int64_t> codes;
  std::vector<uint8_t> live;
  const int64_t* row(int64_t r) const { return codes.data() + r * width; }
};

/// Keys of `side`'s columns `side_cols` against `build`'s columns
/// `build_cols` (only their types and dictionaries are read, so a 0-row
/// view of the build input serves). Pass the build chunk as `side` for
/// the build side's own keys.
StatusOr<JoinKeys> MakeJoinKeys(const Chunk& build,
                                const std::vector<int64_t>& build_cols,
                                const Chunk& side,
                                const std::vector<int64_t>& side_cols);

}  // namespace exec
}  // namespace tdp

#endif  // TDP_EXEC_KEYS_H_
