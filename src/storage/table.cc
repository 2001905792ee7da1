#include "src/storage/table.h"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "src/common/logging.h"
#include "src/common/string_util.h"
#include "src/tensor/ops.h"

namespace tdp {
namespace {

/// Row-wise concatenation that tolerates dictionary parts with DIFFERENT
/// dictionaries: appended segments encode their strings against their own
/// dictionary (extending the shared one would re-code every older row), so
/// flattening decodes and re-encodes into one order-preserving dictionary.
/// Parts sharing a single dictionary object — the common case — concat
/// their codes zero-decode.
Column ConcatColumnParts(const std::vector<Column>& parts) {
  TDP_CHECK(!parts.empty());
  if (parts.size() == 1) return parts[0];
  if (parts[0].encoding() == Encoding::kDictionary) {
    bool shared_dict = true;
    for (const Column& p : parts) {
      if (&p.dictionary() != &parts[0].dictionary()) {
        shared_dict = false;
        break;
      }
    }
    if (!shared_dict) {
      std::vector<std::string> values;
      for (const Column& p : parts) {
        std::vector<std::string> decoded = p.DecodeStrings();
        values.insert(values.end(),
                      std::make_move_iterator(decoded.begin()),
                      std::make_move_iterator(decoded.end()));
      }
      return Column::FromStrings(values);
    }
  }
  return Column::Concat(parts);
}

Tensor IndexTensor(const std::vector<int64_t>& indices) {
  Tensor t = Tensor::Empty({static_cast<int64_t>(indices.size())},
                           DType::kInt64);
  int64_t* p = t.data<int64_t>();
  for (size_t i = 0; i < indices.size(); ++i) p[i] = indices[i];
  return t;
}

}  // namespace

Table::Table(std::string name, std::vector<std::string> column_names,
             std::vector<std::shared_ptr<const TableSegment>> segments,
             std::shared_ptr<const std::vector<bool>> deleted)
    : name_(std::move(name)),
      column_names_(std::move(column_names)),
      segments_(std::move(segments)),
      deleted_(std::move(deleted)) {
  for (const auto& seg : segments_) num_physical_rows_ += seg->num_rows;
  num_rows_ = num_physical_rows_;
  if (deleted_ != nullptr) {
    for (bool d : *deleted_) num_rows_ -= d ? 1 : 0;
  }
  if (segments_.size() == 1 && deleted_ == nullptr) {
    // Zero-copy live view: the single segment IS the live view.
    live_columns_ = segments_[0]->columns;
    live_ready_.store(true, std::memory_order_release);
  }
}

StatusOr<std::shared_ptr<Table>> Table::Create(
    std::string name, std::vector<std::string> column_names,
    std::vector<Column> columns) {
  if (column_names.size() != columns.size()) {
    return Status::InvalidArgument("column name/data count mismatch");
  }
  if (columns.empty()) {
    return Status::InvalidArgument("table must have at least one column");
  }
  const int64_t rows = columns[0].length();
  for (size_t i = 0; i < columns.size(); ++i) {
    if (!columns[i].defined()) {
      return Status::InvalidArgument("undefined column: " + column_names[i]);
    }
    if (columns[i].length() != rows) {
      return Status::InvalidArgument(
          "column " + column_names[i] + " has " +
          std::to_string(columns[i].length()) + " rows, expected " +
          std::to_string(rows));
    }
    for (size_t j = i + 1; j < column_names.size(); ++j) {
      if (EqualsIgnoreCase(column_names[i], column_names[j])) {
        return Status::InvalidArgument("duplicate column name: " +
                                       column_names[i]);
      }
    }
  }
  auto segment = std::make_shared<TableSegment>();
  segment->columns = std::move(columns);
  segment->num_rows = rows;
  return std::shared_ptr<Table>(new Table(
      std::move(name), std::move(column_names), {std::move(segment)},
      nullptr));
}

void Table::EnsureLiveView() const {
  if (live_ready_.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(live_mu_);
  if (live_ready_.load(std::memory_order_relaxed)) return;
  BuildLiveView();
  live_ready_.store(true, std::memory_order_release);
}

void Table::BuildLiveView() const {
  if (deleted_ != nullptr) {
    live_to_physical_.reserve(static_cast<size_t>(num_rows_));
    for (int64_t p = 0; p < num_physical_rows_; ++p) {
      if (!IsDeleted(p)) live_to_physical_.push_back(p);
    }
    if (static_cast<int64_t>(live_to_physical_.size()) ==
        num_physical_rows_) {
      live_to_physical_.clear();  // bitmap held no set bits: identity
    }
  }
  // An empty mapping is ambiguous: it means identity when every physical
  // row is live, but it is also the genuine mapping of a fully-deleted
  // table — only the row counts distinguish the two.
  const bool identity = num_rows_ == num_physical_rows_;
  const Tensor gather = identity ? Tensor() : IndexTensor(live_to_physical_);
  live_columns_.reserve(column_names_.size());
  std::vector<Column> parts;
  parts.reserve(segments_.size());
  for (size_t c = 0; c < column_names_.size(); ++c) {
    parts.clear();
    for (const auto& seg : segments_) parts.push_back(seg->columns[c]);
    Column physical = ConcatColumnParts(parts);
    live_columns_.push_back(gather.defined() ? physical.Select(gather)
                                             : std::move(physical));
  }
}

const Column& Table::column(int64_t i) const {
  EnsureLiveView();
  return live_columns_[static_cast<size_t>(i)];
}

StatusOr<int64_t> Table::ColumnIndex(const std::string& column_name) const {
  for (size_t i = 0; i < column_names_.size(); ++i) {
    if (EqualsIgnoreCase(column_names_[i], column_name)) {
      return static_cast<int64_t>(i);
    }
  }
  return Status::NotFound("column not found: " + column_name + " in table " +
                          name_);
}

Column Table::PhysicalColumn(int64_t i) const {
  std::vector<Column> parts;
  parts.reserve(segments_.size());
  for (const auto& seg : segments_) {
    parts.push_back(seg->columns[static_cast<size_t>(i)]);
  }
  return ConcatColumnParts(parts);
}

std::vector<int64_t> Table::MapPhysicalToLive(
    const std::vector<int64_t>& physical) const {
  if (!has_deletes()) return physical;
  EnsureLiveView();
  std::vector<int64_t> live;
  live.reserve(physical.size());
  for (int64_t p : physical) {
    if (IsDeleted(p)) continue;
    const auto it = std::lower_bound(live_to_physical_.begin(),
                                     live_to_physical_.end(), p);
    TDP_DCHECK(it != live_to_physical_.end() && *it == p);
    live.push_back(it - live_to_physical_.begin());
  }
  return live;
}

std::vector<int64_t> Table::MapLiveToPhysical(
    const std::vector<int64_t>& live) const {
  if (!has_deletes()) return live;
  EnsureLiveView();
  std::vector<int64_t> physical;
  physical.reserve(live.size());
  for (int64_t pos : live) {
    physical.push_back(live_to_physical_[static_cast<size_t>(pos)]);
  }
  return physical;
}

StatusOr<std::shared_ptr<Table>> Table::WithAppended(
    std::vector<Column> rows) const {
  if (rows.size() != column_names_.size()) {
    return Status::InvalidArgument(
        "INSERT into " + name_ + " supplies " +
        std::to_string(rows.size()) + " columns, table has " +
        std::to_string(column_names_.size()));
  }
  const int64_t added = rows[0].length();
  if (added <= 0) {
    return Status::InvalidArgument("INSERT must append at least one row");
  }
  const TableSegment& tail = *segments_.back();
  for (size_t c = 0; c < rows.size(); ++c) {
    const Column& existing = tail.columns[c];
    const Column& incoming = rows[c];
    if (!incoming.defined() || incoming.length() != added) {
      return Status::InvalidArgument("INSERT column " + column_names_[c] +
                                     " row-count mismatch");
    }
    if (incoming.encoding() != existing.encoding()) {
      return Status::InvalidArgument(
          "INSERT column " + column_names_[c] + " encoding mismatch: " +
          std::string(EncodingName(incoming.encoding())) + " vs " +
          std::string(EncodingName(existing.encoding())));
    }
    if (incoming.encoding() == Encoding::kPlain) {
      if (incoming.data().dtype() != existing.data().dtype() ||
          incoming.data().dim() != existing.data().dim()) {
        return Status::InvalidArgument("INSERT column " + column_names_[c] +
                                       " type mismatch");
      }
      for (int64_t d = 1; d < existing.data().dim(); ++d) {
        if (incoming.data().size(d) != existing.data().size(d)) {
          return Status::InvalidArgument(
              "INSERT column " + column_names_[c] + " shape mismatch");
        }
      }
    }
    if (incoming.encoding() == Encoding::kProbability &&
        incoming.domain() != existing.domain()) {
      return Status::InvalidArgument("INSERT column " + column_names_[c] +
                                     " probability-domain mismatch");
    }
  }
  std::vector<std::shared_ptr<const TableSegment>> segments = segments_;
  auto segment = std::make_shared<TableSegment>();
  if (tail.num_rows < kSegmentTargetRows) {
    // Clone-and-extend the tail; all earlier segments are shared.
    segment->num_rows = tail.num_rows + added;
    segment->columns.reserve(rows.size());
    for (size_t c = 0; c < rows.size(); ++c) {
      segment->columns.push_back(
          ConcatColumnParts({tail.columns[c], std::move(rows[c])}));
    }
    segments.back() = std::move(segment);
  } else {
    // Full tail: the new rows start a fresh segment.
    segment->num_rows = added;
    segment->columns = std::move(rows);
    segments.push_back(std::move(segment));
  }
  return std::shared_ptr<Table>(
      new Table(name_, column_names_, std::move(segments), deleted_));
}

StatusOr<std::shared_ptr<Table>> Table::WithDeleted(
    const std::vector<int64_t>& live_positions) const {
  EnsureLiveView();
  auto bitmap = deleted_ != nullptr
                    ? std::make_shared<std::vector<bool>>(*deleted_)
                    : std::make_shared<std::vector<bool>>();
  bitmap->resize(static_cast<size_t>(num_physical_rows_), false);
  for (int64_t pos : live_positions) {
    if (pos < 0 || pos >= num_rows_) {
      return Status::InvalidArgument("DELETE position out of range: " +
                                     std::to_string(pos));
    }
    const int64_t physical =
        live_to_physical_.empty()
            ? pos
            : live_to_physical_[static_cast<size_t>(pos)];
    (*bitmap)[static_cast<size_t>(physical)] = true;
  }
  return std::shared_ptr<Table>(
      new Table(name_, column_names_, segments_, std::move(bitmap)));
}

StatusOr<std::shared_ptr<Table>> Table::WithUpdated(
    const std::vector<int64_t>& live_positions,
    const std::vector<std::pair<int64_t, Column>>& updates) const {
  EnsureLiveView();
  const int64_t updated = static_cast<int64_t>(live_positions.size());
  for (int64_t pos : live_positions) {
    if (pos < 0 || pos >= num_rows_) {
      return Status::InvalidArgument("UPDATE position out of range: " +
                                     std::to_string(pos));
    }
  }
  std::vector<Column> columns = live_columns_;
  for (const auto& [col, values] : updates) {
    if (col < 0 || col >= num_columns()) {
      return Status::InvalidArgument("UPDATE column index out of range");
    }
    const Column& old = columns[static_cast<size_t>(col)];
    const std::string& col_name = column_names_[static_cast<size_t>(col)];
    if (!values.defined() || values.length() != updated) {
      return Status::InvalidArgument("UPDATE column " + col_name +
                                     " value-count mismatch");
    }
    if (values.encoding() != old.encoding()) {
      return Status::InvalidArgument("UPDATE column " + col_name +
                                     " encoding mismatch");
    }
    Column rebuilt;
    switch (old.encoding()) {
      case Encoding::kDictionary: {
        std::vector<std::string> strings = old.DecodeStrings();
        const std::vector<std::string> incoming = values.DecodeStrings();
        for (int64_t j = 0; j < updated; ++j) {
          strings[static_cast<size_t>(
              live_positions[static_cast<size_t>(j)])] =
              incoming[static_cast<size_t>(j)];
        }
        rebuilt = Column::FromStrings(strings);
        break;
      }
      case Encoding::kProbability:
        return Status::InvalidArgument(
            "UPDATE of probability-encoded columns is not supported");
      case Encoding::kPlain: {
        if (values.data().dtype() != old.data().dtype() ||
            values.data().dim() != old.data().dim()) {
          return Status::InvalidArgument("UPDATE column " + col_name +
                                         " type mismatch");
        }
        // Merge by gather: row i pulls from the old column unless updated,
        // in which case it pulls its replacement from the appended block.
        std::vector<int64_t> gather(static_cast<size_t>(num_rows_));
        for (int64_t i = 0; i < num_rows_; ++i) {
          gather[static_cast<size_t>(i)] = i;
        }
        for (int64_t j = 0; j < updated; ++j) {
          gather[static_cast<size_t>(
              live_positions[static_cast<size_t>(j)])] = num_rows_ + j;
        }
        rebuilt = Column::Concat({old, values}).Select(IndexTensor(gather));
        break;
      }
    }
    columns[static_cast<size_t>(col)] = std::move(rebuilt);
  }
  auto segment = std::make_shared<TableSegment>();
  segment->columns = std::move(columns);
  segment->num_rows = num_rows_;
  return std::shared_ptr<Table>(new Table(name_, column_names_,
                                          {std::move(segment)}, nullptr));
}

std::shared_ptr<Table> Table::To(Device device) const {
  std::vector<Column> moved;
  moved.reserve(column_names_.size());
  for (size_t i = 0; i < column_names_.size(); ++i) {
    moved.push_back(column(static_cast<int64_t>(i)).To(device));
  }
  auto result = Create(name_, column_names_, std::move(moved));
  TDP_CHECK(result.ok());
  return std::move(result).value();
}

std::string Table::ToString(int64_t max_rows) const {
  std::ostringstream os;
  os << name_ << " (" << num_rows_ << " rows)\n";
  for (size_t i = 0; i < column_names_.size(); ++i) {
    if (i > 0) os << " | ";
    os << column_names_[i];
  }
  os << "\n";
  const int64_t shown = std::min<int64_t>(max_rows, num_rows_);
  // Pre-decode dictionary columns once. Integer and bool plain columns
  // print from their typed values: `At()` returns a double, which would
  // round int64 values past 2^53 and print 7+ digits in exponent form.
  std::vector<std::vector<std::string>> decoded(column_names_.size());
  std::vector<std::vector<int64_t>> exact(column_names_.size());
  for (size_t c = 0; c < column_names_.size(); ++c) {
    const Column& col = column(static_cast<int64_t>(c));
    if (col.encoding() == Encoding::kDictionary) {
      decoded[c] = col.DecodeStrings();
    } else if (col.encoding() == Encoding::kPlain && col.data().dim() == 1 &&
               col.data().dtype() != DType::kFloat32 &&
               col.data().dtype() != DType::kFloat64) {
      exact[c] = Slice(col.data(), 0, 0, shown)
                     .To(DType::kInt64)
                     .ToVector<int64_t>();
    }
  }
  for (int64_t r = 0; r < shown; ++r) {
    for (size_t c = 0; c < column_names_.size(); ++c) {
      if (c > 0) os << " | ";
      const Column& col = column(static_cast<int64_t>(c));
      if (col.encoding() == Encoding::kDictionary) {
        os << decoded[c][static_cast<size_t>(r)];
      } else if (!exact[c].empty()) {
        os << exact[c][static_cast<size_t>(r)];
      } else if (col.IsTensorColumn()) {
        os << "<tensor " << ShapeToString(col.data().shape()) << " row>";
      } else if (col.encoding() == Encoding::kProbability) {
        os << "<pe " << col.data().size(1) << " classes>";
      } else {
        os << col.data().At({r});
      }
    }
    os << "\n";
  }
  if (shown < num_rows_) os << "... (" << num_rows_ - shown << " more)\n";
  return os.str();
}

TableBuilder& TableBuilder::AddFloat32(const std::string& column_name,
                                       const std::vector<float>& values) {
  return AddColumn(column_name, Column::Plain(Tensor::FromVector(values)));
}

TableBuilder& TableBuilder::AddFloat64(const std::string& column_name,
                                       const std::vector<double>& values) {
  return AddColumn(column_name, Column::Plain(Tensor::FromVector(values)));
}

TableBuilder& TableBuilder::AddInt64(const std::string& column_name,
                                     const std::vector<int64_t>& values) {
  return AddColumn(column_name, Column::Plain(Tensor::FromVector(values)));
}

TableBuilder& TableBuilder::AddBool(const std::string& column_name,
                                    const std::vector<bool>& values) {
  Tensor t = Tensor::Empty({static_cast<int64_t>(values.size())},
                           DType::kBool);
  bool* p = t.data<bool>();
  for (size_t i = 0; i < values.size(); ++i) p[i] = values[i];
  return AddColumn(column_name, Column::Plain(std::move(t)));
}

TableBuilder& TableBuilder::AddStrings(const std::string& column_name,
                                       const std::vector<std::string>& values) {
  return AddColumn(column_name, Column::FromStrings(values));
}

TableBuilder& TableBuilder::AddTensor(const std::string& column_name,
                                      Tensor values) {
  return AddColumn(column_name, Column::Plain(std::move(values)));
}

TableBuilder& TableBuilder::AddColumn(const std::string& column_name,
                                      Column column) {
  column_names_.push_back(column_name);
  columns_.push_back(std::move(column));
  return *this;
}

StatusOr<std::shared_ptr<Table>> TableBuilder::Build(Device device) {
  TDP_ASSIGN_OR_RETURN(
      std::shared_ptr<Table> table,
      Table::Create(name_, std::move(column_names_), std::move(columns_)));
  if (device != Device::kCpu) return table->To(device);
  return table;
}

}  // namespace tdp
