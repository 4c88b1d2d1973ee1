#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <functional>

namespace perfbench {

using eedc::storage::Column;
using eedc::storage::DataType;
using eedc::storage::Table;

ResultOracle::ResultOracle(std::shared_ptr<const Table> reference, double eps)
    : reference_(std::move(reference)), eps_(eps) {
  index_.reserve(reference_->num_rows());
  for (std::size_t r = 0; r < reference_->num_rows(); ++r) {
    index_[RowHash(*reference_, r)].push_back(r);
  }
}

std::uint64_t ResultOracle::RowHash(const Table& t, std::size_t row) const {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  };
  for (std::size_t c = 0; c < t.num_columns(); ++c) {
    const Column& col = t.column(c);
    switch (col.type()) {
      case DataType::kInt64:
        mix(static_cast<std::uint64_t>(col.Int64At(row)));
        break;
      case DataType::kString:
        mix(std::hash<std::string>{}(col.StringAt(row)));
        break;
      case DataType::kDouble:
        break;  // compared with tolerance, so not hashed
    }
  }
  return h;
}

bool ResultOracle::RowsEqual(const Table& t, std::size_t row,
                             std::size_t ref_row) const {
  for (std::size_t c = 0; c < t.num_columns(); ++c) {
    const Column& a = t.column(c);
    const Column& b = reference_->column(c);
    switch (a.type()) {
      case DataType::kInt64:
        if (a.Int64At(row) != b.Int64At(ref_row)) return false;
        break;
      case DataType::kString:
        if (a.StringAt(row) != b.StringAt(ref_row)) return false;
        break;
      case DataType::kDouble: {
        const double x = a.DoubleAt(row);
        const double y = b.DoubleAt(ref_row);
        const double scale = std::max({std::abs(x), std::abs(y), 1.0});
        if (!(std::abs(x - y) <= eps_ * scale)) return false;
        break;
      }
    }
  }
  return true;
}

bool ResultOracle::Matches(const Table& result, std::string* diff) const {
  const Table& ref = *reference_;
  if (result.num_columns() != ref.num_columns()) {
    *diff = "column count " + std::to_string(result.num_columns()) +
            " vs reference " + std::to_string(ref.num_columns());
    return false;
  }
  for (std::size_t c = 0; c < ref.num_columns(); ++c) {
    if (result.column(c).type() != ref.column(c).type()) {
      *diff = "column " + std::to_string(c) + " type differs";
      return false;
    }
  }
  if (result.num_rows() != ref.num_rows()) {
    *diff = "row count " + std::to_string(result.num_rows()) +
            " vs reference " + std::to_string(ref.num_rows());
    return false;
  }
  std::vector<char> used(ref.num_rows(), 0);
  for (std::size_t r = 0; r < result.num_rows(); ++r) {
    const auto it = index_.find(RowHash(result, r));
    bool matched = false;
    if (it != index_.end()) {
      for (const std::size_t ref_row : it->second) {
        if (used[ref_row] == 0 && RowsEqual(result, r, ref_row)) {
          used[ref_row] = 1;
          matched = true;
          break;
        }
      }
    }
    if (!matched) {
      *diff = "result row " + std::to_string(r) +
              " has no unmatched equal row in the reference";
      return false;
    }
  }
  return true;
}

}  // namespace perfbench
