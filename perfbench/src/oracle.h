// Result oracle: a reference table per query kind, in a canonical form
// that checks a result in one hash pass.
//
// exec::TablesEqualUnordered sorts both tables by a formatted row key; on
// Q3's ~38k rows at SF 0.1 that costs longer than the query, which would
// throttle the closed loop. The oracle instead indexes the reference rows
// by a hash of their exact (integer and string) columns once, at set-up,
// and matches each result row against an unused reference row with equal
// exact columns and doubles within a relative tolerance — the same
// acceptance rule as TablesEqualUnordered (|x - y| <= eps * max(|x|, |y|,
// 1)), since partial sums reassociate differently across nodes.
#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "storage/table.h"

namespace perfbench {

class ResultOracle {
 public:
  ResultOracle(std::shared_ptr<const eedc::storage::Table> reference,
               double eps);

  /// True when `result` holds the reference's row multiset. On a miss,
  /// `diff` names the first difference found.
  bool Matches(const eedc::storage::Table& result, std::string* diff) const;

 private:
  std::uint64_t RowHash(const eedc::storage::Table& t, std::size_t row) const;
  bool RowsEqual(const eedc::storage::Table& t, std::size_t row,
                 std::size_t ref_row) const;

  std::shared_ptr<const eedc::storage::Table> reference_;
  double eps_;
  /// Exact-column hash -> reference rows carrying it.
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
