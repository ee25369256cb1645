#pragma once

// Columnar solution tables.
//
// Intermediate query results ("solutions" in SPARQL terminology) bind
// variables to term ids, plus optionally to computed numeric values (UDF
// scores such as Smith-Waterman similarity or predicted binding affinity).
// Tables are columnar: appends and scans over one variable are cache
// friendly, and redistribution packs rows densely.

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/thread_annotations.h"
#include "graph/dictionary.h"

namespace ids::graph {

/// Row position within one solution table part. 32-bit on purpose: the
/// gather/partition kernels stream index lists at memory bandwidth, and
/// halving the index width halves that traffic. Per-part row counts stay
/// far below 2^32 (parts are per-rank slices of an in-memory table).
using RowIndex = std::uint32_t;

/// Row positions of one table grouped by destination, in CSR form: every
/// row index, grouped by destination and ascending within a group, in one
/// array, plus the ascending list of destinations that received rows and
/// where each group starts. The index groups feed append_rows_from, turning
/// a row-at-a-time shuffle into one gather per (source, destination) pair;
/// destinations that received nothing are never stored or visited.
class RowPartition {
 public:
  /// Regroups rows by destination (dst_of_row[r] in [0, num_dsts)) with a
  /// counting sort, reusing this partition's buffers. Costs O(rows +
  /// num_dsts / 64): a bitmap, not a scan of every destination, finds the
  /// non-empty ones.
  void assign(std::span<const int> dst_of_row, int num_dsts)
      IDS_INVALIDATES(rows_);

  /// Number of destinations partitioned over, including empty ones.
  std::size_t size() const { return num_dsts_; }

  /// Destinations that received at least one row, ascending.
  std::span<const int> dsts() const { return dsts_; }

  /// Rows sent to dsts()[i], ascending.
  std::span<const RowIndex> rows(std::size_t i) const {
    return std::span<const RowIndex>(rows_).subspan(
        offsets_[i], offsets_[i + 1] - offsets_[i]);
  }

 private:
  std::size_t num_dsts_ = 0;
  std::vector<int> dsts_;
  std::vector<RowIndex> offsets_;  // dsts_.size() + 1 group bounds in rows_
  std::vector<RowIndex> rows_;
  // Scratch, all zero between calls: per-destination count (then write
  // slot) and the bitmap of destinations that received rows.
  std::vector<RowIndex> count_;
  std::vector<std::uint64_t> marked_;
};

class SolutionTable {
 public:
  SolutionTable() = default;

  /// Schema: named id-typed variables and named double-typed variables.
  explicit SolutionTable(std::vector<std::string> id_vars,
                         std::vector<std::string> num_vars = {});

  const std::vector<std::string>& id_vars() const { return id_vars_; }
  const std::vector<std::string>& num_vars() const { return num_vars_; }

  /// Index of an id variable, or -1.
  int id_var_index(std::string_view name) const;
  /// Index of a numeric variable, or -1.
  int num_var_index(std::string_view name) const;

  std::size_t num_rows() const {
    return id_cols_.empty() ? (num_cols_.empty() ? 0 : num_cols_[0].size())
                            : id_cols_[0].size();
  }

  void reserve(std::size_t rows) IDS_INVALIDATES(id_cols_);

  /// Appends one row; `ids` and `nums` must match the schema arity.
  void append_row(std::span<const TermId> ids, std::span<const double> nums = {})
      IDS_INVALIDATES(id_cols_);

  /// Appends all rows of `other` (same schema required).
  void append_table(const SolutionTable& other) IDS_INVALIDATES(id_cols_);

  /// Appends row `row` of `other` (same schema required).
  void append_row_from(const SolutionTable& other, std::size_t row)
      IDS_INVALIDATES(id_cols_);

  // ---- Batch kernels ------------------------------------------------------
  // Column-at-a-time row movement: one pass per column instead of one
  // schema-length pass per row, so appends run as contiguous gathers /
  // memcpys instead of pointer-chasing push_backs.

  /// Gather-appends `other`'s rows at the given positions, in order (same
  /// schema required). Equivalent to append_row_from in a loop.
  void append_rows_from(const SolutionTable& other,
                        std::span<const RowIndex> rows)
      IDS_INVALIDATES(id_cols_);

  /// Bulk-appends the contiguous row range [begin, end) of `other` (same
  /// schema required); each column is one range insert.
  void append_row_range_from(const SolutionTable& other, std::size_t begin,
                             std::size_t end) IDS_INVALIDATES(id_cols_);

  /// Gather-appends only the columns `other` shares with this table:
  /// other's id variables must be a *prefix* of this table's id variables
  /// and the numeric schemas must match. The trailing id columns are left
  /// untouched — the caller (a join/extend kernel producing new bindings)
  /// must append to them via id_col_mut() until all columns are equal
  /// length again.
  void append_prefix_from(const SolutionTable& other,
                          std::span<const RowIndex> rows)
      IDS_INVALIDATES(id_cols_);

  /// Splits row positions by destination (see RowPartition). The row
  /// exchange (exchange_by_key) reuses one RowPartition via assign().
  static RowPartition partition_rows(std::span<const int> dst_of_row,
                                     int num_dsts);

  /// Mutable column access for batch kernels that write new bindings
  /// directly (see append_prefix_from). Callers must leave every column at
  /// the same length.
  std::vector<TermId>& id_col_mut(int var_idx) {
    return id_cols_[static_cast<std::size_t>(var_idx)];
  }
  std::vector<double>& num_col_mut(int var_idx) {
    return num_cols_[static_cast<std::size_t>(var_idx)];
  }

  TermId id_at(std::size_t row, int var_idx) const {
    return id_cols_[static_cast<std::size_t>(var_idx)][row];
  }
  double num_at(std::size_t row, int var_idx) const {
    return num_cols_[static_cast<std::size_t>(var_idx)][row];
  }

  /// Full column access for tight loops.
  const std::vector<TermId>& id_col(int var_idx) const {
    return id_cols_[static_cast<std::size_t>(var_idx)];
  }
  const std::vector<double>& num_col(int var_idx) const {
    return num_cols_[static_cast<std::size_t>(var_idx)];
  }

  /// Adds a new numeric column (filled with 0.0 for existing rows) and
  /// returns its index; used when a FILTER stage materializes a score.
  int add_num_var(std::string name) IDS_INVALIDATES(num_cols_);

  void set_num(std::size_t row, int var_idx, double v) {
    num_cols_[static_cast<std::size_t>(var_idx)][row] = v;
  }

  /// Keeps only the rows whose flag is true (stable). flags.size() must
  /// equal num_rows().
  void filter_rows(const std::vector<char>& keep) IDS_INVALIDATES(id_cols_);

  /// Keeps only the first n rows (no-op if n >= num_rows()).
  void truncate(std::size_t n) IDS_INVALIDATES(id_cols_);

  /// Extracts the given rows into a new table with the same schema.
  SolutionTable take_rows(std::span<const std::size_t> rows) const;

  /// An empty table with the same schema.
  SolutionTable empty_like() const;

  void clear() IDS_INVALIDATES(id_cols_);

  /// Modeled size of one row in bytes, for communication costing.
  std::size_t row_bytes() const {
    return id_vars_.size() * sizeof(TermId) + num_vars_.size() * sizeof(double);
  }

  bool same_schema(const SolutionTable& other) const {
    return id_vars_ == other.id_vars_ && num_vars_ == other.num_vars_;
  }

 private:
  std::vector<std::string> id_vars_;
  std::vector<std::string> num_vars_;
  std::vector<std::vector<TermId>> id_cols_;
  std::vector<std::vector<double>> num_cols_;
};

/// Receives one non-empty (src, dst, rows) group of a row exchange whose
/// source and destination differ: the message an alltoallv would send.
using ExchangeGroupFn = std::function<void(int src, int dst, std::size_t rows)>;

/// The keyed row exchange: returns num_dsts tables, table d holding every
/// row of `parts` whose key_col id is owned by d under the placement rule
/// (ids::shard_of). Sources are visited in ascending order and each one's
/// rows are grouped by destination with one reused RowPartition, so a
/// destination receives its rows source-ascending, then row-ascending.
/// `on_group` (optional) is called once per non-empty src != dst group,
/// serially and in that same order; rows staying on their source travel
/// no link and are not reported.
std::vector<SolutionTable> exchange_by_key(
    std::span<const SolutionTable> parts, int key_col, int num_dsts,
    const ExchangeGroupFn& on_group = {});

}  // namespace ids::graph
