#include "graph/solution.h"

#include <algorithm>
#include <bit>

#include "common/check.h"
#include "common/hash.h"

namespace ids::graph {

SolutionTable::SolutionTable(std::vector<std::string> id_vars,
                             std::vector<std::string> num_vars)
    : id_vars_(std::move(id_vars)),
      num_vars_(std::move(num_vars)),
      id_cols_(id_vars_.size()),
      num_cols_(num_vars_.size()) {}

int SolutionTable::id_var_index(std::string_view name) const {
  for (std::size_t i = 0; i < id_vars_.size(); ++i) {
    if (id_vars_[i] == name) return static_cast<int>(i);
  }
  return -1;
}

int SolutionTable::num_var_index(std::string_view name) const {
  for (std::size_t i = 0; i < num_vars_.size(); ++i) {
    if (num_vars_[i] == name) return static_cast<int>(i);
  }
  return -1;
}

void SolutionTable::reserve(std::size_t rows) {
  for (auto& c : id_cols_) c.reserve(rows);
  for (auto& c : num_cols_) c.reserve(rows);
}

void SolutionTable::append_row(std::span<const TermId> ids,
                               std::span<const double> nums) {
  IDS_DCHECK(ids.size() == id_cols_.size());
  IDS_DCHECK(nums.size() == num_cols_.size() ||
             (nums.empty() && num_cols_.empty()));
  for (std::size_t i = 0; i < id_cols_.size(); ++i) id_cols_[i].push_back(ids[i]);
  for (std::size_t i = 0; i < num_cols_.size(); ++i) {
    num_cols_[i].push_back(i < nums.size() ? nums[i] : 0.0);
  }
}

void SolutionTable::append_table(const SolutionTable& other) {
  IDS_CHECK(same_schema(other));
  for (std::size_t i = 0; i < id_cols_.size(); ++i) {
    id_cols_[i].insert(id_cols_[i].end(), other.id_cols_[i].begin(),
                       other.id_cols_[i].end());
  }
  for (std::size_t i = 0; i < num_cols_.size(); ++i) {
    num_cols_[i].insert(num_cols_[i].end(), other.num_cols_[i].begin(),
                        other.num_cols_[i].end());
  }
}

void SolutionTable::append_row_from(const SolutionTable& other,
                                    std::size_t row) {
  IDS_DCHECK(same_schema(other));
  for (std::size_t i = 0; i < id_cols_.size(); ++i) {
    id_cols_[i].push_back(other.id_cols_[i][row]);
  }
  for (std::size_t i = 0; i < num_cols_.size(); ++i) {
    num_cols_[i].push_back(other.num_cols_[i][row]);
  }
}

namespace {

template <typename T>
void gather_append(std::vector<T>* dst, const std::vector<T>& src,
                   std::span<const RowIndex> rows) {
  const std::size_t base = dst->size();
  dst->resize(base + rows.size());
  T* out = dst->data() + base;
  const T* in = src.data();
  for (std::size_t i = 0; i < rows.size(); ++i) out[i] = in[rows[i]];
}

}  // namespace

void SolutionTable::append_rows_from(const SolutionTable& other,
                                     std::span<const RowIndex> rows) {
  IDS_CHECK(same_schema(other));
  for (std::size_t i = 0; i < id_cols_.size(); ++i) {
    gather_append(&id_cols_[i], other.id_cols_[i], rows);
  }
  for (std::size_t i = 0; i < num_cols_.size(); ++i) {
    gather_append(&num_cols_[i], other.num_cols_[i], rows);
  }
}

void SolutionTable::append_row_range_from(const SolutionTable& other,
                                          std::size_t begin, std::size_t end) {
  IDS_CHECK(same_schema(other));
  IDS_CHECK(begin <= end && end <= other.num_rows());
  for (std::size_t i = 0; i < id_cols_.size(); ++i) {
    const auto& src = other.id_cols_[i];
    id_cols_[i].insert(id_cols_[i].end(),
                       src.begin() + static_cast<std::ptrdiff_t>(begin),
                       src.begin() + static_cast<std::ptrdiff_t>(end));
  }
  for (std::size_t i = 0; i < num_cols_.size(); ++i) {
    const auto& src = other.num_cols_[i];
    num_cols_[i].insert(num_cols_[i].end(),
                        src.begin() + static_cast<std::ptrdiff_t>(begin),
                        src.begin() + static_cast<std::ptrdiff_t>(end));
  }
}

void SolutionTable::append_prefix_from(const SolutionTable& other,
                                       std::span<const RowIndex> rows) {
  IDS_CHECK(other.id_vars_.size() <= id_vars_.size());
  IDS_CHECK(std::equal(other.id_vars_.begin(), other.id_vars_.end(),
                       id_vars_.begin()));
  IDS_CHECK(num_vars_ == other.num_vars_);
  for (std::size_t i = 0; i < other.id_cols_.size(); ++i) {
    gather_append(&id_cols_[i], other.id_cols_[i], rows);
  }
  for (std::size_t i = 0; i < num_cols_.size(); ++i) {
    gather_append(&num_cols_[i], other.num_cols_[i], rows);
  }
}

void RowPartition::assign(std::span<const int> dst_of_row, int num_dsts) {
  IDS_CHECK(dst_of_row.size() < 0xffffffffull)
      << "row index space is 32-bit";
  num_dsts_ = static_cast<std::size_t>(num_dsts);
  // Between calls every count is 0 and no destination is marked, so a call
  // costs O(rows + num_dsts / 64): resizing keeps the zeros, and only the
  // destinations this call marks are visited and reset.
  count_.resize(num_dsts_);
  marked_.resize((num_dsts_ + 63) / 64);
  for (int d : dst_of_row) {
    const auto du = static_cast<std::size_t>(d);
    if (count_[du]++ == 0) marked_[du / 64] |= std::uint64_t{1} << (du % 64);
  }
  // Exclusive prefix sum over the marked destinations in ascending order;
  // each count becomes its group's first write slot.
  dsts_.clear();
  offsets_.clear();
  RowIndex next = 0;
  for (std::size_t w = 0; w < marked_.size(); ++w) {
    for (std::uint64_t bits = marked_[w]; bits != 0; bits &= bits - 1) {
      const std::size_t d =
          w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
      dsts_.push_back(static_cast<int>(d));
      offsets_.push_back(next);
      const RowIndex count = count_[d];
      count_[d] = next;
      next += count;
    }
    marked_[w] = 0;
  }
  offsets_.push_back(next);
  rows_.resize(dst_of_row.size());
  for (std::size_t r = 0; r < dst_of_row.size(); ++r) {
    rows_[count_[static_cast<std::size_t>(dst_of_row[r])]++] =
        static_cast<RowIndex>(r);
  }
  for (int d : dsts_) count_[static_cast<std::size_t>(d)] = 0;
}

RowPartition SolutionTable::partition_rows(std::span<const int> dst_of_row,
                                           int num_dsts) {
  RowPartition out;
  out.assign(dst_of_row, num_dsts);
  return out;
}

std::vector<SolutionTable> exchange_by_key(
    std::span<const SolutionTable> parts, int key_col, int num_dsts,
    const ExchangeGroupFn& on_group) {
  IDS_CHECK(!parts.empty());
  std::vector<SolutionTable> out(static_cast<std::size_t>(num_dsts),
                                 parts[0].empty_like());
  std::vector<int> dsts;
  RowPartition partition;
  for (std::size_t src = 0; src < parts.size(); ++src) {
    const SolutionTable& table = parts[src];
    const auto& keys = table.id_col(key_col);
    dsts.resize(keys.size());
    for (std::size_t row = 0; row < keys.size(); ++row) {
      dsts[row] = shard_of(keys[row], num_dsts);
    }
    partition.assign(dsts, num_dsts);
    for (std::size_t i = 0; i < partition.dsts().size(); ++i) {
      const int dst = partition.dsts()[i];
      const auto rows = partition.rows(i);
      out[static_cast<std::size_t>(dst)].append_rows_from(table, rows);
      if (on_group && dst != static_cast<int>(src)) {
        on_group(static_cast<int>(src), dst, rows.size());
      }
    }
  }
  return out;
}

int SolutionTable::add_num_var(std::string name) {
  IDS_CHECK(num_var_index(name) < 0) << "duplicate numeric variable " << name;
  num_vars_.push_back(std::move(name));
  num_cols_.emplace_back(num_rows(), 0.0);
  return static_cast<int>(num_vars_.size() - 1);
}

void SolutionTable::filter_rows(const std::vector<char>& keep) {
  IDS_CHECK(keep.size() == num_rows());
  auto compact = [&keep](auto& col) {
    std::size_t w = 0;
    for (std::size_t r = 0; r < col.size(); ++r) {
      if (keep[r]) col[w++] = col[r];
    }
    col.resize(w);
  };
  for (auto& c : id_cols_) compact(c);
  for (auto& c : num_cols_) compact(c);
}

void SolutionTable::truncate(std::size_t n) {
  if (n >= num_rows()) return;
  for (auto& c : id_cols_) c.resize(n);
  for (auto& c : num_cols_) c.resize(n);
}

SolutionTable SolutionTable::take_rows(std::span<const std::size_t> rows) const {
  SolutionTable out = empty_like();
  auto gather = [&rows](auto* dst, const auto& src) {
    dst->resize(rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i) (*dst)[i] = src[rows[i]];
  };
  for (std::size_t i = 0; i < id_cols_.size(); ++i) {
    gather(&out.id_cols_[i], id_cols_[i]);
  }
  for (std::size_t i = 0; i < num_cols_.size(); ++i) {
    gather(&out.num_cols_[i], num_cols_[i]);
  }
  return out;
}

SolutionTable SolutionTable::empty_like() const {
  return SolutionTable(id_vars_, num_vars_);
}

void SolutionTable::clear() {
  for (auto& c : id_cols_) c.clear();
  for (auto& c : num_cols_) c.clear();
}

}  // namespace ids::graph
