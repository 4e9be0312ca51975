// 3-D data cubes.
//
// A CPI arrives as a K x J x N complex cube (range cells x channels x
// pulses) that is "corner turned" so pulses are unit stride — exactly the
// layout the paper's special interface boards produce to speed Doppler
// processing. Every STAP stage consumes and produces cubes; which dimension
// is unit stride and which dimension is partitioned across a task's nodes is
// the crux of the paper's redistribution analysis (Figs. 5-9).
#pragma once

#include <array>
#include <span>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"

namespace ppstap::cube {

/// Dense 3-D array, row-major: element (i, j, k) lives at i*n1*n2 + j*n2 + k,
/// so dimension 2 is unit stride.
template <typename T>
class Cube {
 public:
  Cube() : n_{0, 0, 0} {}
  Cube(index_t n0, index_t n1, index_t n2) : n_{n0, n1, n2} {
    PPSTAP_REQUIRE(n0 >= 0 && n1 >= 0 && n2 >= 0,
                   "cube extents must be nonnegative");
    data_.assign(static_cast<size_t>(n0 * n1 * n2), T{});
  }

  index_t extent(int dim) const { return n_[static_cast<size_t>(dim)]; }
  index_t size() const { return n_[0] * n_[1] * n_[2]; }

  T& at(index_t i, index_t j, index_t k) {
    return data_[static_cast<size_t>((i * n_[1] + j) * n_[2] + k)];
  }
  const T& at(index_t i, index_t j, index_t k) const {
    return data_[static_cast<size_t>((i * n_[1] + j) * n_[2] + k)];
  }

  /// The unit-stride line (i, j, *) — e.g. all pulses of one range/channel.
  std::span<T> line(index_t i, index_t j) {
    return {data_.data() + (i * n_[1] + j) * n_[2],
            static_cast<size_t>(n_[2])};
  }
  std::span<const T> line(index_t i, index_t j) const {
    return {data_.data() + (i * n_[1] + j) * n_[2],
            static_cast<size_t>(n_[2])};
  }

  T* data() { return data_.data(); }
  const T* data() const { return data_.data(); }

  std::array<index_t, 3> extents() const { return n_; }

  bool same_shape(const Cube& o) const { return n_ == o.n_; }

 private:
  std::array<index_t, 3> n_;
  std::vector<T> data_;
};

using CpiCube = Cube<cfloat>;   // raw & Doppler-filtered data
using RealCube = Cube<float>;   // post-detection power domain

/// Read-only view of rows [begin, end) of a cube along dimension 0, read
/// in place: only the lines of those rows are reachable through it (a
/// streamed CPI hands its consumers the rows it has finished this way).
template <typename T>
class ConstRows {
 public:
  ConstRows(const Cube<T>& c, index_t begin, index_t end)
      : c_(&c), begin_(begin), end_(end) {
    PPSTAP_REQUIRE(begin >= 0 && begin <= end && end <= c.extent(0),
                   "row range must lie inside the cube");
  }
  /// Every row of `c`.
  explicit ConstRows(const Cube<T>& c) : ConstRows(c, 0, c.extent(0)) {}

  index_t begin() const { return begin_; }
  index_t end() const { return end_; }
  /// Rows in the view along dimension 0; the cube's extents otherwise.
  index_t extent(int dim) const {
    return dim == 0 ? end_ - begin_ : c_->extent(dim);
  }

  /// The unit-stride line (k, j, *) of cube row k, begin() <= k < end().
  std::span<const T> line(index_t k, index_t j) const {
    PPSTAP_CHECK(k >= begin_ && k < end_, "row outside the view");
    return c_->line(k, j);
  }

 private:
  const Cube<T>* c_;
  index_t begin_, end_;
};

/// Copy the subcube starting at `lo` with extents `len` into a contiguous
/// buffer (row-major in the subcube's own extents). Returns the number of
/// elements written. This is the "data collection" step the paper performs
/// before inter-task communication; its cost (non-contiguous reads) is what
/// the paper attributes cache-miss overhead to.
template <typename T>
index_t pack_subcube(const Cube<T>& c, std::array<index_t, 3> lo,
                     std::array<index_t, 3> len, std::span<T> out);

/// Inverse of pack_subcube: scatter a contiguous buffer into the subcube at
/// `lo` with extents `len`.
template <typename T>
void unpack_subcube(Cube<T>& c, std::array<index_t, 3> lo,
                    std::array<index_t, 3> len, std::span<const T> in);

/// Permuted copy: out dims are (extent(perm[0]), extent(perm[1]),
/// extent(perm[2])) and out(i0, i1, i2) = in at the corresponding original
/// indices. perm = {2, 0, 1} turns a K x 2J x N cube into an N x K x 2J cube
/// — the reorganization of paper Fig. 8.
template <typename T>
Cube<T> permute(const Cube<T>& in, std::array<int, 3> perm);

extern template index_t pack_subcube<cfloat>(const Cube<cfloat>&,
                                             std::array<index_t, 3>,
                                             std::array<index_t, 3>,
                                             std::span<cfloat>);
extern template index_t pack_subcube<float>(const Cube<float>&,
                                            std::array<index_t, 3>,
                                            std::array<index_t, 3>,
                                            std::span<float>);
extern template void unpack_subcube<cfloat>(Cube<cfloat>&,
                                            std::array<index_t, 3>,
                                            std::array<index_t, 3>,
                                            std::span<const cfloat>);
extern template void unpack_subcube<float>(Cube<float>&,
                                           std::array<index_t, 3>,
                                           std::array<index_t, 3>,
                                           std::span<const float>);
extern template Cube<cfloat> permute<cfloat>(const Cube<cfloat>&,
                                             std::array<int, 3>);
extern template Cube<float> permute<float>(const Cube<float>&,
                                           std::array<int, 3>);

}  // namespace ppstap::cube
