#pragma once
// Row-band fan-out for the frame generators and reference filters.
//
// Each output row of make_scene, sobel_magnitude and erode/dilate is a
// pure function of the source image (or of (x, y, seed)), so splitting
// the rows into contiguous bands over a host ThreadPool cannot change a
// byte. Frames too small to repay a hand-off stay on the calling thread.

#include <algorithm>
#include <cstddef>

#include "ehw/common/thread_pool.hpp"
#include "ehw/img/image.hpp"

namespace ehw::img {

/// Pixels per band below which a frame is not split. Measured with
/// BM_MissionImages on a 4-thread pool (see ROADMAP "Where the time
/// goes"): 64 px frames (4096 px) stay serial; from 256 px (4 bands of
/// 16384 px) up the fan-out pays.
inline constexpr std::size_t kRowBandGrainPixels = 16384;

/// Runs body(y0, y1) over disjoint row bands covering [0, height): one
/// band per pool worker, each at least kRowBandGrainPixels, or the whole
/// frame on the calling thread when `pool` is null or the frame is small.
template <typename Body>
void for_row_bands(ThreadPool* pool, std::size_t width, std::size_t height,
                   Body&& body) {
  const std::size_t bands =
      pool == nullptr
          ? 1
          : std::min({pool->size(), height,
                      width * height / kRowBandGrainPixels});
  if (bands <= 1) {
    body(std::size_t{0}, height);
    return;
  }
  pool->parallel_chunks(0, bands, [&](std::size_t lo, std::size_t hi) {
    body(lo * height / bands, hi * height / bands);
  });
}

/// Calls kernel(up, mid, down, y) for each row y in [y0, y1), with the
/// rows above and below clamped at the frame's top and bottom edges (the
/// border replication of gather_window3x3).
template <typename Kernel>
void for_window_rows(const Image& src, std::size_t y0, std::size_t y1,
                     Kernel&& kernel) {
  const std::size_t last = src.height() - 1;
  for (std::size_t y = y0; y < y1; ++y) {
    kernel(src.row(y == 0 ? 0 : y - 1), src.row(y),
           src.row(y == last ? last : y + 1), y);
  }
}

/// Calls at(left, x, right) for each x in [0, width), with the neighbour
/// columns clamped at the frame's left and right edges. The interior loop
/// has no branches, so `at` can vectorize there.
template <typename At>
void for_clamped_columns(std::size_t width, At&& at) {
  const std::size_t last = width - 1;
  at(std::size_t{0}, std::size_t{0}, std::min<std::size_t>(1, last));
  for (std::size_t x = 1; x < last; ++x) at(x - 1, x, x + 1);
  if (last > 0) at(last - 1, last, last);
}

}  // namespace ehw::img
