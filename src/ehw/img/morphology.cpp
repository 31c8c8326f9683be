#include "ehw/img/morphology.hpp"

#include <algorithm>
#include <vector>

#include "ehw/img/row_bands.hpp"

namespace ehw::img {
namespace {

template <typename Select>
Image window_reduce(const Image& src, ThreadPool* pool, Select select) {
  Image out(src.width(), src.height());
  const std::size_t width = src.width();
  const auto rows = [&](std::size_t y0, std::size_t y1) {
    // min and max are associative and commutative: reduce each column of
    // the window first, then across the three columns.
    std::vector<Pixel> column(width);
    for_window_rows(src, y0, y1, [&](const Pixel* up, const Pixel* mid,
                                     const Pixel* down, std::size_t y) {
      for (std::size_t x = 0; x < width; ++x) {
        column[x] = select(select(up[x], mid[x]), down[x]);
      }
      Pixel* dst = out.row(y);
      for_clamped_columns(width, [&](std::size_t l, std::size_t x,
                                     std::size_t r) {
        dst[x] = select(select(column[l], column[x]), column[r]);
      });
    });
  };
  for_row_bands(pool, width, src.height(), rows);
  return out;
}

}  // namespace

Image erode3x3(const Image& src, ThreadPool* pool) {
  return window_reduce(src, pool,
                       [](Pixel a, Pixel b) { return std::min(a, b); });
}

Image dilate3x3(const Image& src, ThreadPool* pool) {
  return window_reduce(src, pool,
                       [](Pixel a, Pixel b) { return std::max(a, b); });
}

Image open3x3(const Image& src) { return dilate3x3(erode3x3(src)); }

Image close3x3(const Image& src) { return erode3x3(dilate3x3(src)); }

Image morph_gradient3x3(const Image& src) {
  const Image lo = erode3x3(src);
  const Image hi = dilate3x3(src);
  Image out(src.width(), src.height());
  for (std::size_t y = 0; y < out.height(); ++y) {
    const Pixel* ph = hi.row(y);
    const Pixel* pl = lo.row(y);
    Pixel* po = out.row(y);
    for (std::size_t x = 0; x < out.width(); ++x) {
      po[x] = static_cast<Pixel>(ph[x] - pl[x]);
    }
  }
  return out;
}

}  // namespace ehw::img
