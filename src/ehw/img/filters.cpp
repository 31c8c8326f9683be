#include "ehw/img/filters.hpp"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <vector>

#include "ehw/img/row_bands.hpp"

namespace ehw::img {

Image median3x3(const Image& src) {
  Image out(src.width(), src.height());
  Pixel win[9];
  for (std::size_t y = 0; y < src.height(); ++y) {
    for (std::size_t x = 0; x < src.width(); ++x) {
      gather_window3x3(src, x, y, win);
      std::array<Pixel, 9> sorted;
      std::copy(win, win + 9, sorted.begin());
      std::nth_element(sorted.begin(), sorted.begin() + 4, sorted.end());
      out.set(x, y, sorted[4]);
    }
  }
  return out;
}

Image mean3x3(const Image& src) {
  static constexpr int kKernel[9] = {1, 1, 1, 1, 1, 1, 1, 1, 1};
  return convolve3x3(src, kKernel, 9);
}

Image gaussian3x3(const Image& src) {
  static constexpr int kKernel[9] = {1, 2, 1, 2, 4, 2, 1, 2, 1};
  return convolve3x3(src, kKernel, 16);
}

Image sobel_magnitude(const Image& src, ThreadPool* pool) {
  Image out(src.width(), src.height());
  const std::size_t width = src.width();
  const auto rows = [&](std::size_t y0, std::size_t y1) {
    // The Sobel pair is separable: with smooth = up + 2*mid + down and
    // diff = down - up per column, Gx = smooth[r] - smooth[l] and
    // Gy = diff[l] + 2*diff[x] + diff[r]. Exact integer arithmetic, the
    // same sums as the 3x3 window form.
    std::vector<int> smooth(width);
    std::vector<int> diff(width);
    for_window_rows(src, y0, y1, [&](const Pixel* up, const Pixel* mid,
                                     const Pixel* down, std::size_t y) {
      for (std::size_t x = 0; x < width; ++x) {
        smooth[x] = up[x] + 2 * mid[x] + down[x];
        diff[x] = down[x] - up[x];
      }
      Pixel* dst = out.row(y);
      for_clamped_columns(width, [&](std::size_t l, std::size_t x,
                                     std::size_t r) {
        const int gx = smooth[r] - smooth[l];
        const int gy = diff[l] + 2 * diff[x] + diff[r];
        const int mag = std::abs(gx) + std::abs(gy);
        dst[x] = static_cast<Pixel>(std::min(mag, 255));
      });
    });
  };
  for_row_bands(pool, width, src.height(), rows);
  return out;
}

Image convolve3x3(const Image& src, const int kernel[9], int divisor,
                  int offset) {
  EHW_REQUIRE(divisor != 0, "divisor must be non-zero");
  Image out(src.width(), src.height());
  Pixel win[9];
  for (std::size_t y = 0; y < src.height(); ++y) {
    for (std::size_t x = 0; x < src.width(); ++x) {
      gather_window3x3(src, x, y, win);
      int acc = 0;
      for (int k = 0; k < 9; ++k) acc += kernel[k] * win[k];
      // Round-to-nearest for positive divisors keeps mean filters unbiased.
      const int v = offset + (acc + (acc >= 0 ? divisor / 2 : -divisor / 2)) /
                                 divisor;
      out.set(x, y, static_cast<Pixel>(std::clamp(v, 0, 255)));
    }
  }
  return out;
}

}  // namespace ehw::img
