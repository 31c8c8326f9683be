#pragma once
// Golden (conventional) 3x3 window filters. These are the model-based
// baselines the paper compares against: the median filter ("the
// conventional reference filter for such type of noise... it is not
// cascadable", Fig. 18 discussion), plus mean/Gaussian smoothing and Sobel
// edge detection used to build reference images for evolution targets.

#include "ehw/img/image.hpp"

namespace ehw {
class ThreadPool;
}

namespace ehw::img {

/// 3x3 median filter (border replicated).
[[nodiscard]] Image median3x3(const Image& src);

/// 3x3 box (mean) filter, rounded to nearest.
[[nodiscard]] Image mean3x3(const Image& src);

/// 3x3 Gaussian (1 2 1 / 2 4 2 / 1 2 1) / 16, rounded.
[[nodiscard]] Image gaussian3x3(const Image& src);

/// Sobel gradient magnitude, |Gx| + |Gy| clamped to 255. With a `pool`,
/// large frames are split into row bands on it (bytes unchanged).
[[nodiscard]] Image sobel_magnitude(const Image& src,
                                    ThreadPool* pool = nullptr);

/// Generic signed 3x3 convolution with divisor and offset:
///   out = clamp(offset + (sum_k kernel[k] * window[k]) / divisor).
/// Kernel is row-major like gather_window3x3.
[[nodiscard]] Image convolve3x3(const Image& src, const int kernel[9],
                                int divisor, int offset = 0);

/// Applies `filter` n times in sequence ("cascading" a conventional filter;
/// used by the Fig. 16/17 'same filter in every stage' baseline).
template <typename F>
[[nodiscard]] Image apply_n(const Image& src, std::size_t n, F filter) {
  Image cur = src;
  for (std::size_t i = 0; i < n; ++i) cur = filter(cur);
  return cur;
}

}  // namespace ehw::img
