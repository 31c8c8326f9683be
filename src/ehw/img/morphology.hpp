#pragma once
// 3x3 grayscale morphology — additional golden baselines for the
// window-filter family (§I: "a wide range of window-based digital image
// filters"). Erosion/dilation are the min/max window filters the PE
// library can express natively; opening/closing are their compositions and
// the classical conservative impulse removers.

#include "ehw/img/image.hpp"

namespace ehw {
class ThreadPool;
}

namespace ehw::img {

/// Minimum over the border-replicated 3x3 window. With a `pool`, large
/// frames are split into row bands on it (bytes unchanged).
[[nodiscard]] Image erode3x3(const Image& src, ThreadPool* pool = nullptr);

/// Maximum over the border-replicated 3x3 window (pool as for erode3x3).
[[nodiscard]] Image dilate3x3(const Image& src, ThreadPool* pool = nullptr);

/// Opening: erosion then dilation (removes bright impulses).
[[nodiscard]] Image open3x3(const Image& src);

/// Closing: dilation then erosion (removes dark impulses).
[[nodiscard]] Image close3x3(const Image& src);

/// Morphological gradient: dilate - erode (an edge detector baseline).
[[nodiscard]] Image morph_gradient3x3(const Image& src);

}  // namespace ehw::img
