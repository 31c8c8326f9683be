#pragma once
// Procedural test scenes. The paper's platform takes its training image
// from flash (or a camera at mission time); we have neither, so we generate
// deterministic scenes with the feature mix window filters care about:
// smooth gradients, sharp edges, corners, thin lines and mild texture.
// Every generator is pure in (size, seed), making experiments reproducible.

#include <cstdint>

#include "ehw/img/image.hpp"

namespace ehw {
class ThreadPool;
}

namespace ehw::img {

/// A natural-image stand-in: overlapping soft blobs + polygons + gradient
/// background + low-amplitude deterministic texture. With a `pool`, large
/// frames are filled in row bands on it (see row_bands.hpp); the bytes do
/// not depend on the pool or its size.
[[nodiscard]] Image make_scene(std::size_t width, std::size_t height,
                               std::uint64_t seed, ThreadPool* pool = nullptr);

/// Linear horizontal gradient from `from` to `to`.
[[nodiscard]] Image make_gradient(std::size_t width, std::size_t height,
                                  Pixel from = 0, Pixel to = 255);

/// Checkerboard with the given tile size; exercises edge responses.
[[nodiscard]] Image make_checkerboard(std::size_t width, std::size_t height,
                                      std::size_t tile, Pixel dark = 32,
                                      Pixel bright = 224);

/// Constant image (calibration pattern building block).
[[nodiscard]] Image make_constant(std::size_t width, std::size_t height,
                                  Pixel value);

/// The platform's calibration pattern (paper §V.A step b: "a calibration
/// image, which must provide a known fitness value"): a fixed mix of
/// gradient + checkerboard chosen to excite every PE input combination.
[[nodiscard]] Image make_calibration_pattern(std::size_t width,
                                             std::size_t height);

}  // namespace ehw::img
