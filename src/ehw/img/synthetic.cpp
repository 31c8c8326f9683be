#include "ehw/img/synthetic.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "ehw/common/rng.hpp"
#include "ehw/img/row_bands.hpp"

namespace ehw::img {
namespace {

Pixel to_pixel(double v) noexcept {
  return static_cast<Pixel>(std::clamp(v, 0.0, 255.0));
}

struct Blob {
  double cx, cy, radius, amplitude;
};

struct Box {
  double x0, y0, x1, y1, value;
};

/// Everything make_scene draws from its seed.
struct SceneLayout {
  double w, h;
  std::vector<Blob> blobs;
  std::vector<Box> boxes;
  double gx, gy;
  double line_off;
  std::uint64_t texture_salt;
};

SceneLayout draw_layout(std::size_t width, std::size_t height,
                        std::uint64_t seed) {
  Rng rng(seed);
  SceneLayout s;
  s.w = static_cast<double>(width);
  s.h = static_cast<double>(height);
  const double w = s.w, h = s.h;

  // 4-7 soft blobs, 3-5 hard boxes, one diagonal line.
  const auto n_blobs = 4 + rng.below(4);
  for (std::uint64_t i = 0; i < n_blobs; ++i) {
    s.blobs.push_back(Blob{rng.uniform() * w, rng.uniform() * h,
                           (0.08 + 0.22 * rng.uniform()) * std::min(w, h),
                           40.0 + 70.0 * rng.uniform()});
  }
  const auto n_boxes = 3 + rng.below(3);
  for (std::uint64_t i = 0; i < n_boxes; ++i) {
    const double x0 = rng.uniform() * 0.8 * w;
    const double y0 = rng.uniform() * 0.8 * h;
    s.boxes.push_back(Box{x0, y0, x0 + (0.08 + 0.25 * rng.uniform()) * w,
                          y0 + (0.08 + 0.25 * rng.uniform()) * h,
                          rng.uniform() * 255.0});
  }
  const double grad_angle = rng.uniform() * 6.28318530717958647692;
  s.gx = std::cos(grad_angle);
  s.gy = std::sin(grad_angle);
  s.line_off = rng.uniform() * w;
  s.texture_salt = rng();
  return s;
}

/// A blob's row-invariant terms for one row.
struct RowBlob {
  const Blob* blob;
  double dy2;  // dy * dy
  double r2;   // radius * radius
};

/// Fills rows [y0, y1). Every pixel is a pure function of (x, y) and the
/// layout, so bands may be filled in any order on any thread. Per pixel
/// the double arithmetic is the one-pixel-at-a-time generator's, term for
/// term; only work that is the same along a row leaves the pixel loop:
///   - a box whose y range misses the row is skipped (its test is false
///     at every x);
///   - a blob whose row term alone fails d2 < 9 is skipped: rounding is
///     monotone, so fl(dx^2 + dy^2) / r^2 >= fl(dy^2) / r^2 at every x;
///   - fmod(a, w) is repeated subtraction: a >= 0 and w is an integer
///     below 2^52, so every a - w is exact and the remainder is fmod's.
void fill_rows(const SceneLayout& s, Image& image, std::size_t y0,
               std::size_t y1) {
  const double w = s.w, h = s.h, gx = s.gx, gy = s.gy;
  std::vector<const Box*> row_boxes;
  std::vector<RowBlob> row_blobs;
  row_boxes.reserve(s.boxes.size());
  row_blobs.reserve(s.blobs.size());
  for (std::size_t y = y0; y < y1; ++y) {
    const auto fy = static_cast<double>(y);
    row_boxes.clear();
    for (const auto& b : s.boxes) {
      if (fy >= b.y0 && fy <= b.y1) row_boxes.push_back(&b);
    }
    row_blobs.clear();
    for (const auto& b : s.blobs) {
      const double dy = fy - b.cy;
      const double dy2 = dy * dy;
      const double r2 = b.radius * b.radius;
      if (dy2 / r2 < 9.0) row_blobs.push_back(RowBlob{&b, dy2, r2});
    }
    Pixel* row = image.row(y);
    for (std::size_t x = 0; x < image.width(); ++x) {
      const auto fx = static_cast<double>(x);
      // Background gradient 60..160.
      double v = 110.0 + 50.0 * ((fx * gx + fy * gy) / (w + h) * 2.0 - 0.5);
      // Boxes overwrite (hard edges).
      for (const Box* b : row_boxes) {
        if (fx >= b->x0 && fx <= b->x1) v = 0.35 * v + 0.65 * b->value;
      }
      // Soft blobs add (smooth regions).
      for (const RowBlob& rb : row_blobs) {
        const double dx = fx - rb.blob->cx;
        const double d2 = (dx * dx + rb.dy2) / rb.r2;
        if (d2 < 9.0) v += rb.blob->amplitude * std::exp(-d2);
      }
      // One thin bright diagonal line (stress for window muxes).
      double wrapped = fx + fy + s.line_off;
      while (wrapped >= w) wrapped -= w;
      if (std::abs(wrapped - w / 2.0) < 1.0) v = 235.0;
      // Deterministic +-6 texture derived from coordinates, not call order.
      const std::uint64_t hsh = hash_mix(s.texture_salt, x, y);
      v += static_cast<double>(hsh % 13) - 6.0;
      row[x] = to_pixel(v);
    }
  }
}

}  // namespace

Image make_scene(std::size_t width, std::size_t height, std::uint64_t seed,
                 ThreadPool* pool) {
  const SceneLayout layout = draw_layout(width, height, seed);
  Image image(width, height);
  for_row_bands(pool, width, height, [&](std::size_t y0, std::size_t y1) {
    fill_rows(layout, image, y0, y1);
  });
  return image;
}

Image make_gradient(std::size_t width, std::size_t height, Pixel from,
                    Pixel to) {
  Image image(width, height);
  const double step =
      width > 1 ? (static_cast<double>(to) - from) / static_cast<double>(width - 1)
                : 0.0;
  for (std::size_t x = 0; x < width; ++x) {
    const Pixel v = to_pixel(from + step * static_cast<double>(x));
    for (std::size_t y = 0; y < height; ++y) image.set(x, y, v);
  }
  return image;
}

Image make_checkerboard(std::size_t width, std::size_t height,
                        std::size_t tile, Pixel dark, Pixel bright) {
  EHW_REQUIRE(tile > 0, "tile size must be positive");
  Image image(width, height);
  for (std::size_t y = 0; y < height; ++y) {
    for (std::size_t x = 0; x < width; ++x) {
      const bool on = ((x / tile) + (y / tile)) % 2 == 0;
      image.set(x, y, on ? bright : dark);
    }
  }
  return image;
}

Image make_constant(std::size_t width, std::size_t height, Pixel value) {
  return Image(width, height, value);
}

Image make_calibration_pattern(std::size_t width, std::size_t height) {
  // Left half: horizontal ramp (exercises smooth propagation).
  // Right half: tile-4 checkerboard (exercises min/max/threshold paths).
  Image image(width, height);
  const std::size_t half = width / 2;
  for (std::size_t y = 0; y < height; ++y) {
    for (std::size_t x = 0; x < width; ++x) {
      Pixel v;
      if (x < half || half == 0) {
        v = static_cast<Pixel>((x * 255) / std::max<std::size_t>(1, width - 1));
      } else {
        v = (((x / 4) + (y / 4)) % 2 == 0) ? Pixel{224} : Pixel{32};
      }
      image.set(x, y, v);
    }
  }
  return image;
}

}  // namespace ehw::img
