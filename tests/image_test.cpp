// Tests for ehw/img: container semantics, window gathering, PGM I/O,
// synthetic scenes, noise injectors, golden filters and metrics.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <utility>
#include <vector>

#include "ehw/common/rng.hpp"
#include "ehw/common/thread_pool.hpp"
#include "ehw/img/filters.hpp"
#include "ehw/img/image.hpp"
#include "ehw/img/metrics.hpp"
#include "ehw/img/morphology.hpp"
#include "ehw/img/noise.hpp"
#include "ehw/img/pgm_io.hpp"
#include "ehw/img/synthetic.hpp"
#include "ehw/sched/missions.hpp"

namespace ehw::img {
namespace {

// Reference implementations: the serial per-pixel generator and window
// filters as they were before the row kernels, kept verbatim as oracles.
// The row-band versions must reproduce them byte for byte at every shape,
// serially and on any pool.
namespace oracle {

Pixel to_pixel(double v) noexcept {
  return static_cast<Pixel>(std::clamp(v, 0.0, 255.0));
}

struct Blob {
  double cx, cy, radius, amplitude;
};

struct Box {
  double x0, y0, x1, y1, value;
};

Image make_scene(std::size_t width, std::size_t height, std::uint64_t seed) {
  Rng rng(seed);
  const auto w = static_cast<double>(width);
  const auto h = static_cast<double>(height);

  // 4-7 soft blobs, 3-5 hard boxes, one diagonal line.
  std::vector<Blob> blobs;
  const auto n_blobs = 4 + rng.below(4);
  for (std::uint64_t i = 0; i < n_blobs; ++i) {
    blobs.push_back(Blob{rng.uniform() * w, rng.uniform() * h,
                         (0.08 + 0.22 * rng.uniform()) * std::min(w, h),
                         40.0 + 70.0 * rng.uniform()});
  }
  std::vector<Box> boxes;
  const auto n_boxes = 3 + rng.below(3);
  for (std::uint64_t i = 0; i < n_boxes; ++i) {
    const double x0 = rng.uniform() * 0.8 * w;
    const double y0 = rng.uniform() * 0.8 * h;
    boxes.push_back(Box{x0, y0, x0 + (0.08 + 0.25 * rng.uniform()) * w,
                        y0 + (0.08 + 0.25 * rng.uniform()) * h,
                        rng.uniform() * 255.0});
  }
  const double grad_angle = rng.uniform() * 6.28318530717958647692;
  const double gx = std::cos(grad_angle), gy = std::sin(grad_angle);
  const double line_off = rng.uniform() * w;
  const std::uint64_t texture_salt = rng();

  Image image(width, height);
  for (std::size_t y = 0; y < height; ++y) {
    for (std::size_t x = 0; x < width; ++x) {
      const auto fx = static_cast<double>(x);
      const auto fy = static_cast<double>(y);
      // Background gradient 60..160.
      double v = 110.0 + 50.0 * ((fx * gx + fy * gy) / (w + h) * 2.0 - 0.5);
      // Boxes overwrite (hard edges).
      for (const auto& b : boxes) {
        if (fx >= b.x0 && fx <= b.x1 && fy >= b.y0 && fy <= b.y1) {
          v = 0.35 * v + 0.65 * b.value;
        }
      }
      // Soft blobs add (smooth regions).
      for (const auto& b : blobs) {
        const double dx = fx - b.cx, dy = fy - b.cy;
        const double d2 = (dx * dx + dy * dy) / (b.radius * b.radius);
        if (d2 < 9.0) v += b.amplitude * std::exp(-d2);
      }
      // One thin bright diagonal line (stress for window muxes).
      if (std::abs(std::fmod(fx + fy + line_off, w) - w / 2.0) < 1.0) {
        v = 235.0;
      }
      // Deterministic +-6 texture derived from coordinates, not call order.
      const std::uint64_t hsh = hash_mix(texture_salt, x, y);
      v += static_cast<double>(hsh % 13) - 6.0;
      image.set(x, y, to_pixel(v));
    }
  }
  return image;
}

Image sobel_magnitude(const Image& src) {
  Image out(src.width(), src.height());
  Pixel win[9];
  for (std::size_t y = 0; y < src.height(); ++y) {
    for (std::size_t x = 0; x < src.width(); ++x) {
      gather_window3x3(src, x, y, win);
      const int gx = -win[0] + win[2] - 2 * win[3] + 2 * win[5] - win[6] +
                     win[8];
      const int gy = -win[0] - 2 * win[1] - win[2] + win[6] + 2 * win[7] +
                     win[8];
      const int mag = std::abs(gx) + std::abs(gy);
      out.set(x, y, static_cast<Pixel>(std::min(mag, 255)));
    }
  }
  return out;
}

template <typename Select>
Image window_reduce(const Image& src, Select select) {
  Image out(src.width(), src.height());
  Pixel win[9];
  for (std::size_t y = 0; y < src.height(); ++y) {
    for (std::size_t x = 0; x < src.width(); ++x) {
      gather_window3x3(src, x, y, win);
      Pixel v = win[0];
      for (int k = 1; k < 9; ++k) v = select(v, win[k]);
      out.set(x, y, v);
    }
  }
  return out;
}

}  // namespace oracle

/// Widths around the SIMD/cache-line boundaries and the service's frame
/// sizes; heights of one row, fewer rows than pool threads, and square.
/// The wide, short shapes are large enough to be split into row bands
/// with fewer rows than the 4-thread pool has workers.
std::vector<std::pair<std::size_t, std::size_t>> oracle_shapes() {
  std::vector<std::pair<std::size_t, std::size_t>> shapes;
  for (const std::size_t w :
       {1, 2, 3, 7, 33, 64, 97, 127, 128, 129, 384, 448, 512}) {
    for (const std::size_t h : {std::size_t{1}, std::size_t{3}, w}) {
      shapes.emplace_back(w, h);
    }
  }
  shapes.emplace_back(40000, 2);
  shapes.emplace_back(33000, 3);
  shapes.emplace_back(448, 97);
  return shapes;
}

/// Random bytes (full 0..255 range, so the Sobel clamp and every min/max
/// tie are exercised) of the given shape.
Image random_image(std::size_t width, std::size_t height, std::uint64_t seed) {
  Rng rng(seed);
  Image image(width, height);
  for (std::size_t y = 0; y < height; ++y) {
    Pixel* row = image.row(y);
    for (std::size_t x = 0; x < width; ++x) row[x] = rng.byte();
  }
  return image;
}

TEST(Image, BasicAccessors) {
  Image im(4, 3, 7);
  EXPECT_EQ(im.width(), 4u);
  EXPECT_EQ(im.height(), 3u);
  EXPECT_EQ(im.pixel_count(), 12u);
  EXPECT_EQ(im.at(0, 0), 7);
  im.set(2, 1, 99);
  EXPECT_EQ(im.at(2, 1), 99);
  EXPECT_EQ(im.row(1)[2], 99);
}

TEST(Image, ClampedAccessReplicatesBorder) {
  Image im(3, 3);
  for (std::size_t y = 0; y < 3; ++y) {
    for (std::size_t x = 0; x < 3; ++x) {
      im.set(x, y, static_cast<Pixel>(10 * y + x));
    }
  }
  EXPECT_EQ(im.at_clamped(-1, -1), im.at(0, 0));
  EXPECT_EQ(im.at_clamped(3, 1), im.at(2, 1));
  EXPECT_EQ(im.at_clamped(1, 5), im.at(1, 2));
  EXPECT_EQ(im.at_clamped(1, 1), im.at(1, 1));
}

TEST(Image, WindowGatherOrderAndBorders) {
  Image im(3, 3);
  for (std::size_t i = 0; i < 9; ++i) {
    im.set(i % 3, i / 3, static_cast<Pixel>(i));
  }
  Pixel win[9];
  gather_window3x3(im, 1, 1, win);
  for (int i = 0; i < 9; ++i) EXPECT_EQ(win[i], i);
  // Corner window replicates.
  gather_window3x3(im, 0, 0, win);
  EXPECT_EQ(win[0], im.at(0, 0));
  EXPECT_EQ(win[4], im.at(0, 0));
  EXPECT_EQ(win[8], im.at(1, 1));
}

TEST(Image, EqualityIsDeep) {
  Image a(2, 2, 1), b(2, 2, 1);
  EXPECT_EQ(a, b);
  b.set(0, 0, 2);
  EXPECT_FALSE(a == b);
}

TEST(PgmIo, BinaryRoundTrip) {
  Image im = make_scene(17, 11, 5);
  std::stringstream ss;
  write_pgm(im, ss);
  const Image back = read_pgm(ss);
  EXPECT_EQ(im, back);
}

TEST(PgmIo, ReadsAsciiVariant) {
  std::stringstream ss("P2\n# comment\n2 2\n255\n0 128\n255 64\n");
  const Image im = read_pgm(ss);
  EXPECT_EQ(im.at(0, 0), 0);
  EXPECT_EQ(im.at(1, 0), 128);
  EXPECT_EQ(im.at(0, 1), 255);
  EXPECT_EQ(im.at(1, 1), 64);
}

TEST(PgmIo, RejectsMalformed) {
  std::stringstream bad_magic("P7\n2 2\n255\n");
  EXPECT_THROW(read_pgm(bad_magic), std::runtime_error);
  std::stringstream truncated("P5\n4 4\n255\nab");
  EXPECT_THROW(read_pgm(truncated), std::runtime_error);
}

TEST(Synthetic, SceneIsDeterministicInSeed) {
  EXPECT_EQ(make_scene(32, 32, 9), make_scene(32, 32, 9));
  EXPECT_NE(make_scene(32, 32, 9), make_scene(32, 32, 10));
}

TEST(Synthetic, SceneHasDynamicRange) {
  const Image s = make_scene(64, 64, 3);
  Pixel lo = 255, hi = 0;
  for (std::size_t y = 0; y < s.height(); ++y) {
    for (std::size_t x = 0; x < s.width(); ++x) {
      lo = std::min(lo, s.at(x, y));
      hi = std::max(hi, s.at(x, y));
    }
  }
  EXPECT_GT(hi - lo, 80);  // edges + blobs guarantee real contrast
}

TEST(Synthetic, GradientMonotone) {
  const Image g = make_gradient(16, 4, 0, 255);
  for (std::size_t x = 1; x < 16; ++x) {
    EXPECT_GE(g.at(x, 2), g.at(x - 1, 2));
  }
  EXPECT_EQ(g.at(0, 0), 0);
  EXPECT_EQ(g.at(15, 0), 255);
}

TEST(Synthetic, CheckerboardAlternates) {
  const Image c = make_checkerboard(8, 8, 2, 10, 200);
  EXPECT_EQ(c.at(0, 0), 200);
  EXPECT_EQ(c.at(2, 0), 10);
  EXPECT_EQ(c.at(0, 2), 10);
  EXPECT_EQ(c.at(2, 2), 200);
}

TEST(Synthetic, CalibrationPatternDeterministic) {
  EXPECT_EQ(make_calibration_pattern(32, 32), make_calibration_pattern(32, 32));
}

// The frames of every mission kind at a service-small and a service-large
// size, pinned by content hash (the fitness memo's frame-set identity):
// values recorded from the serial per-pixel generator and window filters.
TEST(Synthetic, MissionImagesHashesPinned) {
  struct Pinned {
    sched::MissionKind kind;
    std::size_t size;
    std::uint64_t train;
    std::uint64_t reference;
  };
  const Pinned pinned[] = {
      {sched::MissionKind::kDenoise, 64, 0x5585e21e58ce9450ULL,
       0xa292be4b9b356c98ULL},
      {sched::MissionKind::kCascade, 64, 0x5585e21e58ce9450ULL,
       0xa292be4b9b356c98ULL},
      {sched::MissionKind::kEdge, 64, 0xa292be4b9b356c98ULL,
       0x5dd31c6f55e51c5eULL},
      {sched::MissionKind::kMorphology, 64, 0xa292be4b9b356c98ULL,
       0x7b483bcbdce9f621ULL},
      {sched::MissionKind::kDenoise, 448, 0x6fa0306ef494ea78ULL,
       0x0eea74a808922a14ULL},
      {sched::MissionKind::kCascade, 448, 0x6fa0306ef494ea78ULL,
       0x0eea74a808922a14ULL},
      {sched::MissionKind::kEdge, 448, 0x0eea74a808922a14ULL,
       0xad511cc8c9d8dc98ULL},
      {sched::MissionKind::kMorphology, 448, 0x0eea74a808922a14ULL,
       0x9ffdd8949f1a8d07ULL},
  };
  for (const Pinned& p : pinned) {
    sched::MissionSpec spec;
    spec.kind = p.kind;
    spec.size = p.size;
    SCOPED_TRACE(std::string(sched::kind_name(p.kind)) + " " +
                 std::to_string(p.size));
    ThreadPool one(1), four(4);
    for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &one, &four}) {
      const sched::MissionImages images =
          sched::make_mission_images(spec, pool);
      EXPECT_EQ(images.train.content_hash(), p.train);
      EXPECT_EQ(images.reference.content_hash(), p.reference);
    }
  }
}

TEST(Synthetic, SceneMatchesSerialOracleOnAnyPool) {
  ThreadPool one(1), four(4);
  for (const auto& [w, h] : oracle_shapes()) {
    SCOPED_TRACE(std::to_string(w) + "x" + std::to_string(h));
    const std::uint64_t seed = w * 1009 + h;
    const Image expected = oracle::make_scene(w, h, seed);
    EXPECT_EQ(make_scene(w, h, seed), expected);
    EXPECT_EQ(make_scene(w, h, seed, &one), expected);
    EXPECT_EQ(make_scene(w, h, seed, &four), expected);
  }
}

TEST(Noise, SaltPepperDensity) {
  const Image clean = make_constant(100, 100, 128);
  Rng rng(1);
  const Image noisy = add_salt_pepper(clean, 0.3, rng);
  const double frac = differing_fraction(clean, noisy);
  EXPECT_NEAR(frac, 0.3, 0.03);
  // Corrupted pixels are exactly 0 or 255.
  for (std::size_t y = 0; y < noisy.height(); ++y) {
    for (std::size_t x = 0; x < noisy.width(); ++x) {
      const Pixel p = noisy.at(x, y);
      EXPECT_TRUE(p == 128 || p == 0 || p == 255);
    }
  }
}

TEST(Noise, ZeroDensityIsIdentity) {
  const Image clean = make_scene(20, 20, 2);
  Rng rng(1);
  EXPECT_EQ(add_salt_pepper(clean, 0.0, rng), clean);
  EXPECT_EQ(add_impulse(clean, 0.0, rng), clean);
}

TEST(Noise, GaussianSigmaZeroIsIdentity) {
  const Image clean = make_scene(20, 20, 2);
  Rng rng(1);
  EXPECT_EQ(add_gaussian(clean, 0.0, rng), clean);
}

TEST(Noise, GaussianPerturbsMildly) {
  const Image clean = make_constant(64, 64, 128);
  Rng rng(1);
  const Image noisy = add_gaussian(clean, 10.0, rng);
  const double mae = mean_absolute_error(clean, noisy);
  // E|N(0,10)| ~ 8.0
  EXPECT_NEAR(mae, 8.0, 1.5);
}

TEST(Filters, MedianRemovesIsolatedImpulse) {
  Image im = make_constant(9, 9, 100);
  im.set(4, 4, 255);
  const Image out = median3x3(im);
  EXPECT_EQ(out.at(4, 4), 100);
}

TEST(Filters, MedianOfKnownWindow) {
  Image im(3, 3);
  const Pixel vals[9] = {9, 1, 8, 2, 7, 3, 6, 4, 5};
  for (std::size_t i = 0; i < 9; ++i) im.set(i % 3, i / 3, vals[i]);
  EXPECT_EQ(median3x3(im).at(1, 1), 5);
}

TEST(Filters, MeanOnConstantIsConstant) {
  const Image im = make_constant(8, 8, 57);
  EXPECT_EQ(mean3x3(im), im);
}

TEST(Filters, GaussianPreservesConstant) {
  const Image im = make_constant(8, 8, 200);
  EXPECT_EQ(gaussian3x3(im), im);
}

TEST(Filters, SobelZeroOnFlat) {
  const Image im = make_constant(8, 8, 91);
  const Image e = sobel_magnitude(im);
  for (std::size_t y = 0; y < e.height(); ++y) {
    for (std::size_t x = 0; x < e.width(); ++x) EXPECT_EQ(e.at(x, y), 0);
  }
}

TEST(Filters, SobelRespondsToEdge) {
  Image im(8, 8, 0);
  for (std::size_t y = 0; y < 8; ++y) {
    for (std::size_t x = 4; x < 8; ++x) im.set(x, y, 255);
  }
  const Image e = sobel_magnitude(im);
  EXPECT_EQ(e.at(1, 4), 0);    // far from edge
  EXPECT_GT(e.at(4, 4), 200);  // on the edge
}

TEST(Filters, SobelMatchesWindowOracleOnAnyPool) {
  ThreadPool one(1), four(4);
  for (const auto& [w, h] : oracle_shapes()) {
    SCOPED_TRACE(std::to_string(w) + "x" + std::to_string(h));
    for (const Image& src : {random_image(w, h, w * 31 + h),
                             make_scene(w, h, w + h)}) {
      const Image expected = oracle::sobel_magnitude(src);
      EXPECT_EQ(sobel_magnitude(src), expected);
      EXPECT_EQ(sobel_magnitude(src, &one), expected);
      EXPECT_EQ(sobel_magnitude(src, &four), expected);
    }
  }
}

TEST(Filters, ErodeDilateMatchWindowOracleOnAnyPool) {
  const auto min = [](Pixel a, Pixel b) { return std::min(a, b); };
  const auto max = [](Pixel a, Pixel b) { return std::max(a, b); };
  ThreadPool one(1), four(4);
  for (const auto& [w, h] : oracle_shapes()) {
    SCOPED_TRACE(std::to_string(w) + "x" + std::to_string(h));
    const Image src = random_image(w, h, w * 37 + h);
    const Image eroded = oracle::window_reduce(src, min);
    const Image dilated = oracle::window_reduce(src, max);
    for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &one, &four}) {
      EXPECT_EQ(erode3x3(src, pool), eroded);
      EXPECT_EQ(dilate3x3(src, pool), dilated);
    }
  }
}

TEST(Filters, ConvolveIdentityKernel) {
  const Image im = make_scene(16, 16, 8);
  const int kernel[9] = {0, 0, 0, 0, 1, 0, 0, 0, 0};
  EXPECT_EQ(convolve3x3(im, kernel, 1), im);
}

TEST(Filters, ApplyNChainsFilter) {
  const Image im = make_scene(16, 16, 8);
  const Image twice = apply_n(im, 2, [](const Image& x) { return mean3x3(x); });
  EXPECT_EQ(twice, mean3x3(mean3x3(im)));
}

TEST(Metrics, AggregatedMaeBasics) {
  const Image a = make_constant(4, 4, 10);
  const Image b = make_constant(4, 4, 13);
  EXPECT_EQ(aggregated_mae(a, a), 0u);
  EXPECT_EQ(aggregated_mae(a, b), 16u * 3u);
  EXPECT_EQ(aggregated_mae(b, a), 16u * 3u);  // symmetric
  EXPECT_DOUBLE_EQ(mean_absolute_error(a, b), 3.0);
}

TEST(Metrics, TriangleInequalityHolds) {
  const Image a = make_scene(16, 16, 1);
  const Image b = make_scene(16, 16, 2);
  const Image c = make_scene(16, 16, 3);
  EXPECT_LE(aggregated_mae(a, c),
            aggregated_mae(a, b) + aggregated_mae(b, c));
}

TEST(Metrics, PsnrIdenticalIsInfinite) {
  const Image a = make_scene(8, 8, 4);
  EXPECT_TRUE(std::isinf(psnr(a, a)));
}

TEST(Metrics, PsnrOrdersNoiseLevels) {
  const Image clean = make_scene(64, 64, 4);
  Rng r1(1), r2(2);
  const Image mild = add_salt_pepper(clean, 0.05, r1);
  const Image heavy = add_salt_pepper(clean, 0.4, r2);
  EXPECT_GT(psnr(clean, mild), psnr(clean, heavy));
}

TEST(Metrics, MaxAbsDifference) {
  Image a = make_constant(4, 4, 100);
  Image b = a;
  b.set(2, 2, 250);
  EXPECT_EQ(max_abs_difference(a, b), 150);
  EXPECT_EQ(max_abs_difference(a, a), 0);
}

TEST(Metrics, ShapeMismatchThrows) {
  const Image a(4, 4), b(4, 5);
  EXPECT_THROW((void)aggregated_mae(a, b), std::logic_error);
}

}  // namespace
}  // namespace ehw::img
