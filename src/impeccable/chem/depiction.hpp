#pragma once
// 2D molecule depiction rasterizer — the ML1 featurization.
//
// Sec. 5.1.2: "A simple featurization method has been widely ignored — 2D
// image depictions... able to utilize off-the-shelf convolutional neural
// networks." We render the 2D layout into a small multi-channel image the
// CNN surrogate consumes:
//   ch 0  bond skeleton (anti-aliased segments)
//   ch 1  carbon / aromatic density
//   ch 2  H-bond donors & acceptors (N, O)
//   ch 3  halogens, S, P and charges
//
// Images are returned in CHW order, values in [0, 1].

#include <cstdint>
#include <vector>

#include "impeccable/chem/molecule.hpp"

namespace impeccable::chem {

struct DepictionOptions {
  int width = 32;
  int height = 32;
  int channels = 4;
  double atom_sigma = 0.9;   ///< Gaussian splat radius in pixels
  std::uint64_t layout_seed = 7;
  /// Force-directed layout iterations (see layout_2d). The default keeps
  /// depictions bitwise identical to the historical fixed count; streaming
  /// benchmarks lower it for throughput at coarse resolutions.
  int layout_iterations = 250;
};

struct Image {
  int channels = 0;
  int height = 0;
  int width = 0;
  std::vector<float> data;  ///< CHW

  float& at(int c, int y, int x) {
    return data[static_cast<std::size_t>((c * height + y) * width + x)];
  }
  float at(int c, int y, int x) const {
    return data[static_cast<std::size_t>((c * height + y) * width + x)];
  }
};

/// Rasterize the molecule's 2D depiction. Throws std::invalid_argument when
/// opts.channels, opts.height or opts.width is below 1.
Image depict(const Molecule& mol, const DepictionOptions& opts = {});

}  // namespace impeccable::chem
