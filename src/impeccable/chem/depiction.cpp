#include "impeccable/chem/depiction.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "impeccable/chem/layout.hpp"

namespace impeccable::chem {
namespace {

int atom_channel(const Atom& a) {
  switch (a.element) {
    case Element::C:
    case Element::B:
      return 1;
    case Element::N:
    case Element::O:
      return 2;
    default:
      return 3;  // halogens, S, P
  }
}

void splat(Image& img, int channel, double px, double py, double sigma,
           double weight) {
  const int r = static_cast<int>(std::ceil(3 * sigma));
  const int cx = static_cast<int>(std::lround(px));
  const int cy = static_cast<int>(std::lround(py));
  for (int y = std::max(0, cy - r); y <= std::min(img.height - 1, cy + r); ++y) {
    for (int x = std::max(0, cx - r); x <= std::min(img.width - 1, cx + r); ++x) {
      const double dx = x - px;
      const double dy = y - py;
      const double v = weight * std::exp(-(dx * dx + dy * dy) / (2 * sigma * sigma));
      float& p = img.at(channel, y, x);
      p = std::min(1.0f, p + static_cast<float>(v));
    }
  }
}

void draw_segment(Image& img, int channel, double x0, double y0, double x1,
                  double y1, double weight) {
  const double len = std::hypot(x1 - x0, y1 - y0);
  const int steps = std::max(2, static_cast<int>(len * 2));
  for (int s = 0; s <= steps; ++s) {
    const double t = static_cast<double>(s) / steps;
    splat(img, channel, x0 + t * (x1 - x0), y0 + t * (y1 - y0), 0.55, weight);
  }
}

}  // namespace

Image depict(const Molecule& mol, const DepictionOptions& opts) {
  if (opts.channels < 1 || opts.height < 1 || opts.width < 1)
    throw std::invalid_argument(
        "depict: channels, height and width must be at least 1");
  Image img;
  img.channels = opts.channels;
  img.height = opts.height;
  img.width = opts.width;
  img.data.assign(
      static_cast<std::size_t>(opts.channels) * opts.height * opts.width, 0.0f);

  const auto layout = layout_2d(mol, opts.layout_seed, opts.layout_iterations);

  // Map unit-RMS layout into pixel coordinates with a margin; the layout is
  // normalized so a fixed zoom keeps typical drug-likes inside the frame.
  const double margin = 3.0;
  const double sx = (opts.width - 2 * margin) / 5.0;
  const double sy = (opts.height - 2 * margin) / 5.0;
  auto to_px = [&](const Point2& p) {
    return std::pair<double, double>{
        opts.width / 2.0 + std::clamp(p.x, -2.5, 2.5) * sx,
        opts.height / 2.0 + std::clamp(p.y, -2.5, 2.5) * sy};
  };

  for (int bi = 0; bi < mol.bond_count(); ++bi) {
    const Bond& b = mol.bond(bi);
    const auto [x0, y0] = to_px(layout[static_cast<std::size_t>(b.a)]);
    const auto [x1, y1] = to_px(layout[static_cast<std::size_t>(b.b)]);
    const double w = b.aromatic ? 0.35 : 0.25 * b.order;
    draw_segment(img, 0, x0, y0, x1, y1, w);
  }

  for (int i = 0; i < mol.atom_count(); ++i) {
    const Atom& a = mol.atom(i);
    const auto [px, py] = to_px(layout[static_cast<std::size_t>(i)]);
    const int ch = std::min(atom_channel(a), opts.channels - 1);
    double w = 0.8;
    if (a.aromatic) w = 1.0;
    if (a.formal_charge != 0) w = 1.0;
    splat(img, ch, px, py, opts.atom_sigma, w);
  }
  return img;
}

}  // namespace impeccable::chem
