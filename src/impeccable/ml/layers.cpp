#include "impeccable/ml/layers.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <stdexcept>
#include <string>

#include "impeccable/common/thread_pool.hpp"
#include "impeccable/ml/gemm.hpp"

namespace impeccable::ml {

void Layer::zero_grad() {
  for (auto p : params()) p.grad->zero();
}

Tensor Layer::infer(const Tensor&) const {
  throw std::logic_error("Layer::infer: layer has no inference-only path");
}

// ---------------------------------------------------------------- Dense

Dense::Dense(int in, int out, common::Rng& rng)
    : weight(Tensor::randn({out, in}, rng,
                           std::sqrt(2.0f / static_cast<float>(in)))),
      bias({out}),
      weight_grad({out, in}),
      bias_grad({out}) {}

Tensor Dense::apply(const Tensor& x) const {
  if (x.rank() != 2 || x.dim(1) != weight.dim(1))
    throw std::invalid_argument("Dense::forward: bad input shape " + x.shape_string());
  const int n = x.dim(0), in = weight.dim(1), out = weight.dim(0);
  Tensor y({n, out});
  // y = bias (broadcast over rows) + x · W^T, accumulated ascending-k — the
  // same bias-first order as the original per-element loop.
  for (int i = 0; i < n; ++i)
    std::copy(bias.data(), bias.data() + out,
              y.data() + static_cast<std::size_t>(i) * out);
  gemm(Trans::No, Trans::Yes, n, out, in, 1.0f, x.data(), in, weight.data(), in,
       1.0f, y.data(), out);
  return y;
}

Tensor Dense::forward(const Tensor& x) {
  Tensor y = apply(x);
  input_ = x;
  return y;
}

Tensor Dense::infer(const Tensor& x) const { return apply(x); }

Tensor Dense::backward(const Tensor& grad_out) {
  const int n = input_.dim(0), in = weight.dim(1), out = weight.dim(0);
  // dL/dx = g · W (accumulates over `out` ascending, as the old o-loop did).
  Tensor grad_in({n, in});
  gemm(Trans::No, Trans::No, n, in, out, 1.0f, grad_out.data(), out,
       weight.data(), in, 0.0f, grad_in.data(), in);
  // dL/dW += g^T · x (accumulates over rows ascending, as the old i-loop did).
  gemm(Trans::Yes, Trans::No, out, in, n, 1.0f, grad_out.data(), out,
       input_.data(), in, 1.0f, weight_grad.data(), in);
  for (int i = 0; i < n; ++i) {
    const float* gr = grad_out.data() + static_cast<std::size_t>(i) * out;
    for (int o = 0; o < out; ++o) bias_grad[static_cast<std::size_t>(o)] += gr[o];
  }
  return grad_in;
}

std::vector<Param> Dense::params() {
  return {{&weight, &weight_grad}, {&bias, &bias_grad}};
}

// ---------------------------------------------------------------- ReLU

// The elementwise layers are branch-free selects over __restrict pointers,
// so each `omp simd` loop vectorizes (scripts/simd_audit.sh) instead of
// paying a mispredicted branch per activation. NaN > 0 and -0.0f > 0 are
// false, so both map to +0.0f.

Tensor ReLU::forward(const Tensor& x) {
  mask_ = Tensor(x.shape());
  Tensor y(x.shape());
  const float* __restrict in = x.data();
  float* __restrict mask = mask_.data();
  float* __restrict out = y.data();
  const std::size_t n = x.size();
#pragma omp simd
  for (std::size_t i = 0; i < n; ++i) {
    const bool on = in[i] > 0.0f;
    mask[i] = on ? 1.0f : 0.0f;
    out[i] = on ? in[i] : 0.0f;
  }
  return y;
}

Tensor ReLU::infer(const Tensor& x) const {
  Tensor y(x.shape());
  const float* __restrict in = x.data();
  float* __restrict out = y.data();
  const std::size_t n = x.size();
#pragma omp simd
  for (std::size_t i = 0; i < n; ++i) out[i] = in[i] > 0.0f ? in[i] : 0.0f;
  return y;
}

Tensor ReLU::backward(const Tensor& grad_out) {
  check_same_shape(grad_out, mask_, "ReLU::backward");
  Tensor g(grad_out.shape());
  for (std::size_t i = 0; i < g.size(); ++i) g[i] = grad_out[i] * mask_[i];
  return g;
}

// ---------------------------------------------------------------- Sigmoid

Tensor Sigmoid::forward(const Tensor& x) {
  output_ = Tensor(x.shape());
  for (std::size_t i = 0; i < x.size(); ++i)
    output_[i] = 1.0f / (1.0f + std::exp(-x[i]));
  return output_;
}

Tensor Sigmoid::infer(const Tensor& x) const {
  Tensor y(x.shape());
  for (std::size_t i = 0; i < x.size(); ++i)
    y[i] = 1.0f / (1.0f + std::exp(-x[i]));
  return y;
}

Tensor Sigmoid::backward(const Tensor& grad_out) {
  Tensor g(grad_out.shape());
  for (std::size_t i = 0; i < g.size(); ++i)
    g[i] = grad_out[i] * output_[i] * (1.0f - output_[i]);
  return g;
}

// ---------------------------------------------------------------- Conv3x3

namespace {

/// Unfold one image (cin, h, w) into the (cin*9) × (h*w) column matrix of
/// the 3x3 same-padding convolution. Row k = ci*9 + (di+1)*3 + (dj+1) holds
/// the input shifted by (di, dj), zero outside the image — the k index
/// matches the (Cout, Cin, 3, 3) weight layout flattened per output
/// channel. Only backward unfolds: dW needs the column matrix itself.
void im2col3x3(const float* x, int cin, int h, int w, float* col) {
  const std::size_t hw = static_cast<std::size_t>(h) * w;
  for (int ci = 0; ci < cin; ++ci) {
    const float* plane = x + static_cast<std::size_t>(ci) * hw;
    for (int di = -1; di <= 1; ++di) {
      for (int dj = -1; dj <= 1; ++dj) {
        float* row = col + static_cast<std::size_t>(ci * 9 + (di + 1) * 3 +
                                                    (dj + 1)) * hw;
        // Columns [j0, j1) read the image; the one column a horizontal
        // shift pushes off the edge is zero.
        const int j0 = std::max(0, -dj), j1 = std::min(w, w - dj);
        for (int i = 0; i < h; ++i) {
          float* dst = row + static_cast<std::size_t>(i) * w;
          const int ii = i + di;
          if (ii < 0 || ii >= h || j0 >= j1) {
            std::fill(dst, dst + w, 0.0f);
            continue;
          }
          const float* __restrict s =
              plane + static_cast<std::size_t>(ii) * w + (j0 + dj);
          float* __restrict d = dst + j0;
#pragma omp simd
          for (int j = 0; j < j1 - j0; ++j) d[j] = s[j];
          if (j0 > 0) dst[0] = 0.0f;
          if (j1 < w) dst[w - 1] = 0.0f;
        }
      }
    }
  }
}

/// Fold a (cin*9) × (h*w) gradient column matrix back into one image's
/// (cin, h, w) input gradient, summing overlapping taps and dropping the
/// padding positions.
void col2im3x3(const float* col, int cin, int h, int w, float* gx) {
  const std::size_t hw = static_cast<std::size_t>(h) * w;
  for (int ci = 0; ci < cin; ++ci) {
    float* plane = gx + static_cast<std::size_t>(ci) * hw;
    for (int di = -1; di <= 1; ++di) {
      for (int dj = -1; dj <= 1; ++dj) {
        const float* row = col + static_cast<std::size_t>(ci * 9 + (di + 1) * 3 +
                                                          (dj + 1)) * hw;
        const int j0 = std::max(0, -dj), j1 = std::min(w, w - dj);
        for (int i = 0; i < h; ++i) {
          const int ii = i + di;
          if (ii < 0 || ii >= h || j0 >= j1) continue;
          float* dst = plane + static_cast<std::size_t>(ii) * w + dj;
          const float* src = row + static_cast<std::size_t>(i) * w;
          for (int j = j0; j < j1; ++j) dst[j] += src[j];
        }
      }
    }
  }
}

}  // namespace

Conv3x3::Conv3x3(int in_channels, int out_channels, common::Rng& rng)
    : weight(Tensor::randn({out_channels, in_channels, 3, 3}, rng,
                           std::sqrt(2.0f / (9.0f * in_channels)))),
      bias({out_channels}),
      weight_grad({out_channels, in_channels, 3, 3}),
      bias_grad({out_channels}) {}

Tensor Conv3x3::apply(const Tensor& x) const {
  if (x.rank() != 4 || x.dim(1) != weight.dim(1))
    throw std::invalid_argument("Conv3x3::forward: bad input " + x.shape_string());
  const int n = x.dim(0), cin = x.dim(1), h = x.dim(2), w = x.dim(3);
  const int cout = weight.dim(0);
  const std::size_t hw = static_cast<std::size_t>(h) * w;
  Tensor y({n, cout, h, w});
  // Per image: Y_b (cout × h·w) = bias + W (cout × cin*9) · im2col(x_b), as
  // one implicit GEMM that reads each tap straight from the padded image
  // (conv3x3_gemm). Images write disjoint output slabs, so fanning out over
  // the pool keeps results identical to the serial pass.
  common::parallel_for(0, static_cast<std::size_t>(n), [&](std::size_t b) {
    float* yb = y.data() + b * cout * hw;
    for (int co = 0; co < cout; ++co) {
      float* __restrict row = yb + static_cast<std::size_t>(co) * hw;
      const float bv = bias[static_cast<std::size_t>(co)];
#pragma omp simd
      for (std::size_t p = 0; p < hw; ++p) row[p] = bv;
    }
    conv3x3_gemm(cout, cin, h, w, weight.data(), x.data() + b * cin * hw, yb);
  });
  return y;
}

Tensor Conv3x3::forward(const Tensor& x) {
  Tensor y = apply(x);
  input_ = x;
  return y;
}

Tensor Conv3x3::infer(const Tensor& x) const { return apply(x); }

Tensor Conv3x3::backward(const Tensor& grad_out) {
  const int n = input_.dim(0), cin = input_.dim(1), h = input_.dim(2),
            w = input_.dim(3);
  const int cout = weight.dim(0);
  const int kdim = cin * 9;
  const std::size_t hw = static_cast<std::size_t>(h) * w;
  Tensor grad_in({n, cin, h, w});
  // Pass 1 — input gradients, independent per image (disjoint slabs, safe to
  // fan out): dcol_b = W^T · g_b, then fold back with col2im. The dcol GEMM
  // (M = 9·cin) fans its row panels out again, nested in the image's job.
  auto run_image = [&](std::size_t b) {
    std::vector<float> dcol(static_cast<std::size_t>(kdim) * hw);
    gemm(Trans::Yes, Trans::No, kdim, static_cast<int>(hw), cout, 1.0f,
         weight.data(), kdim, grad_out.data() + b * cout * hw,
         static_cast<int>(hw), 0.0f, dcol.data(), static_cast<int>(hw));
    col2im3x3(dcol.data(), cin, h, w, grad_in.data() + b * cin * hw);
  };
  common::parallel_for(0, static_cast<std::size_t>(n), run_image);
  // Pass 2 — parameter gradients, accumulated serially in ascending image
  // order so results never depend on the pool size:
  // dW += g_b · im2col(x_b)^T, db += row sums of g_b.
  std::vector<float> col(static_cast<std::size_t>(kdim) * hw);
  for (std::size_t b = 0; b < static_cast<std::size_t>(n); ++b) {
    im2col3x3(input_.data() + b * cin * hw, cin, h, w, col.data());
    const float* gb = grad_out.data() + b * cout * hw;
    gemm(Trans::No, Trans::Yes, cout, kdim, static_cast<int>(hw), 1.0f, gb,
         static_cast<int>(hw), col.data(), static_cast<int>(hw), 1.0f,
         weight_grad.data(), kdim);
    for (int co = 0; co < cout; ++co) {
      const float* row = gb + static_cast<std::size_t>(co) * hw;
      float& bg = bias_grad[static_cast<std::size_t>(co)];
      for (std::size_t p = 0; p < hw; ++p) bg += row[p];
    }
  }
  return grad_in;
}

std::vector<Param> Conv3x3::params() {
  return {{&weight, &weight_grad}, {&bias, &bias_grad}};
}

// ---------------------------------------------------------------- MaxPool2

// Each window is scanned (0,0), (0,1), (1,0), (1,1) from -1e30f with a
// strict `v > best` select, so ties keep the first position and a NaN never
// wins; `arg` starts at 0, the index reported when nothing beats -1e30f.

namespace {

/// One output row of 2x2 max pooling: window j covers r0[2j], r0[2j+1],
/// r1[2j], r1[2j+1].
void maxpool2_row(const float* __restrict r0, const float* __restrict r1,
                  float* __restrict out, int ow) {
#pragma omp simd
  for (int j = 0; j < ow; ++j) {
    float best = -1e30f;
    best = r0[2 * j] > best ? r0[2 * j] : best;
    best = r0[2 * j + 1] > best ? r0[2 * j + 1] : best;
    best = r1[2 * j] > best ? r1[2 * j] : best;
    best = r1[2 * j + 1] > best ? r1[2 * j + 1] : best;
    out[j] = best;
  }
}

/// maxpool2_row plus the flat input index of each maximum; `flat0` is the
/// flat index of r0[0] and `w` the input row stride.
void maxpool2_row_argmax(const float* __restrict r0, const float* __restrict r1,
                         float* __restrict out, int* __restrict arg, int ow,
                         int flat0, int w) {
#pragma omp simd
  for (int j = 0; j < ow; ++j) {
    const int f = flat0 + 2 * j;
    float best = -1e30f;
    int at = 0;
    bool take = r0[2 * j] > best;
    best = take ? r0[2 * j] : best;
    at = take ? f : at;
    take = r0[2 * j + 1] > best;
    best = take ? r0[2 * j + 1] : best;
    at = take ? f + 1 : at;
    take = r1[2 * j] > best;
    best = take ? r1[2 * j] : best;
    at = take ? f + w : at;
    take = r1[2 * j + 1] > best;
    best = take ? r1[2 * j + 1] : best;
    at = take ? f + w + 1 : at;
    out[j] = best;
    arg[j] = at;
  }
}

}  // namespace

Tensor MaxPool2::apply(const Tensor& x, std::vector<int>* argmax) const {
  const int n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const int oh = h / 2, ow = w / 2;
  Tensor y({n, c, oh, ow});
  if (argmax) argmax->assign(y.size(), 0);
  for (int p = 0; p < n * c; ++p) {  // one (image, channel) plane at a time
    for (int i = 0; i < oh; ++i) {
      const int flat0 = (p * h + 2 * i) * w;
      const float* r0 = x.data() + flat0;
      const std::size_t o = (static_cast<std::size_t>(p) * oh + i) * ow;
      if (argmax)
        maxpool2_row_argmax(r0, r0 + w, y.data() + o, argmax->data() + o, ow,
                            flat0, w);
      else
        maxpool2_row(r0, r0 + w, y.data() + o, ow);
    }
  }
  return y;
}

Tensor MaxPool2::forward(const Tensor& x) {
  in_shape_ = x.shape();
  return apply(x, &argmax_);
}

Tensor MaxPool2::infer(const Tensor& x) const { return apply(x, nullptr); }

Tensor MaxPool2::backward(const Tensor& grad_out) {
  Tensor grad_in(in_shape_);
  for (std::size_t i = 0; i < grad_out.size(); ++i)
    grad_in[static_cast<std::size_t>(argmax_[i])] += grad_out[i];
  return grad_in;
}

// ---------------------------------------------------------------- Flatten

Tensor Flatten::forward(const Tensor& x) {
  in_shape_ = x.shape();
  int rest = 1;
  for (int d = 1; d < x.rank(); ++d) rest *= x.dim(d);
  return x.reshaped({x.dim(0), rest});
}

Tensor Flatten::infer(const Tensor& x) const {
  int rest = 1;
  for (int d = 1; d < x.rank(); ++d) rest *= x.dim(d);
  return x.reshaped({x.dim(0), rest});
}

Tensor Flatten::backward(const Tensor& grad_out) {
  return grad_out.reshaped(in_shape_);
}

// ---------------------------------------------------------------- Residual

ResidualBlock::ResidualBlock(int channels, common::Rng& rng)
    : conv1_(channels, channels, rng), conv2_(channels, channels, rng) {}

Tensor ResidualBlock::forward(const Tensor& x) {
  Tensor h = conv2_.forward(relu1_.forward(conv1_.forward(x)));
  h += x;
  return relu_out_.forward(h);
}

Tensor ResidualBlock::infer(const Tensor& x) const {
  Tensor h = conv2_.infer(relu1_.infer(conv1_.infer(x)));
  h += x;
  return relu_out_.infer(h);
}

Tensor ResidualBlock::backward(const Tensor& grad_out) {
  const Tensor g = relu_out_.backward(grad_out);
  Tensor gx = conv1_.backward(relu1_.backward(conv2_.backward(g)));
  gx += g;  // the identity skip
  return gx;
}

std::vector<Param> ResidualBlock::params() {
  auto p = conv1_.params();
  for (auto q : conv2_.params()) p.push_back(q);
  return p;
}

// ------------------------------------------------------------- serialization

namespace {
constexpr std::uint32_t kWeightsMagic = 0x57504d49;  // "IMPW"
}

void save_parameters(Layer& layer, const std::string& path) {
  const auto params = layer.params();
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) throw std::runtime_error("save_parameters: cannot open " + path);
  auto put_u32 = [&](std::uint32_t v) {
    f.write(reinterpret_cast<const char*>(&v), sizeof v);
  };
  put_u32(kWeightsMagic);
  put_u32(static_cast<std::uint32_t>(params.size()));
  for (const auto& p : params) {
    put_u32(static_cast<std::uint32_t>(p.value->rank()));
    for (int d = 0; d < p.value->rank(); ++d)
      put_u32(static_cast<std::uint32_t>(p.value->dim(d)));
    f.write(reinterpret_cast<const char*>(p.value->data()),
            static_cast<std::streamsize>(p.value->size() * sizeof(float)));
  }
}

void load_parameters(Layer& layer, const std::string& path) {
  const auto params = layer.params();
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("load_parameters: cannot open " + path);
  auto get_u32 = [&]() {
    std::uint32_t v = 0;
    f.read(reinterpret_cast<char*>(&v), sizeof v);
    if (!f) throw std::runtime_error("load_parameters: truncated file");
    return v;
  };
  if (get_u32() != kWeightsMagic)
    throw std::runtime_error("load_parameters: bad magic in " + path);
  if (get_u32() != params.size())
    throw std::runtime_error("load_parameters: parameter count mismatch");
  for (const auto& p : params) {
    if (static_cast<int>(get_u32()) != p.value->rank())
      throw std::runtime_error("load_parameters: rank mismatch");
    for (int d = 0; d < p.value->rank(); ++d)
      if (static_cast<int>(get_u32()) != p.value->dim(d))
        throw std::runtime_error("load_parameters: shape mismatch");
    f.read(reinterpret_cast<char*>(p.value->data()),
           static_cast<std::streamsize>(p.value->size() * sizeof(float)));
    if (!f) throw std::runtime_error("load_parameters: truncated weights");
  }
}

// ---------------------------------------------------------------- Sequential

Tensor Sequential::forward(const Tensor& x) {
  Tensor cur = x;
  for (auto& l : layers_) cur = l->forward(cur);
  return cur;
}

Tensor Sequential::infer(const Tensor& x) const {
  Tensor cur = x;
  for (const auto& l : layers_) cur = l->infer(cur);
  return cur;
}

Tensor Sequential::backward(const Tensor& grad_out) {
  Tensor cur = grad_out;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it)
    cur = (*it)->backward(cur);
  return cur;
}

std::vector<Param> Sequential::params() {
  std::vector<Param> out;
  for (auto& l : layers_)
    for (auto p : l->params()) out.push_back(p);
  return out;
}

}  // namespace impeccable::ml
