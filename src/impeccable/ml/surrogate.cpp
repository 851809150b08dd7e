#include "impeccable/ml/surrogate.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "impeccable/common/rng.hpp"
#include "impeccable/common/thread_pool.hpp"
#include "impeccable/ml/loss.hpp"
#include "impeccable/obs/recorder.hpp"

namespace impeccable::ml {

float score_to_label(double dock_score, double best, double worst) {
  if (worst <= best) return 0.5f;
  const double t = (worst - dock_score) / (worst - best);
  return static_cast<float>(std::clamp(t, 0.0, 1.0));
}

SurrogateModel::SurrogateModel(const SurrogateOptions& opts) : opts_(opts) {
  common::Rng rng(opts.seed);
  const int f = opts.base_filters;
  net_.add(std::make_unique<Conv3x3>(opts.channels, f, rng));
  net_.add(std::make_unique<ReLU>());
  net_.add(std::make_unique<MaxPool2>());  // H/2
  net_.add(std::make_unique<Conv3x3>(f, 2 * f, rng));
  net_.add(std::make_unique<ReLU>());
  net_.add(std::make_unique<MaxPool2>());  // H/4
  net_.add(std::make_unique<ResidualBlock>(2 * f, rng));
  net_.add(std::make_unique<MaxPool2>());  // H/8
  net_.add(std::make_unique<Flatten>());
  const int flat = 2 * f * (opts.height / 8) * (opts.width / 8);
  net_.add(std::make_unique<Dense>(flat, 32, rng));
  net_.add(std::make_unique<ReLU>());
  net_.add(std::make_unique<Dense>(32, 1, rng));
  net_.add(std::make_unique<Sigmoid>());
  optimizer_ = std::make_unique<Adam>(net_.params(), opts.learning_rate);
}

void SurrogateModel::copy_image(const chem::Image& im, float* dst) const {
  if (im.channels != opts_.channels || im.height != opts_.height ||
      im.width != opts_.width)
    throw std::invalid_argument("SurrogateModel: image shape mismatch");
  std::copy(im.data.begin(), im.data.end(), dst);
}

void SurrogateModel::to_tensor(const std::vector<chem::Image>& images,
                               std::size_t begin, std::size_t count,
                               Tensor& x) const {
  if (x.rank() != 4 || x.dim(0) != static_cast<int>(count) ||
      x.dim(1) != opts_.channels || x.dim(2) != opts_.height ||
      x.dim(3) != opts_.width)
    x = Tensor({static_cast<int>(count), opts_.channels, opts_.height,
                opts_.width});
  const std::size_t per_image = x.size() / count;
  for (std::size_t b = 0; b < count; ++b)
    copy_image(images[begin + b], x.data() + b * per_image);
}

float SurrogateModel::infer_one(const chem::Image& image) const {
  Tensor x({1, opts_.channels, opts_.height, opts_.width});
  copy_image(image, x.data());
  return net_.infer(x)[0];
}

TrainReport SurrogateModel::train(const std::vector<chem::Image>& images,
                                  const std::vector<float>& labels) {
  if (images.size() != labels.size() || images.empty())
    throw std::invalid_argument("SurrogateModel::train: bad dataset");

  obs::Span span(obs::cat::kMl, "surrogate-train");
  span.arg("images", static_cast<double>(images.size()));
  span.arg("epochs", static_cast<double>(opts_.epochs));

  common::Rng rng(opts_.seed ^ 0x7121a);
  std::vector<std::size_t> order(images.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  rng.shuffle(order);

  const std::size_t val_count = std::min(
      images.size() - 1,
      static_cast<std::size_t>(opts_.validation_fraction * images.size()));
  const std::size_t train_count = images.size() - val_count;

  // Materialize shuffled views once.
  std::vector<chem::Image> tr_im, va_im;
  std::vector<float> tr_y, va_y;
  for (std::size_t k = 0; k < train_count; ++k) {
    tr_im.push_back(images[order[k]]);
    tr_y.push_back(labels[order[k]]);
  }
  for (std::size_t k = train_count; k < images.size(); ++k) {
    va_im.push_back(images[order[k]]);
    va_y.push_back(labels[order[k]]);
  }

  TrainReport report;
  Tensor x;  // batch scratch, reused across batches and epochs
  for (int epoch = 0; epoch < opts_.epochs; ++epoch) {
    EpochStats stats;
    std::size_t batches = 0;
    for (std::size_t at = 0; at < tr_im.size(); at += opts_.batch_size) {
      const std::size_t bs =
          std::min<std::size_t>(opts_.batch_size, tr_im.size() - at);
      to_tensor(tr_im, at, bs, x);
      Tensor target({static_cast<int>(bs), 1});
      for (std::size_t i = 0; i < bs; ++i) target[i] = tr_y[at + i];

      const Tensor pred = net_.forward(x);
      const LossValue loss = mse_loss(pred, target);
      net_.backward(loss.grad);
      optimizer_->step();
      stats.train_loss += loss.value;
      ++batches;
    }
    if (batches) stats.train_loss /= static_cast<float>(batches);

    if (!va_im.empty()) {
      to_tensor(va_im, 0, va_im.size(), x);
      Tensor target({static_cast<int>(va_im.size()), 1});
      for (std::size_t i = 0; i < va_im.size(); ++i) target[i] = va_y[i];
      stats.validation_loss = mse_loss(net_.forward(x), target).value;
    }
    report.epochs.push_back(stats);
  }
  return report;
}

float SurrogateModel::predict(const chem::Image& image) const {
  obs::Span span(obs::cat::kMl, "surrogate-predict");
  span.arg("images", 1.0);
  return infer_one(image);
}

std::vector<float> SurrogateModel::predict_batch(
    const std::vector<chem::Image>& images) const {
  obs::Span span(obs::cat::kMl, "surrogate-predict");
  span.arg("images", static_cast<double>(images.size()));
  std::vector<float> out(images.size());
  // One job per image: pack it into a 1-image tensor, run the cache-free
  // infer() path and write its own slot. Activations stay per image (about
  // 100 KB, L2-resident) and the inner layers see n == 1, so they do not
  // fan out again. No shared mutable state: concurrent calls are race-free,
  // and the output is bitwise identical for any pool size.
  common::parallel_for(0, images.size(),
                       [&](std::size_t i) { out[i] = infer_one(images[i]); });
  return out;
}

void SurrogateModel::save_weights(const std::string& path) {
  save_parameters(net_, path);
}

void SurrogateModel::load_weights(const std::string& path) {
  load_parameters(net_, path);
}

std::uint64_t SurrogateModel::flops_per_image() const {
  const int f = opts_.base_filters;
  const std::uint64_t h = opts_.height, w = opts_.width, c = opts_.channels;
  std::uint64_t flops = 0;
  // conv1: 2*9*Cin*Cout per pixel.
  flops += 2ull * 9 * c * f * h * w;
  flops += 2ull * 9 * f * (2 * f) * (h / 2) * (w / 2);
  // residual block: two convs at H/4.
  flops += 2ull * 2 * 9 * (2 * f) * (2 * f) * (h / 4) * (w / 4);
  // dense layers.
  const std::uint64_t flat = 2ull * f * (h / 8) * (w / 8);
  flops += 2ull * flat * 32 + 2ull * 32;
  return flops;
}

}  // namespace impeccable::ml
