#include "impeccable/ml/aae.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "impeccable/ml/loss.hpp"

namespace impeccable::ml {

// ------------------------------------------------------------- encoder

PointNetEncoder::PointNetEncoder(int points, int latent_dim, int hidden,
                                 common::Rng& rng)
    : points_(points), latent_(latent_dim), hidden_(hidden),
      point_mlp1_(3, hidden / 2, rng),
      point_mlp2_(hidden / 2, hidden, rng),
      head_(hidden, latent_dim, rng) {}

Tensor PointNetEncoder::forward(const Tensor& x) {
  if (x.rank() != 3 || x.dim(1) != points_ || x.dim(2) != 3)
    throw std::invalid_argument("PointNetEncoder: expected (N, P, 3), got " +
                                x.shape_string());
  batch_ = x.dim(0);
  const int np = batch_ * points_;

  // Shared MLP over flattened points.
  Tensor flat = x.reshaped({np, 3});
  Tensor h = relu2_.forward(point_mlp2_.forward(
      relu1_.forward(point_mlp1_.forward(flat))));  // (N*P, hidden)

  // Max pool over the point dimension, remembering the winners.
  Tensor pooled({batch_, hidden_});
  argmax_.assign(static_cast<std::size_t>(batch_) * hidden_, 0);
  for (int b = 0; b < batch_; ++b) {
    for (int f = 0; f < hidden_; ++f) {
      float best = -1e30f;
      int best_row = b * points_;
      for (int p = 0; p < points_; ++p) {
        const float v = h.at(b * points_ + p, f);
        if (v > best) {
          best = v;
          best_row = b * points_ + p;
        }
      }
      pooled.at(b, f) = best;
      argmax_[static_cast<std::size_t>(b) * hidden_ + f] = best_row;
    }
  }
  return head_.forward(pooled);
}

Tensor PointNetEncoder::backward(const Tensor& grad_out) {
  const Tensor g_pooled = head_.backward(grad_out);  // (N, hidden)
  Tensor g_points({batch_ * points_, hidden_});
  for (int b = 0; b < batch_; ++b)
    for (int f = 0; f < hidden_; ++f)
      g_points.at(argmax_[static_cast<std::size_t>(b) * hidden_ + f], f) +=
          g_pooled.at(b, f);
  const Tensor g_flat = point_mlp1_.backward(
      relu1_.backward(point_mlp2_.backward(relu2_.backward(g_points))));
  return g_flat.reshaped({batch_, points_, 3});
}

std::vector<Param> PointNetEncoder::params() {
  std::vector<Param> out;
  for (auto p : point_mlp1_.params()) out.push_back(p);
  for (auto p : point_mlp2_.params()) out.push_back(p);
  for (auto p : head_.params()) out.push_back(p);
  return out;
}

// ------------------------------------------------------------- Aae3d

Aae3d::Aae3d(int points, const AaeOptions& opts)
    : points_(points), opts_(opts), rng_(opts.seed),
      encoder_(points, opts.latent_dim, opts.hidden, rng_) {
  decoder_.add(std::make_unique<Dense>(opts.latent_dim, opts.hidden, rng_));
  decoder_.add(std::make_unique<ReLU>());
  decoder_.add(std::make_unique<Dense>(opts.hidden, points * 3, rng_));

  critic_.add(std::make_unique<Dense>(opts.latent_dim, 32, rng_));
  critic_.add(std::make_unique<ReLU>());
  critic_.add(std::make_unique<Dense>(32, 1, rng_));

  enc_opt_ = std::make_unique<RmsProp>(encoder_.params(), opts.learning_rate);
  dec_opt_ = std::make_unique<RmsProp>(decoder_.params(), opts.learning_rate);
  critic_opt_ = std::make_unique<RmsProp>(critic_.params(), opts.learning_rate);
}

Tensor Aae3d::to_tensor(const std::vector<std::vector<common::Vec3>>& clouds,
                        std::size_t begin, std::size_t count) const {
  Tensor x({static_cast<int>(count), points_, 3});
  for (std::size_t b = 0; b < count; ++b) {
    const auto& cloud = clouds[begin + b];
    if (static_cast<int>(cloud.size()) != points_)
      throw std::invalid_argument("Aae3d: cloud size mismatch");
    for (int p = 0; p < points_; ++p) {
      const std::size_t base = (b * points_ + p) * 3;
      x[base] = static_cast<float>(cloud[static_cast<std::size_t>(p)].x);
      x[base + 1] = static_cast<float>(cloud[static_cast<std::size_t>(p)].y);
      x[base + 2] = static_cast<float>(cloud[static_cast<std::size_t>(p)].z);
    }
  }
  return x;
}

AaeTrainReport Aae3d::train(const std::vector<std::vector<common::Vec3>>& clouds) {
  if (clouds.empty()) throw std::invalid_argument("Aae3d::train: empty dataset");

  std::vector<std::size_t> order(clouds.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  rng_.shuffle(order);
  const std::size_t val_count = std::min(
      clouds.size() - 1,
      static_cast<std::size_t>(opts_.validation_fraction * clouds.size()));
  const std::size_t train_count = clouds.size() - val_count;

  std::vector<std::vector<common::Vec3>> tr, va;
  for (std::size_t k = 0; k < train_count; ++k) tr.push_back(clouds[order[k]]);
  for (std::size_t k = train_count; k < clouds.size(); ++k)
    va.push_back(clouds[order[k]]);

  AaeTrainReport report;
  for (int epoch = 0; epoch < opts_.epochs; ++epoch) {
    AaeEpochStats stats;
    std::size_t batches = 0;
    for (std::size_t at = 0; at < tr.size(); at += opts_.batch_size) {
      const std::size_t bs = std::min<std::size_t>(opts_.batch_size, tr.size() - at);
      const int b = static_cast<int>(bs);
      const Tensor x = to_tensor(tr, at, bs);

      // ---- critic updates (WGAN with weight clipping) ----
      Tensor z = encoder_.forward(x);  // (B, latent)
      for (int cstep = 0; cstep < opts_.critic_steps; ++cstep) {
        Tensor prior({b, opts_.latent_dim});
        for (std::size_t i = 0; i < prior.size(); ++i)
          prior[i] = static_cast<float>(rng_.gauss(0.0, opts_.prior_std));

        // loss_c = mean(D(fake)) - mean(D(prior)); minimize.
        const Tensor d_fake = critic_.forward(z);
        Tensor g_fake({b, 1});
        g_fake.fill(1.0f / b);
        critic_.backward(g_fake);

        const Tensor d_prior = critic_.forward(prior);
        Tensor g_prior({b, 1});
        g_prior.fill(-1.0f / b);
        critic_.backward(g_prior);

        float lc = 0.0f;
        for (int i = 0; i < b; ++i) lc += (d_fake[static_cast<std::size_t>(i)] -
                                           d_prior[static_cast<std::size_t>(i)]) / b;
        stats.critic += lc;

        critic_opt_->step();
        clip_weights(critic_.params(), opts_.weight_clip);
      }

      // ---- reconstruction + adversarial generator update ----
      z = encoder_.forward(x);
      const Tensor flat = decoder_.forward(z);
      const Tensor y = flat.reshaped({b, points_, 3});
      const LossValue recon = chamfer_loss(y, x);
      stats.reconstruction += recon.value;

      Tensor g_y = recon.grad;
      g_y *= opts_.recon_scale;
      Tensor g_z = decoder_.backward(g_y.reshaped({b, points_ * 3}));
      dec_opt_->step();

      // Generator adversarial term: maximize D(z) => gradient -adv/B via
      // the critic input; critic parameter grads from this pass are
      // discarded (zeroed) — only the encoder learns here.
      critic_.forward(z);
      Tensor g_out({b, 1});
      g_out.fill(-opts_.adv_scale / b);
      Tensor g_z_adv = critic_.backward(g_out);
      critic_.zero_grad();

      g_z += g_z_adv;
      encoder_.backward(g_z);
      enc_opt_->step();
      ++batches;
    }
    if (batches) {
      stats.reconstruction /= static_cast<float>(batches);
      stats.critic /= static_cast<float>(batches * opts_.critic_steps);
    }

    if (!va.empty()) {
      const Tensor xv = to_tensor(va, 0, va.size());
      const Tensor zv = encoder_.forward(xv);
      const Tensor yv =
          decoder_.forward(zv).reshaped({static_cast<int>(va.size()), points_, 3});
      stats.validation = chamfer_loss(yv, xv).value;
      // Clear caches' effect on gradients is irrelevant: no backward here.
    }
    report.epochs.push_back(stats);
  }
  return report;
}

std::vector<double> Aae3d::embed(const std::vector<common::Vec3>& cloud) {
  return embed_batch({cloud}).front();
}

std::vector<std::vector<double>> Aae3d::embed_batch(
    const std::vector<std::vector<common::Vec3>>& clouds) {
  std::vector<std::vector<double>> out;
  out.reserve(clouds.size());
  const std::size_t chunk = 64;
  for (std::size_t at = 0; at < clouds.size(); at += chunk) {
    const std::size_t bs = std::min(chunk, clouds.size() - at);
    const Tensor z = encoder_.forward(to_tensor(clouds, at, bs));
    for (std::size_t i = 0; i < bs; ++i) {
      std::vector<double> row(static_cast<std::size_t>(opts_.latent_dim));
      for (int d = 0; d < opts_.latent_dim; ++d)
        row[static_cast<std::size_t>(d)] = z.at(static_cast<int>(i), d);
      out.push_back(std::move(row));
    }
  }
  return out;
}

void Aae3d::save_weights(const std::string& prefix) {
  save_parameters(encoder_, prefix + ".enc");
  save_parameters(decoder_, prefix + ".dec");
  save_parameters(critic_, prefix + ".critic");
}

void Aae3d::load_weights(const std::string& prefix) {
  load_parameters(encoder_, prefix + ".enc");
  load_parameters(decoder_, prefix + ".dec");
  load_parameters(critic_, prefix + ".critic");
}

std::uint64_t Aae3d::flops_per_sample() const {
  const std::uint64_t p = points_, h = opts_.hidden, l = opts_.latent_dim;
  // Encoder: per-point MLP (3->h/2->h) + head (h->l); decoder mirrors it;
  // factor 3 for forward+backward.
  const std::uint64_t enc = p * (2 * 3 * (h / 2) + 2 * (h / 2) * h) + 2 * h * l;
  const std::uint64_t dec = 2 * l * h + 2 * h * (p * 3);
  const std::uint64_t critic = 2 * l * 32 + 2 * 32;
  return 3 * (enc + dec + critic);
}

}  // namespace impeccable::ml
