#pragma once
// 3D adversarial autoencoder over Cα point clouds — the S2 model
// (Sec. 5.1.4 / 7.1.3): PointNet encoder, Chamfer reconstruction loss, and a
// Wasserstein critic that matches the latent distribution to a Gaussian
// prior (σ = 0.2, as in the paper).
//
// Substitution note (DESIGN.md): the paper's WGAN uses a gradient penalty;
// with manual backprop a double gradient is impractical, so we use the
// original WGAN weight clipping, which enforces the same 1-Lipschitz
// constraint and preserves the latent-matching behaviour.

#include <cstdint>
#include <vector>

#include "impeccable/common/rng.hpp"
#include "impeccable/common/vec3.hpp"
#include "impeccable/ml/layers.hpp"
#include "impeccable/ml/optim.hpp"

namespace impeccable::ml {

/// PointNet-lite: shared per-point MLP -> max pool over points -> latent.
class PointNetEncoder : public Layer {
 public:
  PointNetEncoder(int points, int latent_dim, int hidden, common::Rng& rng);

  /// x: (N, P, 3) -> (N, latent).
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Param> params() override;

  int points() const { return points_; }
  int latent_dim() const { return latent_; }

 private:
  int points_, latent_, hidden_;
  Dense point_mlp1_, point_mlp2_;
  ReLU relu1_, relu2_;
  Dense head_;
  std::vector<int> argmax_;  ///< pooling provenance, (N * hidden)
  int batch_ = 0;
};

struct AaeOptions {
  int latent_dim = 16;
  int hidden = 64;
  int epochs = 15;
  int batch_size = 16;
  float learning_rate = 1e-3f;  ///< RMSprop, as in the paper
  float recon_scale = 0.5f;     ///< paper: "reconstruction loss scaled by 0.5"
  float adv_scale = 0.05f;
  int critic_steps = 2;
  float weight_clip = 0.05f;
  float prior_std = 0.2f;       ///< paper: Gaussian prior with σ = 0.2
  float validation_fraction = 0.2f;
  std::uint64_t seed = 0xaae3dULL;
};

struct AaeEpochStats {
  float reconstruction = 0.0f;   ///< mean Chamfer on training batches
  float validation = 0.0f;       ///< Chamfer on the validation split
  float critic = 0.0f;           ///< mean Wasserstein critic loss
};

struct AaeTrainReport {
  std::vector<AaeEpochStats> epochs;
};

class Aae3d {
 public:
  /// `points` is the fixed cloud size (e.g. protein residue count).
  Aae3d(int points, const AaeOptions& opts = {});

  /// Train on centered point clouds (all of size `points`).
  AaeTrainReport train(const std::vector<std::vector<common::Vec3>>& clouds);

  /// Latent embedding of one cloud.
  std::vector<double> embed(const std::vector<common::Vec3>& cloud);
  std::vector<std::vector<double>> embed_batch(
      const std::vector<std::vector<common::Vec3>>& clouds);

  const AaeOptions& options() const { return opts_; }
  int points() const { return points_; }

  /// Flops for one training sample forward+backward (Table 3 S2 model).
  std::uint64_t flops_per_sample() const;

  /// Persist / restore all three networks (encoder, decoder, critic) as
  /// `<prefix>.enc` / `.dec` / `.critic`. Architectures must match on load.
  void save_weights(const std::string& prefix);
  void load_weights(const std::string& prefix);

 private:
  Tensor to_tensor(const std::vector<std::vector<common::Vec3>>& clouds,
                   std::size_t begin, std::size_t count) const;

  int points_;
  AaeOptions opts_;
  common::Rng rng_;
  PointNetEncoder encoder_;
  Sequential decoder_;
  Sequential critic_;
  std::unique_ptr<Optimizer> enc_opt_, dec_opt_, critic_opt_;
};

}  // namespace impeccable::ml
