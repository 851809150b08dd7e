#pragma once
// ML1 — the deep-learning docking-score emulator (Sec. 5.1.2 / 6.1.1).
//
// A small residual CNN over 2D molecule depictions regresses the docking
// score, mapped into [0, 1] with "higher score = lower binding energy =
// higher docking probability" exactly as the paper defines its targets.
// The paper's network is a ResNet-50 on large images; ours is a scaled-down
// residual CNN with the same role, trainable in seconds on CPU.

#include <cstdint>
#include <memory>
#include <vector>

#include "impeccable/chem/depiction.hpp"
#include "impeccable/ml/layers.hpp"
#include "impeccable/ml/optim.hpp"

namespace impeccable::ml {

struct SurrogateOptions {
  int channels = 4, height = 32, width = 32;
  int base_filters = 8;
  int epochs = 6;
  int batch_size = 16;
  float learning_rate = 1e-3f;
  float validation_fraction = 0.2f;
  std::uint64_t seed = 0x5002d09a7eULL;
};

struct EpochStats {
  float train_loss = 0.0f;
  float validation_loss = 0.0f;
};

struct TrainReport {
  std::vector<EpochStats> epochs;
};

/// Map a docking score (binding energy, lower = better) into the [0, 1]
/// training target given the score range of the training set.
float score_to_label(double dock_score, double best, double worst);

class SurrogateModel {
 public:
  explicit SurrogateModel(const SurrogateOptions& opts = {});

  /// Train on depiction images + [0, 1] labels. Data is shuffled and split
  /// into train/validation deterministically from the seed.
  TrainReport train(const std::vector<chem::Image>& images,
                    const std::vector<float>& labels);

  /// Predicted label in [0, 1] (higher = more likely strong binder).
  ///
  /// Thread safety: predict/predict_batch are const and run the network's
  /// cache-free infer() path with per-image scratch, so any number of threads
  /// may score through one model concurrently (the serving path depends on
  /// this). predict_batch runs one job per image through
  /// common::parallel_for, serially when no compute pool is installed.
  /// Outputs are bitwise identical to the training-time forward and
  /// independent of the pool size.
  /// train() mutates the weights and must not overlap with predictions.
  float predict(const chem::Image& image) const;
  std::vector<float> predict_batch(const std::vector<chem::Image>& images) const;

  const SurrogateOptions& options() const { return opts_; }

  /// Analytic flop count for one forward pass on one image (Table 3's ML1
  /// work-unit model).
  std::uint64_t flops_per_image() const;

  /// Persist / restore the network weights (Sec. 6.1.1: deployment loads
  /// "the weights from the pre-trained model file"). The loading model must
  /// have been constructed with the same architecture options; mismatches
  /// throw std::runtime_error.
  void save_weights(const std::string& path);
  void load_weights(const std::string& path);

 private:
  /// Copy one image into `dst`; throws unless its shape matches the model.
  void copy_image(const chem::Image& image, float* dst) const;
  /// Pack `count` images starting at `begin` into `x`, reusing its buffer
  /// when the shape already matches (one scratch Tensor serves all batches).
  void to_tensor(const std::vector<chem::Image>& images, std::size_t begin,
                 std::size_t count, Tensor& x) const;
  /// The cache-free infer() path on a 1-image tensor: one image's score.
  float infer_one(const chem::Image& image) const;

  SurrogateOptions opts_;
  Sequential net_;
  std::unique_ptr<Optimizer> optimizer_;
};

}  // namespace impeccable::ml
