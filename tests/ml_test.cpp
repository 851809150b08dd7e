// ML substrate tests: tensor ops, layer gradients vs finite differences,
// optimizers, losses, the ML1 surrogate (predict_batch pinned bitwise across
// compute-pool sizes), RES and the RES budget advisor, LOF, t-SNE, the
// 3D-AAE, and weight save/load for both models.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <filesystem>
#include <fstream>
#include <memory>
#include <vector>

#include "impeccable/chem/depiction.hpp"
#include "impeccable/chem/library.hpp"
#include "impeccable/chem/smiles.hpp"
#include "impeccable/chem/store.hpp"
#include "impeccable/common/thread_pool.hpp"
#include "impeccable/ml/aae.hpp"
#include "impeccable/ml/layers.hpp"
#include "impeccable/ml/lof.hpp"
#include "impeccable/ml/loss.hpp"
#include "impeccable/ml/optim.hpp"
#include "impeccable/ml/res.hpp"
#include "impeccable/ml/surrogate.hpp"
#include "impeccable/ml/tsne.hpp"

#include "test_support.hpp"

namespace ml = impeccable::ml;
namespace chem = impeccable::chem;
using impeccable::common::ComputePoolScope;
using impeccable::common::Rng;
using impeccable::common::Vec3;

namespace {

/// Numerically check dL/dx for a layer with L = sum(w ⊙ y).
void check_input_gradient(ml::Layer& layer, const ml::Tensor& x, double tol) {
  Rng rng(99);
  ml::Tensor y = layer.forward(x);
  ml::Tensor w(y.shape());
  for (std::size_t i = 0; i < w.size(); ++i)
    w[i] = static_cast<float>(rng.uniform(-1, 1));

  const ml::Tensor gx = layer.backward(w);

  auto loss_at = [&](const ml::Tensor& xin) {
    const ml::Tensor out = layer.forward(xin);
    double acc = 0;
    for (std::size_t i = 0; i < out.size(); ++i) acc += out[i] * w[i];
    return acc;
  };

  const float h = 1e-3f;
  for (int probe = 0; probe < 12; ++probe) {
    const std::size_t i = rng.index(x.size());
    ml::Tensor x1 = x, x2 = x;
    x1[i] -= h;
    x2[i] += h;
    const double fd = (loss_at(x2) - loss_at(x1)) / (2 * h);
    EXPECT_NEAR(gx[i], fd, tol) << "element " << i;
  }
  // Restore the cache for callers that keep using the layer.
  layer.forward(x);
}

/// Numerically check parameter gradients for the same loss.
void check_param_gradients(ml::Layer& layer, const ml::Tensor& x, double tol) {
  Rng rng(7);
  ml::Tensor y = layer.forward(x);
  ml::Tensor w(y.shape());
  for (std::size_t i = 0; i < w.size(); ++i)
    w[i] = static_cast<float>(rng.uniform(-1, 1));
  layer.zero_grad();
  layer.backward(w);

  auto loss_now = [&]() {
    const ml::Tensor out = layer.forward(x);
    double acc = 0;
    for (std::size_t i = 0; i < out.size(); ++i) acc += out[i] * w[i];
    return acc;
  };

  for (auto p : layer.params()) {
    for (int probe = 0; probe < 4; ++probe) {
      const std::size_t i = rng.index(p.value->size());
      const float h = 1e-3f;
      const float orig = (*p.value)[i];
      (*p.value)[i] = orig + h;
      const double up = loss_now();
      (*p.value)[i] = orig - h;
      const double dn = loss_now();
      (*p.value)[i] = orig;
      EXPECT_NEAR((*p.grad)[i], (up - dn) / (2 * h), tol);
    }
  }
}

/// The 13 depicted ligands the surrogate's predict tests score.
std::vector<chem::Image> predict_images() {
  const auto lib = chem::generate_library("PRED", 13, 41);
  std::vector<chem::Image> images;
  for (std::size_t i = 0; i < lib.size(); ++i)
    images.push_back(chem::depict(chem::parse_smiles(lib.entries[i].smiles)));
  return images;
}

bool same_tensor_bits(const ml::Tensor& a, const ml::Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

ml::Tensor random_tensor(std::vector<int> shape, std::uint64_t seed) {
  Rng rng(seed);
  ml::Tensor t(std::move(shape));
  for (std::size_t i = 0; i < t.size(); ++i)
    t[i] = static_cast<float>(rng.uniform(-1, 1));
  return t;
}

}  // namespace

// ---------------------------------------------------------------- tensor

TEST(Tensor, ShapesAndAccess) {
  ml::Tensor t({2, 3});
  t.at(1, 2) = 5.0f;
  EXPECT_EQ(t.size(), 6u);
  EXPECT_EQ(t[5], 5.0f);
  EXPECT_EQ(t.shape_string(), "(2, 3)");
}

TEST(Tensor, ReshapePreservesData) {
  ml::Tensor t({2, 6});
  for (std::size_t i = 0; i < t.size(); ++i) t[i] = static_cast<float>(i);
  const ml::Tensor r = t.reshaped({3, 4});
  EXPECT_EQ(r.at(2, 3), 11.0f);
  EXPECT_THROW(t.reshaped({5, 5}), std::invalid_argument);
}

TEST(Tensor, RejectsBadShapes) {
  EXPECT_THROW(ml::Tensor({0, 3}), std::invalid_argument);
  EXPECT_THROW(ml::Tensor({2, -1}), std::invalid_argument);
}

// ---------------------------------------------------------------- layers

TEST(Layers, DenseGradients) {
  Rng rng(1);
  ml::Dense dense(5, 4, rng);
  const auto x = random_tensor({3, 5}, 11);
  check_input_gradient(dense, x, 2e-2);
  check_param_gradients(dense, x, 2e-2);
}

TEST(Layers, Conv3x3Gradients) {
  Rng rng(2);
  ml::Conv3x3 conv(2, 3, rng);
  const auto x = random_tensor({2, 2, 5, 5}, 12);
  check_input_gradient(conv, x, 5e-2);
  check_param_gradients(conv, x, 5e-2);
}

TEST(Layers, ReluForwardBackward) {
  ml::ReLU relu;
  ml::Tensor x({1, 4});
  x[0] = -1;
  x[1] = 2;
  x[2] = 0;
  x[3] = 3;
  const auto y = relu.forward(x);
  EXPECT_EQ(y[0], 0.0f);
  EXPECT_EQ(y[1], 2.0f);
  ml::Tensor g({1, 4});
  g.fill(1.0f);
  const auto gx = relu.backward(g);
  EXPECT_EQ(gx[0], 0.0f);
  EXPECT_EQ(gx[1], 1.0f);
}

TEST(Layers, SigmoidRangeAndGradient) {
  ml::Sigmoid sig;
  const auto x = random_tensor({2, 3}, 13);
  const auto y = sig.forward(x);
  for (std::size_t i = 0; i < y.size(); ++i) {
    EXPECT_GT(y[i], 0.0f);
    EXPECT_LT(y[i], 1.0f);
  }
  check_input_gradient(sig, x, 1e-2);
}

TEST(Layers, MaxPoolSelectsMaxAndRoutesGradient) {
  ml::MaxPool2 pool;
  ml::Tensor x({1, 1, 2, 2});
  x.at(0, 0, 0, 0) = 1;
  x.at(0, 0, 0, 1) = 5;
  x.at(0, 0, 1, 0) = 2;
  x.at(0, 0, 1, 1) = 3;
  const auto y = pool.forward(x);
  ASSERT_EQ(y.size(), 1u);
  EXPECT_EQ(y[0], 5.0f);
  ml::Tensor g({1, 1, 1, 1});
  g[0] = 7.0f;
  const auto gx = pool.backward(g);
  EXPECT_EQ(gx.at(0, 0, 0, 1), 7.0f);
  EXPECT_EQ(gx.at(0, 0, 0, 0), 0.0f);
}

TEST(Layers, ReluEdgeSemantics) {
  // x > 0 ? x : 0, branch-free: -0.0f and NaN both map to +0.0f, and the
  // training forward agrees with infer() bit for bit.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const float tiny = std::numeric_limits<float>::denorm_min();
  const std::vector<float> in = {-0.0f, nan, -1.0f, inf, -inf, tiny, 2.5f, 0.0f};
  const std::vector<float> want = {0.0f, 0.0f, 0.0f, inf, 0.0f, tiny, 2.5f, 0.0f};
  ml::Tensor x({1, static_cast<int>(in.size())});
  std::copy(in.begin(), in.end(), x.data());
  ml::ReLU relu;
  const ml::Tensor y = relu.infer(x);
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(y[i], want[i]) << "element " << i;
    EXPECT_FALSE(std::signbit(y[i])) << "element " << i;
  }
  EXPECT_TRUE(same_tensor_bits(relu.forward(x), y));
  // The mask passes the gradient exactly where the output passed x.
  ml::Tensor g(x.shape());
  g.fill(3.0f);
  const ml::Tensor gx = relu.backward(g);
  for (std::size_t i = 0; i < in.size(); ++i)
    EXPECT_EQ(gx[i], in[i] > 0.0f ? 3.0f : 0.0f) << "element " << i;
}

TEST(Layers, MaxPoolEdgeSemantics) {
  // Each window is scanned (0,0), (0,1), (1,0), (1,1) from -1e30f with a
  // strict `>`: ties keep the first position, a NaN never wins, and a
  // window where nothing beats -1e30f yields -1e30f with argmax 0.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  ml::Tensor x({1, 2, 2, 6});
  const float plane0[2][6] = {{nan, 1.0f, 5.0f, 5.0f, -7.0f, -3.0f},
                              {3.0f, 2.0f, 5.0f, 5.0f, -9.0f, -3.0f}};
  const float plane1[2][6] = {{nan, nan, -inf, -2e30f, 1.0f, 4.0f},
                              {nan, nan, -inf, -1e31f, 4.0f, 2.0f}};
  for (int i = 0; i < 2; ++i)
    for (int j = 0; j < 6; ++j) {
      x.at(0, 0, i, j) = plane0[i][j];
      x.at(0, 1, i, j) = plane1[i][j];
    }
  ml::MaxPool2 pool;
  const ml::Tensor y = pool.infer(x);
  const std::vector<float> want = {3.0f, 5.0f, -3.0f, -1e30f, -1e30f, 4.0f};
  ASSERT_EQ(y.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i)
    EXPECT_EQ(y[i], want[i]) << "window " << i;
  EXPECT_TRUE(same_tensor_bits(pool.forward(x), y));

  // The argmax routes window i's gradient (i + 1) to its winner.
  ml::Tensor g({1, 2, 1, 3});
  for (std::size_t i = 0; i < g.size(); ++i) g[i] = static_cast<float>(i + 1);
  const ml::Tensor gx = pool.backward(g);
  ml::Tensor expect(x.shape());
  expect.at(0, 0, 1, 0) = 1.0f;  // the 3 beside a NaN
  expect.at(0, 0, 0, 2) = 2.0f;  // four-way tie: the first position
  expect.at(0, 0, 0, 5) = 3.0f;  // all negative, tie on -3: the first
  expect.at(0, 0, 0, 0) = 4.0f + 5.0f;  // all NaN; all below -1e30f
  expect.at(0, 1, 0, 5) = 6.0f;  // tie on 4: (0,1) before (1,0)
  EXPECT_TRUE(same_tensor_bits(gx, expect));
}

TEST(Layers, ResidualBlockGradients) {
  Rng rng(3);
  ml::ResidualBlock block(2, rng);
  const auto x = random_tensor({1, 2, 4, 4}, 14);
  check_input_gradient(block, x, 8e-2);
}

TEST(Layers, FlattenRoundTrips) {
  ml::Flatten flat;
  const auto x = random_tensor({2, 3, 4, 5}, 15);
  const auto y = flat.forward(x);
  EXPECT_EQ(y.shape(), (std::vector<int>{2, 60}));
  const auto back = flat.backward(y);
  EXPECT_EQ(back.shape(), x.shape());
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_EQ(back[i], x[i]);
}

TEST(Layers, PointNetEncoderGradients) {
  Rng rng(4);
  ml::PointNetEncoder enc(6, 3, 8, rng);
  const auto x = random_tensor({2, 6, 3}, 16);
  check_input_gradient(enc, x, 5e-2);
}

TEST(Layers, PointNetIsPermutationInvariant) {
  Rng rng(5);
  ml::PointNetEncoder enc(5, 4, 16, rng);
  auto x = random_tensor({1, 5, 3}, 17);
  const auto z1 = enc.forward(x);
  // Swap two points.
  ml::Tensor xp = x;
  for (int d = 0; d < 3; ++d)
    std::swap(xp[static_cast<std::size_t>(0 * 3 + d)],
              xp[static_cast<std::size_t>(3 * 3 + d)]);
  const auto z2 = enc.forward(xp);
  for (std::size_t i = 0; i < z1.size(); ++i) EXPECT_NEAR(z1[i], z2[i], 1e-6);
}

// ---------------------------------------------------------------- losses

TEST(Loss, MseValueAndGradient) {
  ml::Tensor p({1, 2}), t({1, 2});
  p[0] = 1;
  p[1] = 3;
  t[0] = 0;
  t[1] = 5;
  const auto l = ml::mse_loss(p, t);
  EXPECT_NEAR(l.value, (1 + 4) / 2.0, 1e-6);
  EXPECT_NEAR(l.grad[0], 2 * 1 / 2.0, 1e-6);
  EXPECT_NEAR(l.grad[1], 2 * -2 / 2.0, 1e-6);
}

TEST(Loss, BcePenalizesConfidentWrong) {
  ml::Tensor t({1, 1});
  t[0] = 1.0f;
  ml::Tensor good({1, 1}), bad({1, 1});
  good[0] = 0.9f;
  bad[0] = 0.1f;
  EXPECT_LT(ml::bce_loss(good, t).value, ml::bce_loss(bad, t).value);
}

TEST(Loss, ChamferZeroForIdenticalClouds) {
  const auto x = random_tensor({2, 4, 3}, 18);
  const auto l = ml::chamfer_loss(x, x);
  EXPECT_NEAR(l.value, 0.0, 1e-9);
  for (std::size_t i = 0; i < l.grad.size(); ++i) EXPECT_NEAR(l.grad[i], 0.0, 1e-9);
}

TEST(Loss, ChamferGradientMatchesFiniteDifference) {
  auto pred = random_tensor({1, 5, 3}, 19);
  const auto target = random_tensor({1, 5, 3}, 20);
  const auto l = ml::chamfer_loss(pred, target);
  Rng rng(21);
  for (int probe = 0; probe < 8; ++probe) {
    const std::size_t i = rng.index(pred.size());
    const float h = 1e-4f;
    ml::Tensor p1 = pred, p2 = pred;
    p1[i] -= h;
    p2[i] += h;
    const double fd = (ml::chamfer_loss(p2, target).value -
                       ml::chamfer_loss(p1, target).value) / (2 * h);
    EXPECT_NEAR(l.grad[i], fd, 5e-3);
  }
}

// ---------------------------------------------------------------- optimizers

TEST(Optim, AllOptimizersMinimizeQuadratic) {
  // Minimize f(w) = |w - target|^2 with each optimizer via a Dense-free
  // parameter tensor.
  auto run = [](auto make_opt, int iters = 800) {
    ml::Tensor w({4}), g({4});
    ml::Tensor target({4});
    for (int i = 0; i < 4; ++i) target[static_cast<std::size_t>(i)] = 1.0f + i;
    std::vector<ml::Param> params{{&w, &g}};
    auto opt = make_opt(params);
    for (int it = 0; it < iters; ++it) {
      for (std::size_t i = 0; i < 4; ++i) g[i] = 2 * (w[i] - target[i]);
      opt->step();
    }
    double err = 0;
    for (std::size_t i = 0; i < 4; ++i) err += std::abs(w[i] - target[i]);
    return err;
  };
  EXPECT_LT(run([](auto p) { return std::make_unique<ml::Sgd>(p, 0.05f); }), 0.05);
  EXPECT_LT(run([](auto p) { return std::make_unique<ml::Adam>(p, 0.05f); }), 0.05);
  EXPECT_LT(run([](auto p) { return std::make_unique<ml::RmsProp>(p, 0.05f); }), 0.05);
  // ADADELTA accelerates from a tiny initial step (eps-driven); it needs a
  // longer horizon on this toy quadratic.
  EXPECT_LT(run([](auto p) { return std::make_unique<ml::Adadelta>(p); }, 8000), 0.5);
}

TEST(Optim, WeightClippingBounds) {
  ml::Tensor w({3}), g({3});
  w[0] = 5.0f;
  w[1] = -3.0f;
  w[2] = 0.01f;
  std::vector<ml::Param> params{{&w, &g}};
  ml::clip_weights(params, 0.1f);
  EXPECT_FLOAT_EQ(w[0], 0.1f);
  EXPECT_FLOAT_EQ(w[1], -0.1f);
  EXPECT_FLOAT_EQ(w[2], 0.01f);
}

// ---------------------------------------------------------------- surrogate

TEST(Surrogate, ScoreToLabelMapsRange) {
  EXPECT_FLOAT_EQ(ml::score_to_label(-10.0, -10.0, 0.0), 1.0f);
  EXPECT_FLOAT_EQ(ml::score_to_label(0.0, -10.0, 0.0), 0.0f);
  EXPECT_FLOAT_EQ(ml::score_to_label(-5.0, -10.0, 0.0), 0.5f);
  // Degenerate range.
  EXPECT_FLOAT_EQ(ml::score_to_label(-5.0, -5.0, -5.0), 0.5f);
}

TEST(Surrogate, LearnsSeparableImageProperty) {
  // Synthetic task: label = 1 for aromatic-rich molecules, 0 for aliphatic
  // chains. A working CNN must separate these from the depiction alone.
  std::vector<chem::Image> images;
  std::vector<float> labels;
  const char* aromatic[] = {"c1ccccc1", "c1ccncc1", "Cc1ccccc1", "c1ccc2ccccc2c1",
                            "Oc1ccccc1", "Nc1ccccc1", "c1ccsc1", "c1ccoc1"};
  const char* aliphatic[] = {"CCCCCC", "CCCCO", "CCNCC", "CCCCCCCC", "CC(C)CC",
                             "OCCCCO", "CCOCC", "CCCC(C)C"};
  for (int rep = 0; rep < 4; ++rep) {
    for (const char* s : aromatic) {
      chem::DepictionOptions d;
      d.layout_seed = 7 + rep;  // augmentation via layout jitter
      images.push_back(chem::depict(chem::parse_smiles(s), d));
      labels.push_back(1.0f);
    }
    for (const char* s : aliphatic) {
      chem::DepictionOptions d;
      d.layout_seed = 7 + rep;
      images.push_back(chem::depict(chem::parse_smiles(s), d));
      labels.push_back(0.0f);
    }
  }
  ml::SurrogateOptions opts;
  opts.epochs = 12;
  opts.seed = 3;
  ml::SurrogateModel model(opts);
  const auto report = model.train(images, labels);
  ASSERT_EQ(report.epochs.size(), 12u);
  EXPECT_LT(report.epochs.back().train_loss, report.epochs.front().train_loss);

  // Held-out molecules.
  const float arom = model.predict(chem::depict(chem::parse_smiles("Clc1ccccc1")));
  const float alip = model.predict(chem::depict(chem::parse_smiles("CCCCCCC")));
  EXPECT_GT(arom, alip);
}

TEST(Surrogate, FlopModelPositiveAndMonotone) {
  ml::SurrogateOptions small, big;
  big.base_filters = 16;
  EXPECT_GT(ml::SurrogateModel(big).flops_per_image(),
            ml::SurrogateModel(small).flops_per_image());
}

TEST(Surrogate, PredictBatchBitwiseAcrossComputePoolSizes) {
  // predict_batch runs one job per image on the installed compute pool. Its
  // scores must not depend on the pool (none, 1, 2 or 8 threads, or called
  // from inside a pool job) and must equal per-image predict() and the
  // training-time forward over the whole batch, byte for byte.
  const std::vector<chem::Image> images = predict_images();
  ml::SurrogateOptions opts;
  opts.seed = 77;
  ml::SurrogateModel model(opts);
  const auto same_bits = [](const std::vector<float>& a,
                            const std::vector<float>& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
  };

  const ComputePoolScope serial(nullptr);
  const std::vector<float> ref = model.predict_batch(images);
  ASSERT_EQ(ref.size(), images.size());
  for (std::size_t i = 0; i < images.size(); ++i)
    EXPECT_TRUE(same_bits({model.predict(images[i])}, {ref[i]})) << "image " << i;

  // The training-time forward: the surrogate's layer stack, built here with
  // the model's weights loaded (load_parameters checks every shape).
  ml::Sequential net;
  {
    Rng rng(0);
    const int f = opts.base_filters;
    net.add(std::make_unique<ml::Conv3x3>(opts.channels, f, rng));
    net.add(std::make_unique<ml::ReLU>());
    net.add(std::make_unique<ml::MaxPool2>());
    net.add(std::make_unique<ml::Conv3x3>(f, 2 * f, rng));
    net.add(std::make_unique<ml::ReLU>());
    net.add(std::make_unique<ml::MaxPool2>());
    net.add(std::make_unique<ml::ResidualBlock>(2 * f, rng));
    net.add(std::make_unique<ml::MaxPool2>());
    net.add(std::make_unique<ml::Flatten>());
    net.add(std::make_unique<ml::Dense>(
        2 * f * (opts.height / 8) * (opts.width / 8), 32, rng));
    net.add(std::make_unique<ml::ReLU>());
    net.add(std::make_unique<ml::Dense>(32, 1, rng));
    net.add(std::make_unique<ml::Sigmoid>());
  }
  const auto path = tmp_path("imp_predict_pool_weights.bin");
  model.save_weights(path.string());
  ml::load_parameters(net, path.string());
  std::filesystem::remove(path);
  ml::Tensor batch({static_cast<int>(images.size()), opts.channels,
                    opts.height, opts.width});
  for (std::size_t i = 0; i < images.size(); ++i)
    std::copy(images[i].data.begin(), images[i].data.end(),
              batch.data() + i * images[i].data.size());
  const ml::Tensor forward = net.forward(batch);
  EXPECT_TRUE(same_bits(
      std::vector<float>(forward.data(), forward.data() + forward.size()), ref));

  for (const std::size_t threads : {1, 2, 8}) {
    impeccable::common::ThreadPool pool(threads);
    const ComputePoolScope scope(&pool);
    EXPECT_TRUE(same_bits(model.predict_batch(images), ref))
        << threads << " threads";
    // Nested: scored from inside a job on the same pool, as the ML1 stage
    // and the streaming benchmark call it.
    std::vector<float> nested;
    pool.submit([&] { nested = model.predict_batch(images); }).get();
    EXPECT_TRUE(same_bits(nested, ref)) << threads << " threads, nested";
  }
}

TEST(Surrogate, PredictBitsPinned) {
  // The surrogate's scores, pinned by an FNV-1a digest of their bits. The
  // GEMM ISA variant the host dispatches to, the tile widths, the implicit
  // GEMM convolution and the branch-free layer kernels change how the work
  // is done, never an IEEE operation or its order, so none may move a bit.
  // The digest is the value of a baseline-ISA, scalar-layer build.
  const std::vector<chem::Image> images = predict_images();
  ml::SurrogateOptions opts;
  opts.seed = 77;
  const ml::SurrogateModel model(opts);
  const ComputePoolScope serial(nullptr);
  const std::vector<float> scores = model.predict_batch(images);
  EXPECT_EQ(chem::fnv1a64(scores.data(), scores.size() * sizeof(float)),
            0x8030a2dd455fb9c4ull);
}

// ---------------------------------------------------------------- RES

TEST(Res, PerfectPredictorHasFullCoverage) {
  std::vector<double> truth;
  for (int i = 0; i < 1000; ++i) truth.push_back(i);
  const ml::EnrichmentSurface res(truth, truth);
  EXPECT_DOUBLE_EQ(res.coverage(0.01, 0.01), 1.0);
  EXPECT_DOUBLE_EQ(res.coverage(0.1, 0.01), 1.0);
}

TEST(Res, RandomPredictorCoverageNearScreenFraction) {
  Rng rng(5);
  std::vector<double> truth, pred;
  for (int i = 0; i < 5000; ++i) {
    truth.push_back(i);
    pred.push_back(rng.uniform());
  }
  const ml::EnrichmentSurface res(pred, truth);
  // Random screen of fraction x captures ~x of any top set.
  EXPECT_NEAR(res.coverage(0.2, 0.05), 0.2, 0.08);
}

TEST(Res, CoverageMonotoneInScreenBudget) {
  Rng rng(6);
  std::vector<double> truth, pred;
  for (int i = 0; i < 2000; ++i) {
    const double t = rng.uniform();
    truth.push_back(t);
    pred.push_back(t + rng.gauss(0, 0.2));  // noisy but informative
  }
  const ml::EnrichmentSurface res(pred, truth);
  const double c1 = res.coverage(0.01, 0.01);
  const double c2 = res.coverage(0.05, 0.01);
  const double c3 = res.coverage(0.25, 0.01);
  EXPECT_LE(c1, c2 + 1e-12);
  EXPECT_LE(c2, c3 + 1e-12);
  // Informative predictor beats random.
  EXPECT_GT(c2, 0.05);
}

TEST(Res, GridShapeAndText) {
  std::vector<double> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  const ml::EnrichmentSurface res(v, v);
  const auto grid = res.grid(1, 0.1);
  EXPECT_EQ(grid.screen_fractions.size(), 2u);  // 0.1, 1.0
  EXPECT_EQ(grid.coverage.size(), grid.top_fractions.size());
  EXPECT_FALSE(ml::to_text(grid).empty());
}

// ---------------------------------------------------------------- LOF

TEST(Lof, PlantedOutlierScoresHighest) {
  Rng rng(7);
  std::vector<std::vector<double>> pts;
  for (int i = 0; i < 60; ++i)
    pts.push_back({rng.gauss(0, 1), rng.gauss(0, 1)});
  pts.push_back({12.0, -9.0});  // outlier
  const auto lof = ml::local_outlier_factor(pts, 8);
  const auto top = ml::top_outliers(lof, 1);
  EXPECT_EQ(top[0], pts.size() - 1);
  EXPECT_GT(lof.back(), 1.5);
}

TEST(Lof, UniformClusterScoresNearOne) {
  Rng rng(8);
  std::vector<std::vector<double>> pts;
  for (int i = 0; i < 80; ++i)
    pts.push_back({rng.uniform(0, 1), rng.uniform(0, 1)});
  const auto lof = ml::local_outlier_factor(pts, 10);
  double m = 0;
  for (double v : lof) m += v;
  m /= static_cast<double>(lof.size());
  EXPECT_NEAR(m, 1.0, 0.25);
}

TEST(Lof, SmallInputsAreSafe) {
  EXPECT_TRUE(ml::local_outlier_factor({}, 5).empty());
  const auto one = ml::local_outlier_factor({{1.0, 2.0}}, 5);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_DOUBLE_EQ(one[0], 1.0);
}

// ---------------------------------------------------------------- t-SNE

TEST(Tsne, PreservesClusterSeparation) {
  Rng rng(9);
  std::vector<std::vector<double>> pts;
  for (int i = 0; i < 30; ++i)
    pts.push_back({rng.gauss(0, 0.3), rng.gauss(0, 0.3), rng.gauss(0, 0.3)});
  for (int i = 0; i < 30; ++i)
    pts.push_back({rng.gauss(10, 0.3), rng.gauss(10, 0.3), rng.gauss(10, 0.3)});
  ml::TsneOptions opts;
  opts.iterations = 250;
  opts.perplexity = 10;
  const auto y = ml::tsne(pts, opts);
  ASSERT_EQ(y.size(), 60u);

  // Mean intra-cluster distance must be far below inter-cluster distance.
  auto dist = [&](std::size_t a, std::size_t b) {
    return std::hypot(y[a][0] - y[b][0], y[a][1] - y[b][1]);
  };
  double intra = 0, inter = 0;
  int ni = 0, nx = 0;
  for (std::size_t a = 0; a < 60; ++a)
    for (std::size_t b = a + 1; b < 60; ++b) {
      if ((a < 30) == (b < 30)) {
        intra += dist(a, b);
        ++ni;
      } else {
        inter += dist(a, b);
        ++nx;
      }
    }
  intra /= ni;
  inter /= nx;
  EXPECT_GT(inter, 2.0 * intra);
}

TEST(Tsne, HandlesDegenerateInputs) {
  EXPECT_TRUE(ml::tsne({}).empty());
  const auto one = ml::tsne({{1.0, 2.0}});
  ASSERT_EQ(one.size(), 1u);
}

// ---------------------------------------------------------------- AAE

namespace {

/// Synthetic conformation clouds: a base shape plus per-sample deformation.
std::vector<std::vector<Vec3>> synthetic_clouds(int n, int points,
                                                std::uint64_t seed,
                                                double deform = 0.5) {
  Rng rng(seed);
  std::vector<Vec3> base;
  for (int p = 0; p < points; ++p) {
    const double t = static_cast<double>(p) / points * 6.28;
    base.push_back({3 * std::cos(t), 3 * std::sin(t), 0.3 * p});
  }
  std::vector<std::vector<Vec3>> out;
  for (int i = 0; i < n; ++i) {
    auto c = base;
    const double amp = rng.uniform(0, deform);
    for (int p = 0; p < points; ++p) {
      c[static_cast<std::size_t>(p)].z += amp * std::sin(0.5 * p);
      c[static_cast<std::size_t>(p)].x += rng.gauss(0, 0.05);
    }
    out.push_back(std::move(c));
  }
  return out;
}

}  // namespace

TEST(Aae, TrainingReducesReconstruction) {
  const auto clouds = synthetic_clouds(48, 12, 31);
  ml::AaeOptions opts;
  opts.epochs = 10;
  opts.batch_size = 8;
  opts.seed = 5;
  ml::Aae3d aae(12, opts);
  const auto report = aae.train(clouds);
  ASSERT_EQ(report.epochs.size(), 10u);
  EXPECT_LT(report.epochs.back().reconstruction,
            report.epochs.front().reconstruction);
  EXPECT_LT(report.epochs.back().validation,
            report.epochs.front().validation * 1.5);
}

TEST(Aae, EmbeddingHasLatentDimension) {
  const auto clouds = synthetic_clouds(16, 10, 32);
  ml::AaeOptions opts;
  opts.epochs = 2;
  opts.latent_dim = 8;
  opts.batch_size = 8;
  ml::Aae3d aae(10, opts);
  aae.train(clouds);
  const auto z = aae.embed(clouds[0]);
  EXPECT_EQ(z.size(), 8u);
  const auto zb = aae.embed_batch(clouds);
  EXPECT_EQ(zb.size(), clouds.size());
}

TEST(Aae, LatentSeparatesDistinctShapes) {
  // Two shape families; after training, within-family latent distances
  // should be smaller than cross-family ones.
  auto a = synthetic_clouds(24, 10, 33, 0.1);
  auto b = synthetic_clouds(24, 10, 34, 0.1);
  for (auto& c : b)
    for (auto& p : c) p.z += 4.0;  // systematically different family

  std::vector<std::vector<Vec3>> all = a;
  all.insert(all.end(), b.begin(), b.end());
  ml::AaeOptions opts;
  opts.epochs = 12;
  opts.batch_size = 8;
  opts.seed = 6;
  ml::Aae3d aae(10, opts);
  aae.train(all);
  const auto z = aae.embed_batch(all);

  auto d = [&](std::size_t i, std::size_t j) {
    double acc = 0;
    for (std::size_t k = 0; k < z[i].size(); ++k)
      acc += (z[i][k] - z[j][k]) * (z[i][k] - z[j][k]);
    return std::sqrt(acc);
  };
  double intra = 0, inter = 0;
  int ni = 0, nx = 0;
  for (std::size_t i = 0; i < all.size(); ++i)
    for (std::size_t j = i + 1; j < all.size(); ++j) {
      if ((i < a.size()) == (j < a.size())) {
        intra += d(i, j);
        ++ni;
      } else {
        inter += d(i, j);
        ++nx;
      }
    }
  EXPECT_GT(inter / nx, intra / ni);
}

TEST(Aae, RejectsMismatchedCloudSize) {
  ml::Aae3d aae(10, {});
  std::vector<std::vector<Vec3>> bad{std::vector<Vec3>(7)};
  EXPECT_THROW(aae.train(bad), std::invalid_argument);
}

TEST(Aae, FlopModelScalesWithPoints) {
  ml::Aae3d small(10, {}), big(100, {});
  EXPECT_GT(big.flops_per_sample(), small.flops_per_sample());
}

// ---------------------------------------------------------------- RES budget

TEST(ResBudget, PerfectPredictorNeedsExactlyTheTopSlice) {
  std::vector<double> v(1000);
  for (int i = 0; i < 1000; ++i) v[static_cast<std::size_t>(i)] = i;
  const ml::EnrichmentSurface res(v, v);
  // To cover 100% of the top 1% a perfect predictor screens exactly 1%.
  EXPECT_NEAR(res.budget_for(0.01, 1.0), 0.01, 1e-9);
  EXPECT_NEAR(res.budget_for(0.10, 0.5), 0.05, 1e-9);
}

TEST(ResBudget, NoisierPredictorNeedsBiggerBudget) {
  Rng rng(4);
  std::vector<double> truth, good, bad;
  for (int i = 0; i < 4000; ++i) {
    const double t = rng.uniform();
    truth.push_back(t);
    good.push_back(t + rng.gauss(0, 0.05));
    bad.push_back(t + rng.gauss(0, 0.8));
  }
  const ml::EnrichmentSurface res_good(good, truth);
  const ml::EnrichmentSurface res_bad(bad, truth);
  EXPECT_LT(res_good.budget_for(0.02, 0.8), res_bad.budget_for(0.02, 0.8));
}

TEST(ResBudget, BudgetIsConsistentWithCoverage) {
  Rng rng(5);
  std::vector<double> truth, pred;
  for (int i = 0; i < 2000; ++i) {
    const double t = rng.uniform();
    truth.push_back(t);
    pred.push_back(t + rng.gauss(0, 0.3));
  }
  const ml::EnrichmentSurface res(pred, truth);
  const double budget = res.budget_for(0.05, 0.6);
  EXPECT_GE(res.coverage(budget, 0.05), 0.6 - 1e-9);
}

// ------------------------------------------------------------------- weights

TEST(Weights, SaveLoadReproducesPredictions) {
  std::vector<chem::Image> images;
  std::vector<float> labels;
  const auto lib = chem::generate_library("W", 24, 5);
  for (std::size_t i = 0; i < lib.size(); ++i) {
    images.push_back(chem::depict(chem::parse_smiles(lib.entries[i].smiles)));
    labels.push_back(i % 2 ? 1.0f : 0.0f);
  }
  ml::SurrogateOptions opts;
  opts.epochs = 2;
  ml::SurrogateModel trained(opts);
  trained.train(images, labels);

  const auto path = tmp_path("imp_weights.bin");
  trained.save_weights(path.string());

  // A fresh model with a different seed differs before loading...
  ml::SurrogateOptions opts2 = opts;
  opts2.seed = 999;
  ml::SurrogateModel fresh(opts2);
  const float before = fresh.predict(images[0]);
  // ...and is identical after.
  fresh.load_weights(path.string());
  for (int k = 0; k < 5; ++k)
    EXPECT_FLOAT_EQ(fresh.predict(images[static_cast<std::size_t>(k)]),
                    trained.predict(images[static_cast<std::size_t>(k)]));
  EXPECT_NE(before, fresh.predict(images[0]));
  std::filesystem::remove(path);
}

TEST(Weights, LoadRejectsArchitectureMismatch) {
  ml::SurrogateOptions small;
  small.base_filters = 4;
  small.epochs = 1;
  ml::SurrogateModel a(small);
  const auto path = tmp_path("imp_weights_mismatch.bin");
  a.save_weights(path.string());

  ml::SurrogateOptions big = small;
  big.base_filters = 8;
  ml::SurrogateModel b(big);
  EXPECT_THROW(b.load_weights(path.string()), std::runtime_error);
  std::filesystem::remove(path);
  EXPECT_THROW(b.load_weights("/nonexistent/w.bin"), std::runtime_error);
}

TEST(Weights, LoadRejectsGarbageFile) {
  const auto path = tmp_path("imp_weights_bad.bin");
  {
    std::ofstream f(path, std::ios::binary);
    f << "garbage";
  }
  ml::SurrogateModel m;
  EXPECT_THROW(m.load_weights(path.string()), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(AaeWeights, SaveLoadReproducesEmbeddings) {
  std::vector<std::vector<Vec3>> clouds;
  impeccable::common::Rng rng(3);
  for (int c = 0; c < 12; ++c) {
    std::vector<Vec3> cloud;
    for (int p = 0; p < 8; ++p)
      cloud.push_back({rng.gauss(), rng.gauss(), rng.gauss()});
    clouds.push_back(std::move(cloud));
  }
  ml::AaeOptions opts;
  opts.epochs = 2;
  opts.batch_size = 6;
  ml::Aae3d trained(8, opts);
  trained.train(clouds);

  const auto prefix =
      (std::filesystem::temp_directory_path() / "imp_aae").string();
  trained.save_weights(prefix);

  ml::AaeOptions opts2 = opts;
  opts2.seed = 4242;
  ml::Aae3d fresh(8, opts2);
  fresh.load_weights(prefix);
  const auto a = trained.embed(clouds[0]);
  const auto b = fresh.embed(clouds[0]);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);
  for (const char* suffix : {".enc", ".dec", ".critic"})
    std::filesystem::remove(prefix + suffix);
}
