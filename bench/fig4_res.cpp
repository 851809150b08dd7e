// Fig. 4 reproduction: the Regression Enrichment Surface of the ML1
// surrogate on a docking campaign.
//
// Workload: a synthetic "OZD" library is docked exhaustively against one
// receptor (ground truth), the image-CNN surrogate is trained on a random
// training split, predicts the whole library, and the RES grid is printed —
// the paper's reading is "with a budget of delta = 1e-3·u compounds we
// capture ~50% of the true top 1e-4 and ~40% of the top 1e-3". Our library
// is smaller (1e3 vs 6.5e6), so fractions start at 1e-2; the shape to match
// is: coverage far above the random baseline (= screen fraction) in the top
// rows and monotone in the screening budget.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "impeccable/chem/depiction.hpp"
#include "impeccable/chem/library.hpp"
#include "impeccable/chem/smiles.hpp"
#include "impeccable/common/rng.hpp"
#include "impeccable/dock/engine.hpp"
#include "impeccable/dock/receptor.hpp"
#include "impeccable/common/stats.hpp"
#include "impeccable/common/thread_pool.hpp"
#include "impeccable/ml/res.hpp"
#include "impeccable/ml/surrogate.hpp"

namespace chem = impeccable::chem;
namespace dock = impeccable::dock;
namespace ml = impeccable::ml;
using impeccable::common::Rng;

int main() {
  const std::size_t library_size = 1000;
  const auto t0 = std::chrono::steady_clock::now();

  const auto lib = chem::generate_library("OZD", library_size, 2020);
  const auto receptor = dock::Receptor::synthesize("PLPro-like", 6909);
  const auto grid = dock::compute_grid(receptor);

  // Ground truth: dock everything (cheap but real LGA settings).
  dock::DockOptions dopts;
  dopts.runs = 1;
  dopts.lga.population = 16;
  dopts.lga.generations = 6;
  dopts.lga.ad.max_iterations = 25;

  std::vector<chem::Molecule> mols;
  std::vector<chem::Image> images;
  std::vector<double> truth(library_size);
  for (const auto& e : lib.entries) {
    mols.push_back(chem::parse_smiles(e.smiles));
    images.push_back(chem::depict(mols.back()));
  }
  impeccable::common::ThreadPool pool;
  pool.parallel_for(0, library_size, [&](std::size_t i) {
    const auto res = dock::dock(*grid, mols[i], lib.entries[i].id, dopts);
    truth[i] = -res.best_score;  // higher = better binder
  });

  // Train/test: the surrogate sees a random half of the docked scores.
  Rng rng(17);
  std::vector<std::size_t> order(library_size);
  for (std::size_t i = 0; i < library_size; ++i) order[i] = i;
  rng.shuffle(order);
  const std::size_t train_n = library_size / 2;

  std::vector<chem::Image> train_images;
  std::vector<float> train_labels;
  double best = 1e18, worst = -1e18;
  for (std::size_t k = 0; k < train_n; ++k) {
    best = std::min(best, -truth[order[k]]);
    worst = std::max(worst, -truth[order[k]]);
  }
  for (std::size_t k = 0; k < train_n; ++k) {
    train_images.push_back(images[order[k]]);
    train_labels.push_back(ml::score_to_label(-truth[order[k]], best, worst));
  }

  ml::SurrogateOptions sopts;
  sopts.epochs = 10;
  ml::SurrogateModel surrogate(sopts);
  const auto report = surrogate.train(train_images, train_labels);

  const auto pred_f = surrogate.predict_batch(images);
  std::vector<double> pred(pred_f.begin(), pred_f.end());

  std::printf("Fig. 4: RES profile for the docking surrogate\n");
  std::printf("library %zu, trained on %zu docked compounds, "
              "final train/val loss %.4f/%.4f\n\n",
              library_size, train_n, report.epochs.back().train_loss,
              report.epochs.back().validation_loss);
  std::printf("rank correlation (surrogate vs docking): spearman %.3f\n\n",
              impeccable::common::spearman(pred, truth));

  const ml::EnrichmentSurface res(pred, truth);
  const auto res_grid = res.grid(/*points_per_decade=*/2, /*min_fraction=*/1e-2);
  std::printf("coverage of the true top-y fraction (rows) when screening the\n"
              "predicted top-x fraction (columns); random baseline = x:\n\n%s\n",
              ml::to_text(res_grid).c_str());

  // The paper's headline reading, scaled to our library: screening the top
  // 10%% captures a large share of the true top 1-3%%.
  std::printf("paper-style readings:\n");
  for (double top : {0.01, 0.03}) {
    const double cov = res.coverage(0.10, top);
    std::printf("  screen 10%% of the library -> %.0f%% of the true top %.0f%% "
                "(random would give 10%%)\n",
                100 * cov, 100 * top);
  }
  std::printf("\nwall time %.1f s\n",
              std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                  .count());
  return 0;
}
