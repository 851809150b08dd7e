// Ablation: the ML1 active-learning loop (Sec. 5.1.2 / 8 — "Individual
// workflow components deliver 100x to 1000x improvement over traditional
// methods"; the surrogate expands effective screening by orders of
// magnitude).
//
// Protocol: a library with exhaustively docked ground truth. Two strategies
// spend the SAME docking budget over 3 iterations:
//   * random  — each iteration docks a fresh random batch;
//   * ML1     — iteration 0 docks a random batch, then the surrogate is
//               retrained on everything docked so far and each next batch is
//               its top-ranked untested slice (plus an exploration sample).
// Metric: after each iteration, the fraction of the TRUE top-5% binders that
// have been docked (hit discovery), plus the effective-screening multiplier.

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <set>
#include <vector>

#include "impeccable/chem/depiction.hpp"
#include "impeccable/chem/library.hpp"
#include "impeccable/chem/smiles.hpp"
#include "impeccable/common/rng.hpp"
#include "impeccable/common/thread_pool.hpp"
#include "impeccable/dock/engine.hpp"
#include "impeccable/dock/receptor.hpp"
#include "impeccable/ml/surrogate.hpp"

namespace chem = impeccable::chem;
namespace dock = impeccable::dock;
namespace ml = impeccable::ml;
using impeccable::common::Rng;

int main() {
  const std::size_t library_size = 600;
  const std::size_t batch = 60;  // docking budget per iteration
  const int iterations = 3;

  const auto lib = chem::generate_library("OZD", library_size, 909);
  const auto receptor = dock::Receptor::synthesize("T", 1818);
  const auto grid = dock::compute_grid(receptor);

  dock::DockOptions dopts;
  dopts.runs = 1;
  dopts.lga.population = 16;
  dopts.lga.generations = 6;
  dopts.lga.ad.max_iterations = 25;

  // Ground truth (the oracle both strategies query batch by batch).
  std::vector<chem::Molecule> mols;
  std::vector<chem::Image> images;
  std::vector<double> truth(library_size);
  for (const auto& e : lib.entries) {
    mols.push_back(chem::parse_smiles(e.smiles));
    images.push_back(chem::depict(mols.back()));
  }
  impeccable::common::ThreadPool pool;
  pool.parallel_for(0, library_size, [&](std::size_t i) {
    truth[i] = dock::dock(*grid, mols[i], lib.entries[i].id, dopts).best_score;
  });

  // True top-5% set.
  std::vector<std::size_t> order(library_size);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return truth[a] < truth[b]; });
  std::set<std::size_t> top5(order.begin(),
                             order.begin() + static_cast<long>(library_size / 20));

  auto hits_in = [&](const std::set<std::size_t>& docked) {
    std::size_t h = 0;
    for (std::size_t i : docked)
      if (top5.count(i)) ++h;
    return static_cast<double>(h) / static_cast<double>(top5.size());
  };

  std::printf("Active-learning ablation: %zu-compound library, %zu docks per "
              "iteration, true top-5%% = %zu compounds\n\n",
              library_size, batch, top5.size());
  std::printf("%-6s %-28s %-28s\n", "iter", "random: top-5% found",
              "ML1-guided: top-5% found");

  // --- random strategy ---
  Rng rrng(5);
  std::vector<std::size_t> shuffled(library_size);
  std::iota(shuffled.begin(), shuffled.end(), std::size_t{0});
  rrng.shuffle(shuffled);
  std::set<std::size_t> random_docked;

  // --- ML1 strategy state ---
  Rng arng(5);
  std::set<std::size_t> ml_docked;
  std::vector<chem::Image> train_images;
  std::vector<double> train_scores;

  for (int it = 0; it < iterations; ++it) {
    // random batch.
    for (std::size_t k = 0; k < batch; ++k)
      random_docked.insert(shuffled[it * batch + k]);

    // ML1 batch.
    std::vector<std::size_t> chosen;
    if (it == 0) {
      std::vector<std::size_t> all(library_size);
      std::iota(all.begin(), all.end(), std::size_t{0});
      arng.shuffle(all);
      chosen.assign(all.begin(), all.begin() + static_cast<long>(batch));
    } else {
      ml::SurrogateOptions sopts;
      sopts.epochs = 8;
      ml::SurrogateModel surrogate(sopts);
      const double best = *std::min_element(train_scores.begin(), train_scores.end());
      const double worst = *std::max_element(train_scores.begin(), train_scores.end());
      std::vector<float> labels;
      for (double s : train_scores)
        labels.push_back(ml::score_to_label(s, best, worst));
      surrogate.train(train_images, labels);
      const auto pred = surrogate.predict_batch(images);

      std::vector<std::size_t> ranked(library_size);
      std::iota(ranked.begin(), ranked.end(), std::size_t{0});
      std::sort(ranked.begin(), ranked.end(), [&](std::size_t a, std::size_t b) {
        return pred[a] > pred[b];
      });
      const std::size_t explore = batch / 6;  // ~17% exploration
      for (std::size_t r : ranked) {
        if (chosen.size() + explore >= batch) break;
        if (!ml_docked.count(r)) chosen.push_back(r);
      }
      while (chosen.size() < batch) {
        const std::size_t r = arng.index(library_size);
        if (!ml_docked.count(r) &&
            std::find(chosen.begin(), chosen.end(), r) == chosen.end())
          chosen.push_back(r);
      }
    }
    for (std::size_t i : chosen) {
      ml_docked.insert(i);
      train_images.push_back(images[i]);
      train_scores.push_back(truth[i]);  // oracle = the precomputed dock
    }

    std::printf("%-6d %-28.2f %-28.2f\n", it, hits_in(random_docked),
                hits_in(ml_docked));
  }

  const double coverage_mult =
      static_cast<double>(library_size) / static_cast<double>(iterations * batch);
  std::printf("\nafter %d iterations both strategies docked %zu/%zu compounds;"
              " ML1 additionally *ranked* the whole library each iteration —\n"
              "an effective screening multiplier of %.1fx at this scale "
              "(the paper reports 2-3 orders of magnitude at 4.2e9-ligand "
              "scale, Sec. 5.1.2).\n",
              iterations, ml_docked.size(), library_size, coverage_mult);
  return 0;
}
