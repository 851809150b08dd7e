#include "impeccable/core/stages/ml1_stage.hpp"

#include <algorithm>
#include <set>
#include <string>

#include "impeccable/common/rng.hpp"
#include "impeccable/ml/res.hpp"
#include "impeccable/ml/streaming.hpp"

namespace impeccable::core::stages {

std::vector<rct::TaskDescription> Ml1Stage::build(CampaignState& cs) {
  s_->iter_begin = cs.backend->now();

  if (cs.scale) {
    // Virtual workload: inference sharded over the partition's GPUs. With a
    // replay installed, each shard task also streams its slice of a real
    // LigandSource through the real featurize -> predict -> top-k path.
    std::vector<rct::TaskDescription> tasks;
    const double per_shard =
        cs.scale->ml1_ligands / static_cast<double>(cs.scale->ml1_shards);
    ScaleModel::Replay* replay = cs.scale->replay;
    const std::size_t shards = static_cast<std::size_t>(cs.scale->ml1_shards);
    if (replay) s_->replay_parts.assign(shards, {});
    for (std::size_t k = 0; k < shards; ++k) {
      rct::TaskDescription t;
      t.name = "ml1";
      t.gpus = 1;
      t.duration = per_shard * cs.scale->ml1_gpu_seconds_per_ligand;
      if (replay) {
        auto scratch = s_;
        t.payload = [replay, scratch, k, shards] {
          const std::size_t n = replay->source->size();
          const std::size_t lo = n * k / shards;
          const std::size_t hi = n * (k + 1) / shards;
          ml::StreamingTopK topk(replay->top_k);
          ml::score_ligands(*replay->source, *replay->model, lo, hi,
                            replay->window, nullptr, &topk);
          scratch->replay_parts[k] = topk.take_sorted();
        };
      }
      tasks.push_back(std::move(t));
    }
    return tasks;
  }

  surrogate_ = std::make_unique<ml::SurrogateModel>(cs.science->surrogate);

  rct::TaskDescription t;
  t.name = "ml1-train-infer";
  t.duration = cs.exec->sim_durations.ml1;
  CampaignState* st = &cs;
  t.payload = [this, st] {
    // Iteration 0 has no training data yet; the merge step bootstraps with
    // a random diverse sample instead.
    if (iter_ == 0 || st->train_images.size() < 8) return;
    const auto& scores = st->train_scores;
    const double best = *std::min_element(scores.begin(), scores.end());
    const double worst = *std::max_element(scores.begin(), scores.end());
    std::vector<float> labels;
    labels.reserve(scores.size());
    for (double s : scores) labels.push_back(ml::score_to_label(s, best, worst));
    surrogate_->train(st->train_images, labels);

    // Library-wide inference, streamed in bounded windows into the score
    // spill (file-backed when the library itself is out-of-core, so neither
    // images nor scores ever materialize at library scale).
    const std::size_t n = st->source->size();
    const bool out_of_core = st->exec->library_backend ==
                             ExecConfig::LibraryBackend::kMmapStore;
    auto spill = std::make_shared<ml::ScoreSpill>(
        out_of_core
            ? ml::ScoreSpill::file_backed(
                  n, st->store_dir + "/scores-" + st->target->name + "-iter" +
                         std::to_string(iter_) + ".f32")
            : ml::ScoreSpill::in_memory(n));
    ml::score_ligands(*st->source, *surrogate_, 0, n,
                      st->exec->featurize_window, spill.get());
    s_->scores = std::move(spill);
    st->report->flops->add(
        "ML1", surrogate_->flops_per_image() *
                   (n + 3 * st->train_images.size() *
                            static_cast<std::size_t>(
                                st->science->surrogate.epochs)));
  };
  return {std::move(t)};
}

void Ml1Stage::merge(CampaignState& cs) {
  if (cs.scale) {
    if (ScaleModel::Replay* replay = cs.scale->replay) {
      replay->ligands_scored += replay->source->size();
      replay->selected = ml::StreamingTopK::merge_sorted(
          std::move(s_->replay_parts), replay->top_k);
      s_->replay_parts.clear();
    }
    return;
  }
  const ScienceConfig& sci = *cs.science;
  const std::size_t n = cs.source->size();
  // Per-(iteration, stage) stream: selection randomness is independent of
  // how many draws earlier iterations consumed, so sequential and pipelined
  // mode select identical compounds.
  common::Rng rng(item_seed(cs.exec->seed, iter_salt(0x311, iter_), 0));

  // The enrichment denominator: every ML1 pass covers the whole library,
  // including the warm-up iteration (whose untrained surrogate scores
  // everything 0.5 and defers selection to bootstrap sampling).
  cs.metrics(iter_).library_screened = n;

  std::vector<std::size_t> chosen;
  if (iter_ == 0 || cs.train_images.size() < 8) {
    // Bootstrap: the first bootstrap_docks *distinct* uniform draws. The
    // accepted-value stream is a pure function of the seed, so a larger
    // budget extends — never reshuffles — a smaller one's picks, the prefix
    // property checkpoint/resume tests rely on. O(budget) memory, unlike
    // shuffling a materialized [0, n) permutation.
    std::set<std::size_t> seen;
    const std::size_t want = std::min(sci.bootstrap_docks, n);
    while (seen.size() < want) {
      const std::size_t idx = rng.index(n);
      if (seen.insert(idx).second) chosen.push_back(idx);
    }
  } else {
    const ml::ScoreSpill& scores = *s_->scores;
    std::size_t budget = std::max<std::size_t>(
        4, static_cast<std::size_t>(sci.dock_top_fraction *
                                    static_cast<double>(n)));
    if (sci.auto_dock_budget) {
      // Validation set: compounds with both a surrogate prediction and a
      // docking ground truth — exactly the docked ordinals, in index order.
      std::vector<double> pred, truth;
      for (std::size_t idx : cs.docked_indices) {
        pred.push_back(scores.at(idx));
        truth.push_back(
            -cs.report->compounds.at(cs.source->id(idx)).dock_score);
      }
      if (pred.size() >= 20) {
        const ml::EnrichmentSurface res(pred, truth);
        const double frac =
            res.budget_for(sci.auto_budget_top, sci.auto_budget_coverage);
        budget = std::clamp<std::size_t>(
            static_cast<std::size_t>(frac * static_cast<double>(n)), 4,
            n / 2);
      }
    }
    const std::size_t explore = static_cast<std::size_t>(
        sci.explore_fraction * static_cast<double>(budget));
    const std::size_t top = budget - explore;
    // The top slice comes from the external-memory streaming top-k: exact,
    // bounded memory, ties broken to the lower library index.
    for (const auto& c : ml::select_top_k(scores, top))
      chosen.push_back(static_cast<std::size_t>(c.index));
    // Exploration: uniform over the library (Sec. 7.1.1: sample lower ranks
    // so high-affinity compounds are not missed); draws that land in the
    // top slice collapse in the sort+unique below.
    for (std::size_t e = 0; e < explore && e < n; ++e)
      chosen.push_back(rng.index(n));
    std::sort(chosen.begin(), chosen.end());
    chosen.erase(std::unique(chosen.begin(), chosen.end()), chosen.end());
  }

  // Never redo work restored from a checkpoint (or docked by an earlier
  // iteration).
  chosen.erase(std::remove_if(chosen.begin(), chosen.end(),
                              [&](std::size_t idx) {
                                return cs.docked_indices.count(idx) != 0;
                              }),
               chosen.end());

  s_->dock_indices = std::move(chosen);
  s_->dock_pred.resize(s_->dock_indices.size());
  for (std::size_t i = 0; i < s_->dock_indices.size(); ++i)
    s_->dock_pred[i] =
        s_->scores ? static_cast<double>(s_->scores->at(s_->dock_indices[i]))
                   : 0.5;
  // Molecules are parsed inside the dock task payloads (each into its own
  // slot), so out-of-core parsing runs on workers, not in the merge.
  s_->molecules.resize(s_->dock_indices.size());
  s_->dock_results.resize(s_->dock_indices.size());
}

}  // namespace impeccable::core::stages
