// ML1 deployment pipeline (Sec. 6.1.1) on the out-of-core data path:
// generate a compound library straight into the sharded on-disk LigandStore,
// corrupt one shard to show that opening the store survives sporadic IO
// errors (the bad shard is skipped and counted in StoreStats), then stream
// the surviving ligands through a lazy MmapSource into the surrogate —
// depict -> predict_batch one window at a time — and keep the best binders
// in an exact streaming top-k.
//
//   $ ./examples/sharded_inference

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "impeccable/chem/ligand_source.hpp"
#include "impeccable/ml/streaming.hpp"
#include "impeccable/ml/surrogate.hpp"

namespace chem = impeccable::chem;
namespace ml = impeccable::ml;

int main() {
  const std::size_t compounds = 400;
  const std::size_t per_shard = 50;
  const std::size_t window = 64;

  const auto dir =
      std::filesystem::temp_directory_path() / "impeccable_example_store";
  std::filesystem::remove_all(dir);
  chem::spill_generated_library("ULT", compounds, 911, dir.string(), {},
                                per_shard);

  // Corrupt one shard to demonstrate resilience.
  {
    std::ofstream f(dir / "shard-00002.imls",
                    std::ios::binary | std::ios::trunc);
    f << "bit rot";
  }
  auto store = chem::LigandStore::open(dir.string());
  std::printf("store: %zu ligands in %zu shard(s); %zu corrupt shard(s) "
              "skipped\n",
              store.size(), store.stats().shards_ok,
              store.stats().shards_skipped);
  const chem::MmapSource source(std::move(store));

  const ml::SurrogateModel model;
  ml::StreamingTopK topk(5);
  const auto t0 = std::chrono::steady_clock::now();
  const std::size_t scored = ml::score_ligands(source, model, 0, source.size(),
                                               window, nullptr, &topk);
  const double dt =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  std::printf("inference: %zu ligands scored in %zu-ligand windows in %.2f s "
              "(%.0f ligands/s)\n",
              scored, window, dt, scored / dt);

  std::printf("\ntop-5 predicted binders:\n");
  for (const ml::TopCandidate& c : topk.take_sorted())
    std::printf("  %s  score %.3f\n", source.id(c.index).c_str(), c.score);

  std::filesystem::remove_all(dir);
  return 0;
}
