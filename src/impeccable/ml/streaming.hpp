#pragma once
// Streaming featurization and external-memory selection for ML1.
//
// The paper's ML1 stage scores 1e8–1e9 ligands per iteration (Sec. 6.1.1);
// at that scale neither the depictions nor the score vector fit in RAM.
// This header is the out-of-core toolkit the stage (and the scale replay
// bench) is built from:
//
//   score_ligands    drives a LigandSource window-by-window through
//                    depict -> SurrogateModel::predict_batch. Resident
//                    memory is one window of images; each window is
//                    release()d back to the source afterwards. A window
//                    is depicted one compute-pool job per ligand
//                    (LigandSource::images).
//                    predict_batch scores each image on its own, so
//                    windowing never changes a score.
//   ScoreSpill       the per-iteration score array, RAM-backed for
//                    in-memory runs and file-backed (pread/pwrite, bounded
//                    buffers) for out-of-core runs. Random access serves
//                    the auto-budget validation pairs; sequential scans
//                    serve selection.
//   StreamingTopK    bounded-heap exact top-k with the determinism
//                    contract spelled out in candidate_better: higher score
//                    wins, ties break to the lower library index. The
//                    result is identical to fully sorting the score vector
//                    — independent of scan order, window size, or how
//                    partial heaps are merged.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace impeccable::chem {
class LigandSource;
}  // namespace impeccable::chem
namespace impeccable::ml {
class SurrogateModel;
}  // namespace impeccable::ml

namespace impeccable::ml {

/// One retained candidate of a streaming selection.
struct TopCandidate {
  float score = 0.0f;
  std::uint64_t index = 0;  ///< library ordinal
};

/// Strict selection order: higher score first, ties to the lower library
/// index. This total order is what makes streaming selection deterministic.
inline bool candidate_better(const TopCandidate& a, const TopCandidate& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.index < b.index;
}

/// Bounded-size exact top-k accumulator: O(k) memory, O(log k) per offer.
class StreamingTopK {
 public:
  explicit StreamingTopK(std::size_t k) : k_(k) {}

  void offer(float score, std::uint64_t index);
  std::size_t k() const { return k_; }
  std::size_t size() const { return heap_.size(); }

  /// Drain the heap, best candidate first.
  std::vector<TopCandidate> take_sorted();

  /// Exact global top-k from independently accumulated partial results
  /// (each part already best-first or not — order does not matter).
  static std::vector<TopCandidate> merge_sorted(
      std::vector<std::vector<TopCandidate>> parts, std::size_t k);

 private:
  std::size_t k_;
  /// Min-heap on candidate_better: heap_[0] is the worst kept candidate.
  std::vector<TopCandidate> heap_;
};

/// External-memory score array. Writers cover disjoint ranges; reads are
/// random access or chunked scans. The file-backed flavor owns its spill
/// file and unlinks it on destruction.
class ScoreSpill {
 public:
  static ScoreSpill in_memory(std::size_t n);
  static ScoreSpill file_backed(std::size_t n, const std::string& path);

  ScoreSpill() = default;
  ~ScoreSpill();
  ScoreSpill(ScoreSpill&&) noexcept;
  ScoreSpill& operator=(ScoreSpill&&) noexcept;
  ScoreSpill(const ScoreSpill&) = delete;
  ScoreSpill& operator=(const ScoreSpill&) = delete;

  std::size_t size() const { return n_; }
  bool file_backed_storage() const { return fd_ >= 0; }

  void write(std::size_t begin, const float* v, std::size_t n);
  void read(std::size_t begin, float* out, std::size_t n) const;
  float at(std::size_t i) const;

 private:
  std::size_t n_ = 0;
  std::vector<float> ram_;
  int fd_ = -1;
  std::string path_;
};

/// Stream ligands [begin, end) of `source` through depiction and
/// `model.predict_batch` in windows of `window` ligands. Scores land in
/// `spill` at their library ordinal (if non-null) and feed `topk` (if
/// non-null). Returns the number of ligands scored.
std::size_t score_ligands(const chem::LigandSource& source,
                          const SurrogateModel& model, std::size_t begin,
                          std::size_t end, std::size_t window,
                          ScoreSpill* spill, StreamingTopK* topk = nullptr);

/// Exact top-k over a spill via a chunked scan (bounded buffer) through a
/// StreamingTopK — the external-memory replacement for sorting the whole
/// score vector. Throws std::invalid_argument for chunk == 0.
std::vector<TopCandidate> select_top_k(const ScoreSpill& spill, std::size_t k,
                                       std::size_t chunk = std::size_t{1}
                                                           << 20);

}  // namespace impeccable::ml
