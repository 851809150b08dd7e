#include "impeccable/ml/streaming.hpp"
#include "impeccable/chem/ligand_source.hpp"
#include "impeccable/ml/surrogate.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

namespace impeccable::ml {

namespace {

/// heap comparator: std::push_heap keeps the *worst* candidate at front
/// when "greater" means "worse".
bool heap_less(const TopCandidate& a, const TopCandidate& b) {
  return candidate_better(a, b);
}

}  // namespace

void StreamingTopK::offer(float score, std::uint64_t index) {
  if (k_ == 0) return;
  const TopCandidate c{score, index};
  if (heap_.size() < k_) {
    heap_.push_back(c);
    std::push_heap(heap_.begin(), heap_.end(), heap_less);
    return;
  }
  if (!candidate_better(c, heap_.front())) return;
  std::pop_heap(heap_.begin(), heap_.end(), heap_less);
  heap_.back() = c;
  std::push_heap(heap_.begin(), heap_.end(), heap_less);
}

std::vector<TopCandidate> StreamingTopK::take_sorted() {
  std::vector<TopCandidate> out = std::move(heap_);
  heap_.clear();
  std::sort(out.begin(), out.end(), candidate_better);
  return out;
}

std::vector<TopCandidate> StreamingTopK::merge_sorted(
    std::vector<std::vector<TopCandidate>> parts, std::size_t k) {
  StreamingTopK merged(k);
  for (const auto& part : parts)
    for (const auto& c : part) merged.offer(c.score, c.index);
  return merged.take_sorted();
}

// ---------------------------------------------------------------------------
// ScoreSpill

ScoreSpill ScoreSpill::in_memory(std::size_t n) {
  ScoreSpill s;
  s.n_ = n;
  s.ram_.assign(n, 0.0f);
  return s;
}

ScoreSpill ScoreSpill::file_backed(std::size_t n, const std::string& path) {
  ScoreSpill s;
  s.n_ = n;
  s.path_ = path;
  s.fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (s.fd_ < 0)
    throw std::runtime_error("ScoreSpill: cannot open " + path);
  if (::ftruncate(s.fd_, static_cast<off_t>(n * sizeof(float))) != 0) {
    ::close(s.fd_);
    ::unlink(path.c_str());
    s.fd_ = -1;
    throw std::runtime_error("ScoreSpill: cannot size " + path);
  }
  return s;
}

ScoreSpill::~ScoreSpill() {
  if (fd_ >= 0) {
    ::close(fd_);
    ::unlink(path_.c_str());
  }
}

ScoreSpill::ScoreSpill(ScoreSpill&& other) noexcept
    : n_(other.n_),
      ram_(std::move(other.ram_)),
      fd_(other.fd_),
      path_(std::move(other.path_)) {
  other.fd_ = -1;
  other.n_ = 0;
}

ScoreSpill& ScoreSpill::operator=(ScoreSpill&& other) noexcept {
  if (this != &other) {
    this->~ScoreSpill();
    new (this) ScoreSpill(std::move(other));
  }
  return *this;
}

void ScoreSpill::write(std::size_t begin, const float* v, std::size_t n) {
  if (begin > n_ || n > n_ - begin)
    throw std::out_of_range("ScoreSpill::write");
  if (fd_ < 0) {
    std::copy(v, v + n, ram_.begin() + static_cast<std::ptrdiff_t>(begin));
    return;
  }
  const auto* p = reinterpret_cast<const char*>(v);
  std::size_t done = 0;
  const std::size_t bytes = n * sizeof(float);
  while (done < bytes) {
    const ssize_t got =
        ::pwrite(fd_, p + done, bytes - done,
                 static_cast<off_t>(begin * sizeof(float) + done));
    if (got <= 0) throw std::runtime_error("ScoreSpill: short write");
    done += static_cast<std::size_t>(got);
  }
}

void ScoreSpill::read(std::size_t begin, float* out, std::size_t n) const {
  if (begin > n_ || n > n_ - begin)
    throw std::out_of_range("ScoreSpill::read");
  if (fd_ < 0) {
    std::copy(ram_.begin() + static_cast<std::ptrdiff_t>(begin),
              ram_.begin() + static_cast<std::ptrdiff_t>(begin + n), out);
    return;
  }
  auto* p = reinterpret_cast<char*>(out);
  std::size_t done = 0;
  const std::size_t bytes = n * sizeof(float);
  while (done < bytes) {
    const ssize_t got = ::pread(fd_, p + done, bytes - done,
                                static_cast<off_t>(begin * sizeof(float) + done));
    if (got <= 0) throw std::runtime_error("ScoreSpill: short read");
    done += static_cast<std::size_t>(got);
  }
}

float ScoreSpill::at(std::size_t i) const {
  float v = 0.0f;
  read(i, &v, 1);
  return v;
}

// ---------------------------------------------------------------------------

std::size_t score_ligands(const chem::LigandSource& source,
                          const SurrogateModel& model, std::size_t begin,
                          std::size_t end, std::size_t window,
                          ScoreSpill* spill, StreamingTopK* topk) {
  if (window == 0) throw std::invalid_argument("score_ligands: window == 0");
  end = std::min(end, source.size());
  std::vector<chem::Image> images;
  std::size_t scored = 0;
  for (std::size_t b = begin; b < end; b += window) {
    const std::size_t e = std::min(end, b + window);
    source.images(b, e, images);
    const std::vector<float> pred = model.predict_batch(images);
    if (spill) spill->write(b, pred.data(), pred.size());
    if (topk)
      for (std::size_t i = 0; i < pred.size(); ++i)
        topk->offer(pred[i], b + i);
    source.release(b, e);
    scored += e - b;
  }
  return scored;
}

std::vector<TopCandidate> select_top_k(const ScoreSpill& spill, std::size_t k,
                                       std::size_t chunk) {
  if (chunk == 0) throw std::invalid_argument("select_top_k: chunk == 0");
  StreamingTopK topk(k);
  std::vector<float> buf(std::min(chunk, spill.size()));
  for (std::size_t b = 0; b < spill.size(); b += buf.size()) {
    const std::size_t n = std::min(buf.size(), spill.size() - b);
    spill.read(b, buf.data(), n);
    for (std::size_t i = 0; i < n; ++i) topk.offer(buf[i], b + i);
  }
  return topk.take_sorted();
}

}  // namespace impeccable::ml
