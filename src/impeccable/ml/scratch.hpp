#pragma once
// Per-thread float scratch for the inference kernels (GEMM operand packs,
// Conv3x3's padded image and column block), so the per-image path reuses
// its buffers instead of allocating and zero-filling new ones per image.
//
// A call site owns one `thread_local std::vector<float>` slot and leases it
// through a Scratch for the duration of one kernel call. Requests above
// kRetainFloats get a one-off buffer owned by the Scratch instead: a large
// training GEMM must not leave its panel resident for the thread's life.
// A slot must not be leased again on the same thread while a lease is live
// (the kernels do not re-enter themselves; a parallel_for caller only runs
// its own loop's chunks).

#include <cstddef>
#include <vector>

namespace impeccable::ml {

class Scratch {
 public:
  /// Largest buffer a slot keeps between calls: 16 Ki floats (64 KB), the
  /// surrogate's largest per-image scratch (a Conv3x3 column block).
  static constexpr std::size_t kRetainFloats = std::size_t{1} << 14;

  /// At least `n` floats, contents left over from earlier calls: `slot`,
  /// grown to `n`, when n <= kRetainFloats, else a buffer this Scratch owns.
  float* get(std::vector<float>& slot, std::size_t n) {
    std::vector<float>& buf = n <= kRetainFloats ? slot : own_;
    if (buf.size() < n) buf.resize(n);
    return buf.data();
  }

 private:
  std::vector<float> own_;
};

}  // namespace impeccable::ml
