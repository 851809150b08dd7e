#pragma once
// Per-thread float scratch for the inference kernels (GEMM operand packs,
// the implicit-GEMM convolution's padded image), so the per-image path
// reuses its buffers instead of allocating new ones per image.
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
  /// Largest buffer a slot keeps between calls: 16 Ki floats (64 KB). The
  /// surrogate's largest per-image scratch is conv1's zero-bordered input,
  /// 4·34·34 = 4,624 floats at 32×32 images, so images up to about 62×62
  /// stay allocation-free while a training GEMM's operand packs do not
  /// stay resident.
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
