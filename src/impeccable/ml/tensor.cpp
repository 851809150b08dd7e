#include "impeccable/ml/tensor.hpp"
#include "impeccable/common/rng.hpp"

#include <algorithm>
#include <numeric>

namespace impeccable::ml {

namespace {
std::size_t total(const std::vector<int>& shape) {
  std::size_t n = 1;
  for (int d : shape) {
    if (d <= 0) throw std::invalid_argument("Tensor: nonpositive dimension");
    n *= static_cast<std::size_t>(d);
  }
  return n;
}
}  // namespace

Tensor::Tensor(std::vector<int> shape)
    : shape_(std::move(shape)), data_(total(shape_), 0.0f) {}

Tensor Tensor::full(std::vector<int> shape, float value) {
  Tensor t(std::move(shape));
  t.fill(value);
  return t;
}

Tensor Tensor::randn(std::vector<int> shape, common::Rng& rng, float stddev) {
  Tensor t(std::move(shape));
  for (std::size_t i = 0; i < t.size(); ++i)
    t[i] = static_cast<float>(rng.gauss(0.0, stddev));
  return t;
}

Tensor Tensor::reshaped(std::vector<int> shape) const {
  if (total(shape) != size())
    throw std::invalid_argument("Tensor::reshaped: size mismatch");
  Tensor t;
  t.shape_ = std::move(shape);
  t.data_ = data_;
  return t;
}

void Tensor::fill(float v) {
  std::fill(data_.begin(), data_.end(), v);
}

Tensor& Tensor::operator+=(const Tensor& o) {
  check_same_shape(*this, o, "Tensor::operator+=");
  // No __restrict: `t += t` is legal. Each iteration touches only index i,
  // so the omp simd promise holds either way.
  float* a = data_.data();
  const float* b = o.data_.data();
  const std::size_t n = data_.size();
#pragma omp simd
  for (std::size_t i = 0; i < n; ++i) a[i] += b[i];
  return *this;
}

Tensor& Tensor::operator*=(float s) {
  for (auto& v : data_) v *= s;
  return *this;
}

std::string Tensor::shape_string() const {
  std::string s = "(";
  for (std::size_t i = 0; i < shape_.size(); ++i) {
    if (i) s += ", ";
    s += std::to_string(shape_[i]);
  }
  return s + ")";
}

void check_same_shape(const Tensor& a, const Tensor& b, const char* where) {
  if (a.shape() != b.shape())
    throw std::invalid_argument(std::string(where) + ": shape mismatch " +
                                a.shape_string() + " vs " + b.shape_string());
}

}  // namespace impeccable::ml
