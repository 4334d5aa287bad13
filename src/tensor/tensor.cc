#include "tensor/tensor.h"

#include <atomic>
#include <cmath>
#include <cstring>
#include <sstream>

namespace fsdp {

namespace {
std::atomic<int64_t> g_live_bytes{0};
std::atomic<int64_t> g_peak_bytes{0};

void AddLiveBytes(int64_t delta) {
  const int64_t now =
      g_live_bytes.fetch_add(delta, std::memory_order_relaxed) + delta;
  int64_t peak = g_peak_bytes.load(std::memory_order_relaxed);
  while (now > peak &&
         !g_peak_bytes.compare_exchange_weak(peak, now,
                                             std::memory_order_relaxed)) {
  }
}

thread_local bool g_grad_enabled = true;
}  // namespace

namespace grad_mode {
bool Enabled() { return g_grad_enabled; }
}  // namespace grad_mode

NoGradGuard::NoGradGuard() : prev_(g_grad_enabled) { g_grad_enabled = false; }
NoGradGuard::~NoGradGuard() { g_grad_enabled = prev_; }

EnableGradGuard::EnableGradGuard() : prev_(g_grad_enabled) {
  g_grad_enabled = true;
}
EnableGradGuard::~EnableGradGuard() { g_grad_enabled = prev_; }

Storage::Storage(int64_t numel, Device device)
    : numel_(numel), device_(device), allocated_(device == Device::kCpu) {
  FSDP_CHECK_MSG(numel >= 0, "negative storage size " << numel);
  if (allocated_) {
    data_.resize(static_cast<size_t>(numel), 0.f);
    AddLiveBytes(numel * 4);
  }
}

Storage::~Storage() {
  if (allocated_) AddLiveBytes(-numel_ * 4);
}

void Storage::Free() {
  FSDP_CHECK_MSG(device_ == Device::kCpu, "Free on fake-device storage");
  if (!allocated_) return;
  std::vector<float>().swap(data_);
  allocated_ = false;
  AddLiveBytes(-numel_ * 4);
}

void Storage::Allocate() {
  FSDP_CHECK_MSG(device_ == Device::kCpu, "Allocate on fake-device storage");
  if (allocated_) return;
  data_.assign(static_cast<size_t>(numel_), 0.f);
  allocated_ = true;
  AddLiveBytes(numel_ * 4);
}

int64_t Storage::live_bytes() {
  return g_live_bytes.load(std::memory_order_relaxed);
}

int64_t Storage::peak_bytes() {
  return g_peak_bytes.load(std::memory_order_relaxed);
}

void Storage::ResetPeakBytes() {
  g_peak_bytes.store(g_live_bytes.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
}

Tensor Tensor::Empty(Shape shape, DType dtype, Device device) {
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = std::move(shape);
  impl->dtype = dtype;
  impl->storage = std::make_shared<Storage>(impl->numel(), device);
  return Tensor(std::move(impl));
}

Tensor Tensor::Zeros(Shape shape, DType dtype) {
  return Empty(std::move(shape), dtype);  // storage zero-initialized
}

Tensor Tensor::Ones(Shape shape, DType dtype) {
  return Full(std::move(shape), 1.f, dtype);
}

Tensor Tensor::Full(Shape shape, float value, DType dtype) {
  Tensor t = Empty(std::move(shape), dtype);
  t.Fill_(Quantize(value, dtype));
  return t;
}

Tensor Tensor::FromVector(const std::vector<float>& values, Shape shape) {
  FSDP_CHECK_MSG(NumelOf(shape) == static_cast<int64_t>(values.size()),
                 "shape " << ShapeToString(shape) << " vs " << values.size()
                          << " values");
  Tensor t = Empty(std::move(shape));
  std::memcpy(t.data(), values.data(), values.size() * sizeof(float));
  return t;
}

Tensor Tensor::Randn(Shape shape, Rng& rng, float mean, float std) {
  Tensor t = Empty(std::move(shape));
  float* p = t.data();
  const int64_t n = t.numel();
  for (int64_t i = 0; i < n; ++i) {
    p[i] = static_cast<float>(rng.NextNormal(mean, std));
  }
  return t;
}

Tensor Tensor::RandUniform(Shape shape, Rng& rng, float lo, float hi) {
  Tensor t = Empty(std::move(shape));
  float* p = t.data();
  const int64_t n = t.numel();
  for (int64_t i = 0; i < n; ++i) {
    p[i] = static_cast<float>(rng.NextUniform(lo, hi));
  }
  return t;
}

Tensor Tensor::Scalar(float value) { return Full({}, value); }

int64_t Tensor::size(int64_t d) const {
  const auto& s = impl_->shape;
  if (d < 0) d += static_cast<int64_t>(s.size());
  FSDP_CHECK_MSG(d >= 0 && d < static_cast<int64_t>(s.size()),
                 "dim " << d << " out of range for " << ShapeToString(s));
  return s[static_cast<size_t>(d)];
}

float Tensor::item() const {
  FSDP_CHECK_MSG(numel() == 1, "item() on tensor with numel " << numel());
  return *data();
}

float Tensor::at(std::initializer_list<int64_t> idx) const {
  const auto& s = impl_->shape;
  FSDP_CHECK(idx.size() == s.size());
  int64_t flat = 0;
  size_t d = 0;
  for (int64_t i : idx) {
    FSDP_CHECK_MSG(i >= 0 && i < s[d], "index " << i << " out of bounds");
    flat = flat * s[d] + i;
    ++d;
  }
  return data()[flat];
}

void Tensor::set_at(std::initializer_list<int64_t> idx, float v) {
  const auto& s = impl_->shape;
  FSDP_CHECK(idx.size() == s.size());
  int64_t flat = 0;
  size_t d = 0;
  for (int64_t i : idx) {
    flat = flat * s[d] + i;
    ++d;
  }
  data()[flat] = v;
}

Tensor Tensor::SliceView(int64_t offset, Shape shape) const {
  const int64_t len = NumelOf(shape);
  FSDP_CHECK_MSG(offset >= 0 && offset + len <= numel(),
                 "slice [" << offset << ", " << offset + len
                           << ") out of range for numel " << numel());
  auto impl = std::make_shared<TensorImpl>();
  impl->storage = impl_->storage;
  impl->offset = impl_->offset + offset;
  impl->shape = std::move(shape);
  impl->dtype = impl_->dtype;
  return Tensor(std::move(impl));
}

Tensor Tensor::ViewAs(Shape shape) const {
  FSDP_CHECK_MSG(NumelOf(shape) == numel(),
                 "view " << ShapeToString(shape) << " on numel " << numel());
  return SliceView(0, std::move(shape));
}

bool Tensor::UniquelyOwned() const {
  return defined() && impl_.use_count() == 1 &&
         impl_->storage.use_count() == 1 && impl_->offset == 0 &&
         impl_->storage->numel() == numel() && !impl_->requires_grad &&
         !impl_->grad && !impl_->grad_fn && impl_->hooks.empty() &&
         impl_->post_accumulate_hooks.empty();
}

Tensor Tensor::Clone() const {
  Tensor out = Empty(impl_->shape, impl_->dtype);
  std::memcpy(out.data(), data(), static_cast<size_t>(numel()) * 4);
  return out;
}

Tensor Tensor::CastTo(DType dtype) const {
  Tensor out = Empty(impl_->shape, dtype);
  const float* src = data();
  float* dst = out.data();
  const int64_t n = numel();
  for (int64_t i = 0; i < n; ++i) dst[i] = Quantize(src[i], dtype);
  return out;
}

void Tensor::Fill_(float v) {
  float* p = data();
  const int64_t n = numel();
  for (int64_t i = 0; i < n; ++i) p[i] = v;
}

void Tensor::Zero_() { Fill_(0.f); }

void Tensor::Add_(const Tensor& other, float alpha) {
  FSDP_CHECK_MSG(other.numel() == numel(), "Add_ numel mismatch");
  float* p = data();
  const float* q = other.data();
  const int64_t n = numel();
  for (int64_t i = 0; i < n; ++i) p[i] += alpha * q[i];
}

void Tensor::Mul_(float s) {
  float* p = data();
  const int64_t n = numel();
  for (int64_t i = 0; i < n; ++i) p[i] *= s;
}

void Tensor::Lerp_(const Tensor& other, float w) {
  FSDP_CHECK(other.numel() == numel());
  float* p = data();
  const float* q = other.data();
  const int64_t n = numel();
  for (int64_t i = 0; i < n; ++i) p[i] += w * (q[i] - p[i]);
}

void Tensor::Addcmul_(const Tensor& a, const Tensor& b, float value) {
  FSDP_CHECK(a.numel() == numel() && b.numel() == numel());
  float* p = data();
  const float* pa = a.data();
  const float* pb = b.data();
  const int64_t n = numel();
  for (int64_t i = 0; i < n; ++i) p[i] += value * pa[i] * pb[i];
}

void Tensor::AddcdivSqrt_(const Tensor& a, const Tensor& b, float value,
                          float eps) {
  FSDP_CHECK(a.numel() == numel() && b.numel() == numel());
  float* p = data();
  const float* pa = a.data();
  const float* pb = b.data();
  const int64_t n = numel();
  for (int64_t i = 0; i < n; ++i) {
    p[i] += value * pa[i] / (std::sqrt(pb[i]) + eps);
  }
}

void Tensor::CopyFrom_(const Tensor& src) {
  FSDP_CHECK_MSG(src.numel() == numel(),
                 "CopyFrom_ numel mismatch " << src.numel() << " vs "
                                             << numel());
  std::memcpy(data(), src.data(), static_cast<size_t>(numel()) * 4);
}

void Tensor::QuantizeInPlace_() {
  if (impl_->dtype == DType::kF32 || impl_->dtype == DType::kI64) return;
  float* p = data();
  const int64_t n = numel();
  for (int64_t i = 0; i < n; ++i) p[i] = Quantize(p[i], impl_->dtype);
}

float Tensor::SumValue() const {
  const float* p = data();
  const int64_t n = numel();
  double s = 0;
  for (int64_t i = 0; i < n; ++i) s += p[i];
  return static_cast<float>(s);
}

float Tensor::MaxAbsValue() const {
  const float* p = data();
  const int64_t n = numel();
  float m = 0;
  for (int64_t i = 0; i < n; ++i) m = std::max(m, std::fabs(p[i]));
  return m;
}

bool Tensor::HasNonFinite() const {
  const float* p = data();
  const int64_t n = numel();
  for (int64_t i = 0; i < n; ++i) {
    if (!std::isfinite(p[i])) return true;
  }
  return false;
}

bool Tensor::AllClose(const Tensor& other, float rtol, float atol) const {
  if (!other.defined() || other.numel() != numel()) return false;
  const float* p = data();
  const float* q = other.data();
  const int64_t n = numel();
  for (int64_t i = 0; i < n; ++i) {
    const float diff = std::fabs(p[i] - q[i]);
    if (diff > atol + rtol * std::fabs(q[i])) return false;
    if (std::isnan(p[i]) != std::isnan(q[i])) return false;
  }
  return true;
}

std::string Tensor::ToString() const {
  if (!defined()) return "Tensor(undefined)";
  std::ostringstream oss;
  oss << "Tensor(shape=" << ShapeToString(impl_->shape)
      << ", dtype=" << DTypeName(impl_->dtype);
  if (device() == Device::kFake) {
    oss << ", device=fake)";
    return oss.str();
  }
  const int64_t n = numel();
  oss << ", data=[";
  for (int64_t i = 0; i < std::min<int64_t>(n, 8); ++i) {
    if (i) oss << ", ";
    oss << data()[i];
  }
  if (n > 8) oss << ", ...";
  oss << "])";
  return oss.str();
}

}  // namespace fsdp
