#include "tensor/tensor.h"

#include <sanitizer/asan_interface.h>
#include <sys/mman.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <list>
#include <mutex>
#include <sstream>
#include <unordered_map>

namespace fsdp {

namespace {
std::atomic<int64_t> g_live_bytes{0};
std::atomic<int64_t> g_peak_bytes{0};
// Like g_peak_bytes, but never reset: the block cache's bound.
std::atomic<int64_t> g_high_water_bytes{0};

void RaiseTo(std::atomic<int64_t>& peak, int64_t now) {
  int64_t seen = peak.load(std::memory_order_relaxed);
  while (now > seen &&
         !peak.compare_exchange_weak(seen, now, std::memory_order_relaxed)) {
  }
}

void AddLiveBytes(int64_t delta) {
  const int64_t now =
      g_live_bytes.fetch_add(delta, std::memory_order_relaxed) + delta;
  RaiseTo(g_peak_bytes, now);
  RaiseTo(g_high_water_bytes, now);
}

// Smaller blocks stay on malloc: its bins already recycle them without a
// page fault, and a mapping of its own would cost a syscall and a whole page.
constexpr int64_t kMinCachedBytes = 16 << 10;

#if defined(__SANITIZE_ADDRESS__)
// Under ASan the blocks come from malloc, whose redzones report a write past
// a tensor's end; a page-rounded mapping would hide it in its slack.
float* FreshBlock(int64_t bytes) {
  return static_cast<float*>(std::calloc(static_cast<size_t>(bytes), 1));
}
void ReturnBlock(float* p, int64_t /*bytes*/) { std::free(p); }
float* ResizeBlock(float* p, int64_t /*old_bytes*/, int64_t bytes) {
  std::free(p);
  return FreshBlock(bytes);
}
#else
// Mapped, not malloc'd: glibc would keep a freed block in its heap, and an
// evicted block must leave the process's RSS. Fresh pages read as zeros.
size_t MappedBytes(int64_t bytes) {
  constexpr size_t kPage = 4096;
  return (static_cast<size_t>(bytes) + kPage - 1) & ~(kPage - 1);
}
float* FreshBlock(int64_t bytes) {
  void* p = mmap(nullptr, MappedBytes(bytes), PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  FSDP_CHECK_MSG(p != MAP_FAILED, "mmap of " << bytes << " bytes failed");
  return static_cast<float*>(p);
}
void ReturnBlock(float* p, int64_t bytes) { munmap(p, MappedBytes(bytes)); }
// The first min(old, new) bytes keep their resident pages, and whatever
// they last held.
float* ResizeBlock(float* p, int64_t old_bytes, int64_t bytes) {
  void* q = mremap(p, MappedBytes(old_bytes), MappedBytes(bytes),
                   MREMAP_MAYMOVE);
  FSDP_CHECK_MSG(q != MAP_FAILED, "mremap to " << bytes << " bytes failed");
  return static_cast<float*>(q);
}
#endif

// Freed blocks of at least kMinCachedBytes, one free list per exact size.
// Blocks cross threads (a comm worker drops the operands a rank thread
// allocated), so one mutex guards the lists; the counters are atomic so the
// bound can be checked without it.
class BlockCache {
 public:
  // The most recently freed block of `bytes` (still warm in cache), or
  // nullptr. The caller zeroes it.
  float* Take(int64_t bytes) {
    float* p = nullptr;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = by_size_.find(bytes);
      if (it != by_size_.end() && !it->second.empty()) {
        const auto entry = it->second.back();
        it->second.pop_back();
        p = entry->ptr;
        lru_.erase(entry);
        cached_bytes_.fetch_sub(bytes, std::memory_order_relaxed);
      }
    }
    (p ? hits_ : misses_).fetch_add(1, std::memory_order_relaxed);
    if (p) ASAN_UNPOISON_MEMORY_REGION(p, static_cast<size_t>(bytes));
    return p;
  }

  // Keeps a freed block; until it is taken again, touching it is an ASan
  // error.
  void Put(float* p, int64_t bytes) {
    ASAN_POISON_MEMORY_REGION(p, static_cast<size_t>(bytes));
    {
      std::lock_guard<std::mutex> lock(mu_);
      lru_.push_back({p, bytes});
      by_size_[bytes].push_back(std::prev(lru_.end()));
      cached_bytes_.fetch_add(bytes, std::memory_order_relaxed);
    }
    Trim();
  }

  // Returns the least recently freed blocks to the OS until cached + live
  // bytes fit under the live high-water mark. Called after live bytes grow.
  void Trim() {
    Entry victim{};
    while (PopVictim(&victim)) ReturnBlock(victim.ptr, victim.bytes);
  }

  // A miss of `bytes` that must evict: the least recently freed block's
  // pages, remapped to `bytes`, instead of unmapping them and faulting in
  // fresh ones. nullptr when nothing needs to go. The caller zeroes it.
  float* Recycle(int64_t bytes) {
    Entry victim{};
    if (!PopVictim(&victim)) return nullptr;
    float* p = ResizeBlock(victim.ptr, victim.bytes, bytes);
    Trim();
    return p;
  }

  int64_t cached_bytes() const {
    return cached_bytes_.load(std::memory_order_relaxed);
  }
  int64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  int64_t misses() const { return misses_.load(std::memory_order_relaxed); }

 private:
  struct Entry {
    float* ptr;
    int64_t bytes;
  };

  // Unlinks the least recently freed block while cached + live bytes exceed
  // the high-water mark.
  bool PopVictim(Entry* victim) {
    if (!OverBound()) return false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (lru_.empty() || !OverBound()) return false;
      *victim = lru_.front();
      auto& same_size = by_size_[victim->bytes];
      same_size.erase(same_size.begin());  // its oldest is the LRU front
      lru_.pop_front();
      cached_bytes_.fetch_sub(victim->bytes, std::memory_order_relaxed);
    }
    ASAN_UNPOISON_MEMORY_REGION(victim->ptr,
                                static_cast<size_t>(victim->bytes));
    return true;
  }

  bool OverBound() const {
    return cached_bytes() + g_live_bytes.load(std::memory_order_relaxed) >
           g_high_water_bytes.load(std::memory_order_relaxed);
  }

  std::mutex mu_;
  std::list<Entry> lru_;  // front: least recently freed
  // Per size, oldest first; each entry points into lru_.
  std::unordered_map<int64_t, std::vector<std::list<Entry>::iterator>>
      by_size_;
  std::atomic<int64_t> cached_bytes_{0};
  std::atomic<int64_t> hits_{0};
  std::atomic<int64_t> misses_{0};
};

// Never destroyed: Storages in static objects may be freed after it would be.
BlockCache& Cache() {
  static auto* cache = new BlockCache;
  return *cache;
}

// `numel` zeroed floats, counted in live bytes.
float* AllocateBlock(int64_t numel) {
  const int64_t bytes = numel * static_cast<int64_t>(sizeof(float));
  AddLiveBytes(bytes);
  if (bytes < kMinCachedBytes) {
    Cache().Trim();  // make room before fresh bytes count against RSS
    void* p = std::calloc(static_cast<size_t>(numel), sizeof(float));
    FSDP_CHECK_MSG(p != nullptr || numel == 0,
                   "calloc of " << bytes << " bytes failed");
    return static_cast<float*>(p);
  }
  float* p = Cache().Take(bytes);
  if (p == nullptr) p = Cache().Recycle(bytes);
  if (p == nullptr) return FreshBlock(bytes);
  std::memset(p, 0, static_cast<size_t>(bytes));
  return p;
}

void ReleaseBlock(float* p, int64_t numel) {
  const int64_t bytes = numel * static_cast<int64_t>(sizeof(float));
  AddLiveBytes(-bytes);
  if (bytes < kMinCachedBytes) {
    std::free(p);
  } else {
    Cache().Put(p, bytes);
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
  if (allocated_) data_ = AllocateBlock(numel);
}

Storage::~Storage() {
  if (allocated_) ReleaseBlock(data_, numel_);
}

void Storage::Free() {
  FSDP_CHECK_MSG(device_ == Device::kCpu, "Free on fake-device storage");
  if (!allocated_) return;
  ReleaseBlock(data_, numel_);
  data_ = nullptr;
  allocated_ = false;
}

void Storage::Allocate() {
  FSDP_CHECK_MSG(device_ == Device::kCpu, "Allocate on fake-device storage");
  if (allocated_) return;
  data_ = AllocateBlock(numel_);
  allocated_ = true;
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

int64_t Storage::cached_bytes() { return Cache().cached_bytes(); }
int64_t Storage::cache_hits() { return Cache().hits(); }
int64_t Storage::cache_misses() { return Cache().misses(); }

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
