// Tensor: the value type of the functional layer.
//
// Design (mirrors the PyTorch concepts the FSDP paper builds on):
//  * A Tensor is a cheap handle (shared_ptr) to a TensorImpl.
//  * TensorImpl = Storage + offset + shape. Several tensors may share one
//    Storage — exactly how FSDP's original parameters become views into the
//    unsharded FlatParameter (paper Sec 3.2.3 / 4.2).
//  * All tensors are contiguous row-major; "views" are (storage, offset,
//    shape) triples over a flat region.
//  * Autograd metadata (requires_grad, grad, grad_fn, hooks) lives on the
//    impl; the GradFn node type is defined by the autograd module.
//  * A Storage lives on a Device. kFake storage has no bytes — it backs
//    deferred initialization (paper Sec 3.1), where ops are recorded instead
//    of executed.
//  * CPU bytes come from a small caching allocator (tensor.cc): a freed
//    block waits for the next Storage of its exact size, the way PyTorch's
//    caching allocator hands a resharded FlatParameter's block to the next
//    unshard.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "tensor/dtype.h"

namespace fsdp {

using Shape = std::vector<int64_t>;

/// Number of elements implied by a shape.
inline int64_t NumelOf(const Shape& shape) {
  int64_t n = 1;
  for (int64_t d : shape) n *= d;
  return n;
}

inline std::string ShapeToString(const Shape& shape) {
  std::string s = "[";
  for (size_t i = 0; i < shape.size(); ++i) {
    if (i) s += ", ";
    s += std::to_string(shape[i]);
  }
  return s + "]";
}

/// Where a Storage's bytes live. kFake allocates nothing and records nothing
/// by itself — deferred-init recording is layered on in core/deferred_init.
enum class Device : uint8_t { kCpu = 0, kFake = 1 };

/// Reference-counted flat buffer. Data is always held as FP32 floats; the
/// dtype tag on the Tensor governs quantization and byte accounting.
///
/// Blocks of 16 KiB and more are cached when freed and handed, zeroed, to
/// the next Storage of the same numel. The cache keeps cached_bytes() +
/// live_bytes() within the process's high-water mark of live_bytes(), so it
/// never raises the peak by itself; the least recently freed block goes back
/// to the OS first, or its pages go to the allocation that evicted it.
class Storage {
 public:
  Storage(int64_t numel, Device device);
  ~Storage();
  Storage(const Storage&) = delete;
  Storage& operator=(const Storage&) = delete;

  float* data() {
    CheckReadable();
    return data_;
  }
  const float* data() const {
    CheckReadable();
    return data_;
  }

  int64_t numel() const { return numel_; }
  Device device() const { return device_; }

  /// Releases the bytes while keeping the logical size — PyTorch's
  /// FlatParameter resize_(0). Views stay structurally valid but any data
  /// access aborts with a "freed storage" error (the paper's Sec 7.2.2
  /// "missing tensor storage" failure mode). kCpu only.
  void Free();
  /// Re-allocates `numel()` zeroed elements after Free(). Views see the new
  /// bytes because they share this Storage object (resize_ semantics).
  void Allocate();
  bool is_allocated() const { return allocated_; }

  /// Total live CPU bytes across all Storages (leak / footprint checks).
  static int64_t live_bytes();
  /// High-watermark of live_bytes since the last ResetPeakBytes().
  static int64_t peak_bytes();
  static void ResetPeakBytes();

  /// Bytes held by the cache of freed blocks, counted like live_bytes().
  static int64_t cached_bytes();
  /// Allocations of a cacheable size that reused a cached block, and those
  /// that mapped fresh pages, since process start.
  static int64_t cache_hits();
  static int64_t cache_misses();

 private:
  void CheckReadable() const {
    FSDP_CHECK_MSG(device_ == Device::kCpu,
                   "accessing data of a fake-device storage");
    FSDP_CHECK_MSG(allocated_,
                   "accessing data of a freed storage (parameter used after "
                   "its FSDP unit was resharded?)");
  }

  float* data_ = nullptr;
  int64_t numel_;
  Device device_;
  bool allocated_;
};

struct GradFn;  // defined in autograd/node.h
class Tensor;

/// Hook on a tensor's gradient: receives the finalized grad, may return a
/// replacement (or an undefined Tensor to keep it). Mirrors
/// torch.Tensor.register_hook — FSDP anchors pre-backward unshard logic here.
using TensorHook = std::function<Tensor(const Tensor&)>;

/// Hook fired after a leaf's gradient finishes accumulating (PyTorch's
/// AccumulateGrad post-hook). FSDP launches ReduceScatter from here.
using PostAccumulateGradHook = std::function<void()>;

struct TensorImpl {
  std::shared_ptr<Storage> storage;
  int64_t offset = 0;  // element offset into storage
  Shape shape;
  DType dtype = DType::kF32;

  // --- autograd state ---
  bool requires_grad = false;
  std::shared_ptr<TensorImpl> grad;     // accumulated gradient (leaves)
  std::shared_ptr<GradFn> grad_fn;      // producer node (non-leaves)
  std::vector<TensorHook> hooks;
  std::vector<PostAccumulateGradHook> post_accumulate_hooks;

  int64_t numel() const { return NumelOf(shape); }
};

/// Value-semantics handle over TensorImpl. Copying a Tensor aliases the same
/// data (like PyTorch); Clone() makes a deep copy.
class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(std::shared_ptr<TensorImpl> impl) : impl_(std::move(impl)) {}

  // ----- factories -----
  static Tensor Empty(Shape shape, DType dtype = DType::kF32,
                      Device device = Device::kCpu);
  static Tensor Zeros(Shape shape, DType dtype = DType::kF32);
  static Tensor Ones(Shape shape, DType dtype = DType::kF32);
  static Tensor Full(Shape shape, float value, DType dtype = DType::kF32);
  static Tensor FromVector(const std::vector<float>& values, Shape shape);
  /// Standard-normal values drawn from `rng` (counter-based: reproducible).
  static Tensor Randn(Shape shape, Rng& rng, float mean = 0.f, float std = 1.f);
  static Tensor RandUniform(Shape shape, Rng& rng, float lo, float hi);
  /// Scalar convenience.
  static Tensor Scalar(float value);

  // ----- structure -----
  bool defined() const { return impl_ != nullptr; }
  const Shape& shape() const { return impl_->shape; }
  int64_t dim() const { return static_cast<int64_t>(impl_->shape.size()); }
  int64_t size(int64_t d) const;
  int64_t numel() const { return impl_ ? impl_->numel() : 0; }
  DType dtype() const { return impl_->dtype; }
  Device device() const { return impl_->storage->device(); }
  /// Bytes this tensor occupies under its dtype tag (accounting only).
  int64_t nbytes() const { return numel() * SizeOf(dtype()); }

  std::shared_ptr<TensorImpl> impl() const { return impl_; }
  std::shared_ptr<Storage> storage() const { return impl_->storage; }
  int64_t storage_offset() const { return impl_->offset; }
  /// True if both tensors alias the same Storage object.
  bool SharesStorageWith(const Tensor& other) const {
    return defined() && other.defined() && impl_->storage == other.impl_->storage;
  }
  /// True if this handle is the only one to its impl and storage, the
  /// tensor spans its whole storage from element 0, and it carries no
  /// autograd state: whoever holds the handle may keep it without a copy.
  bool UniquelyOwned() const;

  // ----- raw data -----
  float* data() { return impl_->storage->data() + impl_->offset; }
  const float* data() const { return impl_->storage->data() + impl_->offset; }
  float item() const;
  float at(std::initializer_list<int64_t> idx) const;
  void set_at(std::initializer_list<int64_t> idx, float v);

  // ----- views (share storage; no autograd edge — see autograd/ops.h for
  //       the graph-visible Slice/View used by FlatParameter) -----
  /// Flat window of `len` elements starting at element `offset` (relative to
  /// this tensor), reinterpreted with `shape`.
  Tensor SliceView(int64_t offset, Shape shape) const;
  /// Same data, new shape (numel must match).
  Tensor ViewAs(Shape shape) const;
  /// Flattened 1-D view.
  Tensor Flatten() const { return ViewAs({numel()}); }

  // ----- copies & casts (no autograd) -----
  Tensor Clone() const;
  /// Quantizing copy through `dtype` (see tensor/dtype.h).
  Tensor CastTo(DType dtype) const;

  // ----- in-place, autograd-invisible math (optimizer/engine internals) ---
  void Fill_(float v);
  void Zero_();
  /// this += alpha * other (elementwise, same numel).
  void Add_(const Tensor& other, float alpha = 1.f);
  void Mul_(float s);
  /// this = this * (1 - w) + other * w.
  void Lerp_(const Tensor& other, float w);
  /// this += value * a * b (elementwise).
  void Addcmul_(const Tensor& a, const Tensor& b, float value);
  /// this += value * a / (sqrt(b) + eps)  — Adam update helper.
  void AddcdivSqrt_(const Tensor& a, const Tensor& b, float value, float eps);
  void CopyFrom_(const Tensor& src);
  /// Re-quantizes contents in place through this tensor's dtype tag.
  void QuantizeInPlace_();

  // ----- reductions / inspection (no autograd) -----
  float SumValue() const;
  float MaxAbsValue() const;
  bool HasNonFinite() const;
  bool AllClose(const Tensor& other, float rtol = 1e-5f,
                float atol = 1e-7f) const;

  // ----- autograd surface -----
  bool requires_grad() const { return impl_ && impl_->requires_grad; }
  Tensor& set_requires_grad(bool v) {
    impl_->requires_grad = v;
    return *this;
  }
  bool is_leaf() const { return !impl_->grad_fn; }
  Tensor grad() const {
    return impl_->grad ? Tensor(impl_->grad) : Tensor();
  }
  void set_grad(const Tensor& g) { impl_->grad = g.impl(); }
  void zero_grad() { impl_->grad.reset(); }
  std::shared_ptr<GradFn> grad_fn() const { return impl_->grad_fn; }
  void set_grad_fn(std::shared_ptr<GradFn> fn) {
    impl_->grad_fn = std::move(fn);
  }
  /// torch.Tensor.register_hook analogue.
  void register_hook(TensorHook hook) {
    impl_->hooks.push_back(std::move(hook));
  }
  /// AccumulateGrad post-hook analogue (leaves only).
  void register_post_accumulate_grad_hook(PostAccumulateGradHook hook) {
    FSDP_CHECK_MSG(is_leaf(), "post-accumulate hooks only apply to leaves");
    impl_->post_accumulate_hooks.push_back(std::move(hook));
  }
  /// Drops autograd hook state (FSDP re-registers per-iteration hooks).
  void clear_hooks() {
    impl_->hooks.clear();
    impl_->post_accumulate_hooks.clear();
  }

  std::string ToString() const;

 private:
  std::shared_ptr<TensorImpl> impl_;
};

/// RAII guard disabling autograd graph construction within scope (analogue of
/// torch.no_grad()). Ops check GradMode::enabled() before building nodes.
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

 private:
  bool prev_;
};

/// RAII guard re-enabling autograd inside a NoGrad scope (torch.enable_grad);
/// activation checkpointing uses this for its recompute pass, which runs
/// inside the (grad-disabled) backward engine.
class EnableGradGuard {
 public:
  EnableGradGuard();
  ~EnableGradGuard();
  EnableGradGuard(const EnableGradGuard&) = delete;
  EnableGradGuard& operator=(const EnableGradGuard&) = delete;

 private:
  bool prev_;
};

namespace grad_mode {
bool Enabled();
}

}  // namespace fsdp
