// On-disk checkpoint serialization.
//
// A minimal self-describing binary container for full state dicts (params +
// buffers, by fully-qualified name) and full optimizer states, so training
// can stop and resume across process boundaries — including at a *different
// world size or wrapping*, since the on-disk format is per-original-
// parameter and resharding happens at load (core/optim_state.h).
//
// Format (little-endian):
//   magic "FSDPCKPT" | u32 version | u32 n_entries
//   per entry: u8 kind (0 tensor, 1 optim) | fqn (u32 len + bytes)
//     tensor: u8 dtype | u32 ndim | i64 dims[] | f32 data[]
//     optim : i64 step | two tensors (exp_avg, exp_avg_sq) as above
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/optim_state.h"
#include "tensor/tensor.h"

namespace fsdp::core {

struct Checkpoint {
  std::vector<std::pair<std::string, Tensor>> state_dict;
  std::vector<FullOptimEntry> optim_state;
};

/// Little-endian binary writer over a stdio FILE — the primitive layer
/// shared by the full-checkpoint container below and the per-rank sharded
/// checkpoint files (src/elastic/sharded_ckpt.h). Errors are sticky: the
/// first short write flips ok() and every later call is a no-op.
class BinaryWriter {
 public:
  explicit BinaryWriter(std::FILE* f) : f_(f) {}
  bool ok() const { return ok_; }

  void Raw(const void* p, size_t n) {
    if (ok_ && std::fwrite(p, 1, n, f_) != n) ok_ = false;
  }
  void U8(uint8_t v) { Raw(&v, 1); }
  void U32(uint32_t v) { Raw(&v, 4); }
  void I64(int64_t v) { Raw(&v, 8); }
  void Str(const std::string& s) {
    U32(static_cast<uint32_t>(s.size()));
    Raw(s.data(), s.size());
  }
  void TensorData(const Tensor& t) {
    U8(static_cast<uint8_t>(t.dtype()));
    U32(static_cast<uint32_t>(t.shape().size()));
    for (int64_t d : t.shape()) I64(d);
    Raw(t.data(), static_cast<size_t>(t.numel()) * 4);
  }

 private:
  std::FILE* f_;
  bool ok_ = true;
};

/// Counterpart reader; same sticky-error discipline, plus bounds sanity on
/// string/tensor sizes so a corrupt file fails cleanly instead of
/// allocating garbage: tensor data is checked against the bytes the file
/// has left before anything is allocated for it.
class BinaryReader {
 public:
  explicit BinaryReader(std::FILE* f) : f_(f) {
    const long pos = std::ftell(f);
    if (pos >= 0 && std::fseek(f, 0, SEEK_END) == 0) {
      const long end = std::ftell(f);
      if (end >= pos) left_ = end - pos;
    }
    if (pos < 0 || std::fseek(f, pos, SEEK_SET) != 0) ok_ = false;
  }
  bool ok() const { return ok_; }

  void Raw(void* p, size_t n) {
    if (ok_ && std::fread(p, 1, n, f_) != n) ok_ = false;
    if (ok_) left_ -= static_cast<int64_t>(n);
  }
  uint8_t U8() {
    uint8_t v = 0;
    Raw(&v, 1);
    return v;
  }
  uint32_t U32() {
    uint32_t v = 0;
    Raw(&v, 4);
    return v;
  }
  int64_t I64() {
    int64_t v = 0;
    Raw(&v, 8);
    return v;
  }
  std::string Str() {
    const uint32_t n = U32();
    if (!ok_ || n > (1u << 20)) {
      ok_ = false;
      return {};
    }
    std::string s(n, '\0');
    Raw(s.data(), n);
    return s;
  }
  Tensor TensorData() {
    const uint8_t dtype = U8();
    const uint32_t ndim = U32();
    if (!ok_ || dtype > static_cast<uint8_t>(DType::kI64) || ndim > 8) {
      ok_ = false;
      return Tensor();
    }
    // Each dim is checked against the bound before it multiplies numel, so
    // a corrupt shape fails here instead of wrapping to a small numel.
    constexpr int64_t kMaxNumel = 1LL << 32;
    Shape shape;
    int64_t numel = 1;
    for (uint32_t d = 0; d < ndim; ++d) {
      const int64_t dim = I64();
      if (!ok_ || dim < 0 || (dim > 0 && numel > kMaxNumel / dim)) {
        ok_ = false;
        return Tensor();
      }
      shape.push_back(dim);
      numel *= dim;
    }
    // Nothing is allocated for data the file does not hold.
    if (numel > left_ / 4) {
      ok_ = false;
      return Tensor();
    }
    Tensor t = Tensor::Empty(shape, static_cast<DType>(dtype));
    Raw(t.data(), static_cast<size_t>(numel) * 4);
    return t;
  }

 private:
  std::FILE* f_;
  int64_t left_ = 0;  // bytes between the read position and end of file
  bool ok_ = true;
};

/// Writes the checkpoint to `path` (atomically via a temp file + rename).
Status SaveCheckpoint(const std::string& path, const Checkpoint& ckpt);

/// Reads a checkpoint written by SaveCheckpoint.
Result<Checkpoint> LoadCheckpoint(const std::string& path);

}  // namespace fsdp::core
