#include "optim/optimizer.h"

#include <cmath>

namespace fsdp::optim {

void SGD::Step() {
  NoGradGuard no_grad;
  for (size_t i = 0; i < params_.size(); ++i) {
    Tensor& p = params_[i];
    Tensor g = p.grad();
    if (!g.defined()) continue;
    if (momentum_ != 0.f) {
      auto it = velocity_.find(i);
      if (it == velocity_.end()) {
        it = velocity_.emplace(i, g.Clone()).first;
      } else {
        it->second.Mul_(momentum_);
        it->second.Add_(g);
      }
      p.Add_(it->second, -lr_);
    } else {
      p.Add_(g, -lr_);
    }
  }
}

int64_t SGD::StateNumel() const {
  int64_t n = 0;
  for (const auto& [i, v] : velocity_) n += v.numel();
  return n;
}

void Adam::Step() {
  NoGradGuard no_grad;
  const float wd = opt_.weight_decay;
  const bool l2 = wd != 0.f && !opt_.decoupled_weight_decay;
  const bool adamw = wd != 0.f && opt_.decoupled_weight_decay;
  const float decay = 1.f - opt_.lr * wd;
  const float beta2 = opt_.beta2, eps = opt_.eps;
  const float w1 = 1.f - opt_.beta1, w2 = 1.f - beta2;
  for (size_t i = 0; i < params_.size(); ++i) {
    Tensor& p = params_[i];
    const Tensor g = p.grad();
    if (!g.defined()) continue;
    FSDP_CHECK_MSG(g.numel() == p.numel(), "Adam grad numel mismatch");
    auto& st = state_[i];
    if (!st.exp_avg.defined()) {
      st.exp_avg = Tensor::Zeros(p.shape());
      st.exp_avg_sq = Tensor::Zeros(p.shape());
    }
    ++st.step;
    const float bc1 =
        1.f - std::pow(opt_.beta1, static_cast<float>(st.step));
    const float bc2 =
        1.f - std::pow(opt_.beta2, static_cast<float>(st.step));
    // p -= lr * (m / bc1) / (sqrt(v / bc2) + eps)
    //    = p + (-lr/bc1) * m / (sqrt(v * (1/bc2)) + eps), as PyTorch does.
    const float step_size = -opt_.lr / bc1, inv_bc2 = 1.f / bc2;
    float* pp = p.data();
    const float* gp = g.data();
    float* m = st.exp_avg.data();
    float* v = st.exp_avg_sq.data();
    // One pass. Each element sees the operations, and roundings, of the
    // whole-tensor sequence g += wd * p (L2) or p *= 1 - lr * wd (AdamW);
    // m += (1 - beta1) * (g - m); v *= beta2; v += (1 - beta2) * g * g;
    // then the update above. The caller's gradient is never written.
    for (int64_t j = 0, n = p.numel(); j < n; ++j) {
      float gj = gp[j];
      if (l2) gj += wd * pp[j];
      if (adamw) pp[j] *= decay;
      m[j] += w1 * (gj - m[j]);
      v[j] *= beta2;
      v[j] += w2 * gj * gj;
      pp[j] += step_size * m[j] / (std::sqrt(v[j] * inv_bc2) + eps);
    }
  }
}

Adam::StateView Adam::GetState(size_t index) const {
  auto it = state_.find(index);
  if (it == state_.end() || !it->second.exp_avg.defined()) return {};
  return {it->second.exp_avg, it->second.exp_avg_sq, it->second.step, true};
}

void Adam::SetState(size_t index, const Tensor& exp_avg,
                    const Tensor& exp_avg_sq, int64_t step) {
  FSDP_CHECK_MSG(index < params_.size(), "param index out of range");
  FSDP_CHECK_MSG(exp_avg.numel() == params_[index].numel() &&
                     exp_avg_sq.numel() == params_[index].numel(),
                 "optimizer state shape mismatch for param " << index);
  State st;
  st.exp_avg = exp_avg.Clone().ViewAs(params_[index].shape());
  st.exp_avg_sq = exp_avg_sq.Clone().ViewAs(params_[index].shape());
  st.step = step;
  state_[index] = std::move(st);
}

int64_t Adam::StateNumel() const {
  int64_t n = 0;
  for (const auto& [i, st] : state_) {
    n += st.exp_avg.numel() + st.exp_avg_sq.numel();
  }
  return n;
}

}  // namespace fsdp::optim
