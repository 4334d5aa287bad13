// GradFn: a node in the dynamically-built backward graph.
//
// Every differentiable op allocates a GradFn subclass capturing what the
// backward pass needs, wires `inputs` to the op's input TensorImpls, and
// attaches itself to the output tensor. The engine (autograd/engine.h) walks
// these nodes in reverse-topological order with dependency counting — the
// same structure PyTorch's engine uses, which is what lets FSDP (paper
// Sec 4.3) anchor its logic on gradient readiness rather than on module
// source changes.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace fsdp {

struct GradFn {
  virtual ~GradFn() = default;

  /// Human-readable op name for error messages and graph dumps.
  virtual std::string name() const = 0;

  /// Computes gradients w.r.t. `inputs`, aligned by index. Entries for inputs
  /// that do not require grad may be undefined Tensors.
  virtual std::vector<Tensor> Backward(const Tensor& grad_output) = 0;

  /// The op's inputs, in order. The engine counts gradient contributions per
  /// TensorImpl; an input appearing twice receives two contributions.
  std::vector<std::shared_ptr<TensorImpl>> inputs;

  /// Creation sequence number. The engine executes ready nodes
  /// latest-created-first (PyTorch's sequence_nr scheduling) — the property
  /// that puts a unit's FlatParameter-view backwards (created at
  /// pre-forward) after the unit's compute ops but before the *previous*
  /// unit's ops, yielding the paper's backward communication order.
  uint64_t seq = 0;
};

/// A single-input node whose input's gradient is grad_output placed at one
/// fixed window of the input and zero elsewhere (SliceView, SliceCols). The
/// engine never asks it for that input-shaped tensor: it hands the node the
/// input's accumulator, zero-filled once in the input's shape, and the node
/// adds grad_output into its window. `copy` is set when this is the
/// accumulator's only contribution; the node then copies instead of adding,
/// so a -0 keeps its sign as it does in a lone materialized gradient.
struct WindowGradFn : GradFn {
  virtual void AddWindow(const Tensor& grad_output, bool copy,
                         Tensor* acc) const = 0;

  std::vector<Tensor> Backward(const Tensor&) final {
    FSDP_CHECK_MSG(false, name() << " accumulates through the engine");
    return {};
  }
};

/// Monotonic per-thread node sequence (each rank thread builds its own
/// graphs).
uint64_t NextNodeSeq();

/// True if `impl` takes part in gradient flow (leaf requiring grad, or an
/// intermediate produced by a differentiable op).
inline bool Participates(const std::shared_ptr<TensorImpl>& impl) {
  return impl && (impl->requires_grad || impl->grad_fn != nullptr);
}

}  // namespace fsdp
