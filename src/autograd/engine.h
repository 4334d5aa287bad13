// The reverse-mode execution engine.
//
// Semantics mirrored from PyTorch (the FSDP paper depends on each of these):
//  * Dependency counting: a tensor's gradient is "finalized" only after every
//    reachable consumer has contributed — so a FlatParameter view used by
//    several ops reduces exactly once.
//  * Tensor hooks fire when a tensor's grad is finalized, before further
//    propagation (FSDP's pre-backward unshard anchors here).
//  * Leaf accumulation: finalized leaf grads add into .grad, then the leaf's
//    post-accumulate hooks fire (FSDP launches ReduceScatter here).
//  * One accumulator per tensor: window nodes (WindowGradFn) add into it in
//    place, and a uniquely owned gradient (Tensor::UniquelyOwned) is kept
//    rather than cloned — as a first contribution or a leaf's first .grad.
//  * QueueCallback: callbacks run once, after the whole backward finishes
//    (FSDP waits for pending collectives here; paper Sec 4.3).
//  * Unused parameters simply never finalize — no error, matching eager
//    PyTorch — and multiple forwards before a backward work because each
//    forward builds an independent graph.
#pragma once

#include <functional>

#include "autograd/node.h"
#include "tensor/tensor.h"

namespace fsdp::autograd {

/// Runs backward from `root` (typically a scalar loss). If `grad_output` is
/// undefined, uses ones_like(root). Leaf gradients accumulate into .grad.
void RunBackward(const Tensor& root, const Tensor& grad_output = Tensor());

/// Registers a callback to run at the end of the current backward pass
/// (PyTorch's Variable._execution_engine.queue_callback). Must be called from
/// inside a backward (e.g. from a hook).
void QueueCallback(std::function<void()> fn);

/// True while a backward pass is executing on this thread.
bool InBackward();

/// Current backward nesting depth (0 outside; >1 inside a re-entrant pass
/// such as an activation-checkpoint recompute).
int BackwardDepth();

}  // namespace fsdp::autograd
