#include "autograd/engine.h"

#include <cstdint>
#include <deque>
#include <queue>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/status.h"

namespace fsdp {

uint64_t NextNodeSeq() {
  thread_local uint64_t counter = 0;
  return ++counter;
}

}  // namespace fsdp

namespace fsdp::autograd {

namespace {

thread_local bool g_in_backward = false;
thread_local int g_backward_depth = 0;
// queue_callback semantics: callbacks always attach to the OUTERMOST
// backward (PyTorch runs them when the top-level GraphTask completes), so a
// re-entrant pass (activation-checkpoint recompute) does not fire
// end-of-backward logic early.
thread_local std::vector<std::function<void()>>* g_final_callbacks = nullptr;

/// A finalized tensor waiting for execution (hook application + either its
/// producer node's backward or leaf accumulation).
struct Task {
  uint64_t priority;  // node seq; leaves use UINT64_MAX (AccumulateGrad runs
                      // at maximum priority, as in PyTorch)
  uint64_t order;     // FIFO tiebreak among equal priorities
  std::shared_ptr<TensorImpl> impl;
  Tensor grad;
};

struct TaskLess {
  bool operator()(const Task& a, const Task& b) const {
    if (a.priority != b.priority) return a.priority < b.priority;
    return a.order > b.order;  // earlier-pushed first among ties
  }
};

struct ExecState {
  // Per-tensor remaining gradient contributions before finalization.
  std::unordered_map<TensorImpl*, int> remaining;
  // Partially-accumulated gradients.
  std::unordered_map<TensorImpl*, Tensor> partial;
  // Nodes reachable in this graph (whitelist for execution).
  std::unordered_set<GradFn*> reachable_nodes;
  // Keeps impls/nodes alive for the duration of the pass.
  std::unordered_map<TensorImpl*, std::shared_ptr<TensorImpl>> pin;
  std::unordered_map<GradFn*, std::shared_ptr<GradFn>> node_pin;

  std::priority_queue<Task, std::vector<Task>, TaskLess> queue;
  uint64_t next_order = 0;
};

/// Discovery pass: walk the graph from the root node, recording reachable
/// nodes and counting, for every participating tensor, how many reachable
/// consumer slots will contribute a gradient to it.
void DiscoverGraph(const std::shared_ptr<TensorImpl>& root, ExecState* st) {
  std::deque<std::shared_ptr<GradFn>> frontier;
  if (root->grad_fn && st->reachable_nodes.insert(root->grad_fn.get()).second) {
    st->node_pin[root->grad_fn.get()] = root->grad_fn;
    frontier.push_back(root->grad_fn);
  }
  while (!frontier.empty()) {
    std::shared_ptr<GradFn> node = frontier.front();
    frontier.pop_front();
    for (const auto& input : node->inputs) {
      if (!Participates(input)) continue;
      st->remaining[input.get()] += 1;
      st->pin[input.get()] = input;
      if (input->grad_fn &&
          st->reachable_nodes.insert(input->grad_fn.get()).second) {
        st->node_pin[input->grad_fn.get()] = input->grad_fn;
        frontier.push_back(input->grad_fn);
      }
    }
  }
}

/// `t` itself when the engine may keep it (Tensor::UniquelyOwned); a copy
/// when anything else can see it — a node's saved tensor, a hook's capture,
/// or the other half of AddBackward's {g, g}.
Tensor AdoptOrClone(const Tensor& t) {
  return t.UniquelyOwned() ? t : t.Clone();
}

/// A tensor's gradient is complete: schedule it. Its hooks run when the task
/// is popped (PyTorch runs tensor hooks as pre-hooks of the consuming node's
/// execution), so hook side effects are ordered by engine priority, not by
/// contribution arrival.
void ScheduleFinalized(const std::shared_ptr<TensorImpl>& impl, Tensor grad,
                       ExecState* st) {
  const uint64_t priority =
      impl->grad_fn ? impl->grad_fn->seq : UINT64_MAX;
  st->queue.push(Task{priority, st->next_order++, impl, std::move(grad)});
}

/// Routes one gradient contribution to `impl`: `fold(&acc, pending)` adds
/// it into the partial gradient, which is undefined before the first
/// contribution; `pending` counts the contributions still expected, this one
/// included. Schedules the gradient when the last expected one arrives.
template <typename Fold>
void Contribute(const std::shared_ptr<TensorImpl>& impl, ExecState* st,
                Fold&& fold) {
  auto it = st->remaining.find(impl.get());
  FSDP_CHECK_MSG(it != st->remaining.end() && it->second > 0,
                 "gradient contribution to a tensor with no pending "
                 "dependencies");
  Tensor& acc = st->partial[impl.get()];
  fold(&acc, it->second);
  if (--it->second == 0) {
    Tensor grad = std::move(acc);
    st->partial.erase(impl.get());
    ScheduleFinalized(impl, std::move(grad), st);
  }
}

void RunTask(Task task, ExecState* st) {
  Tensor grad = std::move(task.grad);
  for (const auto& hook : task.impl->hooks) {
    Tensor replaced = hook(grad);
    if (replaced.defined()) grad = replaced;
  }
  if (task.impl->grad_fn) {
    GradFn* node = task.impl->grad_fn.get();
    FSDP_CHECK_MSG(st->reachable_nodes.count(node),
                   "finalized tensor whose producer is not in this graph");
    if (const auto* window = dynamic_cast<const WindowGradFn*>(node)) {
      const auto& input = node->inputs[0];
      if (!Participates(input)) return;
      Contribute(input, st, [&](Tensor* acc, int pending) {
        const bool only = !acc->defined() && pending == 1;
        if (!acc->defined()) *acc = Tensor::Zeros(input->shape);
        window->AddWindow(grad, only, acc);
      });
      return;
    }
    std::vector<Tensor> grads = node->Backward(grad);
    FSDP_CHECK_MSG(grads.size() == node->inputs.size(),
                   node->name() << " returned " << grads.size()
                                << " grads for " << node->inputs.size()
                                << " inputs");
    for (size_t i = 0; i < grads.size(); ++i) {
      const auto& input = node->inputs[i];
      if (!Participates(input)) continue;
      FSDP_CHECK_MSG(grads[i].defined(),
                     node->name() << " produced no grad for participating "
                                  << "input " << i);
      Contribute(input, st, [&](Tensor* acc, int) {
        if (acc->defined()) {
          acc->Add_(grads[i]);
        } else {
          *acc = AdoptOrClone(grads[i]);
        }
      });
    }
    return;
  }
  if (task.impl->requires_grad) {
    // AccumulateGrad: leaves add into .grad across backward passes, then the
    // post-accumulate hooks (FSDP's post-backward anchor) fire.
    if (!task.impl->grad) {
      Tensor g = AdoptOrClone(grad);
      if (g.shape() != task.impl->shape) g = g.ViewAs(task.impl->shape);
      task.impl->grad = g.impl();
    } else {
      Tensor(task.impl->grad).Add_(grad);
    }
    for (const auto& hook : task.impl->post_accumulate_hooks) hook();
  }
}

}  // namespace

bool InBackward() { return g_in_backward; }

void QueueCallback(std::function<void()> fn) {
  FSDP_CHECK_MSG(g_in_backward && g_final_callbacks,
                 "QueueCallback called outside of a backward pass");
  g_final_callbacks->push_back(std::move(fn));
}

int BackwardDepth() { return g_backward_depth; }

void RunBackward(const Tensor& root, const Tensor& grad_output) {
  FSDP_CHECK_MSG(root.defined(), "backward on undefined tensor");
  FSDP_CHECK_MSG(Participates(root.impl()),
                 "backward on a tensor that does not require grad");

  Tensor seed = grad_output;
  if (!seed.defined()) {
    FSDP_CHECK_MSG(root.numel() == 1,
                   "grad_output required for non-scalar backward root");
    seed = Tensor::Ones(root.shape());
  }
  FSDP_CHECK_MSG(seed.numel() == root.numel(), "grad_output shape mismatch");

  ExecState st;
  DiscoverGraph(root.impl(), &st);

  // Re-entrancy (activation checkpointing runs a nested backward inside a
  // node's Backward): stack the per-backward thread state, exactly like
  // PyTorch's re-entrant engine. The nested pass has its own final-callback
  // list, which runs when that pass (not the outer one) finishes.
  const bool outer_in_backward = g_in_backward;
  std::vector<std::function<void()>>* outer_callbacks = g_final_callbacks;

  std::vector<std::function<void()>> final_callbacks;
  g_in_backward = true;
  ++g_backward_depth;
  // Nested passes keep queueing into the outermost list.
  if (g_backward_depth == 1) g_final_callbacks = &final_callbacks;

  {
    // Gradients must not themselves build graph. Scoped so that the inner
    // guard does not leak into the caller during re-entrant use (the
    // checkpoint recompute re-enables grad itself).
    NoGradGuard no_grad;

    ScheduleFinalized(root.impl(), seed, &st);

    while (!st.queue.empty()) {
      Task task = st.queue.top();
      st.queue.pop();
      RunTask(std::move(task), &st);
    }
  }

  // Run end-of-backward callbacks (FSDP waits on pending collectives here)
  // — only when the OUTERMOST backward completes. Callbacks may queue
  // further callbacks.
  if (g_backward_depth == 1) {
    for (size_t i = 0; i < final_callbacks.size(); ++i) {
      auto fn = std::move(final_callbacks[i]);
      fn();
    }
    g_final_callbacks = nullptr;
  } else {
    g_final_callbacks = outer_callbacks;
  }
  --g_backward_depth;
  g_in_backward = outer_in_backward;
}

}  // namespace fsdp::autograd
