#include "tensor/autograd.h"

#include <iterator>
#include <unordered_map>
#include <unordered_set>

#include "tensor/simd.h"
#include "util/logging.h"

namespace causalformer {

Tensor MakeOp(const std::string& name, std::vector<Tensor> inputs, Tensor out,
              VjpFn vjp) {
  CF_CHECK(out.defined());
  bool needs_grad = false;
  for (const auto& in : inputs) {
    if (in.defined() && in.requires_grad()) {
      needs_grad = true;
      break;
    }
  }
  if (needs_grad) {
    auto node = std::make_shared<Node>();
    node->op = name;
    node->inputs = std::move(inputs);
    node->vjp = std::move(vjp);
    out.set_requires_grad(true);
    out.set_grad_fn(std::move(node));
  }
  return out;
}

std::vector<Tensor> ReverseTopoOrder(const Tensor& root) {
  CF_CHECK(root.defined());
  std::vector<Tensor> post_order;
  std::unordered_set<internal::TensorImpl*> visited;

  // Iterative DFS (graphs can be deep, e.g. LSTM over long sequences).
  struct Frame {
    Tensor tensor;
    size_t next_input = 0;
  };
  std::vector<Frame> stack;
  stack.push_back({root});
  visited.insert(root.impl());
  while (!stack.empty()) {
    Frame& frame = stack.back();
    const auto& fn = frame.tensor.grad_fn();
    if (fn == nullptr || frame.next_input >= fn->inputs.size()) {
      post_order.push_back(frame.tensor);
      stack.pop_back();
      continue;
    }
    const Tensor& input = fn->inputs[frame.next_input++];
    if (input.defined() && visited.insert(input.impl()).second) {
      stack.push_back({input});
    }
  }
  // Post-order lists inputs before consumers; reverse so consumers come first.
  std::vector<Tensor> order(post_order.rbegin(), post_order.rend());
  return order;
}

WalkPlan PlanWalk(const Tensor& root, const std::vector<Tensor>& wanted) {
  WalkPlan plan;
  plan.root = root;
  const std::vector<Tensor> order = ReverseTopoOrder(root);

  if (wanted.empty()) {
    // Full walk: every tensor that can carry a gradient gets a cotangent.
    auto carries = [](const Tensor& t) {
      return t.defined() && (t.requires_grad() || t.grad_fn() != nullptr);
    };
    for (const Tensor& t : order) {
      if (t.impl() != root.impl() && !carries(t)) continue;
      WalkStep step{t, {}, /*keep=*/true};
      if (const auto& fn = t.grad_fn()) {
        for (const Tensor& in : fn->inputs) step.needs.push_back(carries(in));
      }
      plan.steps.push_back(std::move(step));
    }
    return plan;
  }

  // Pruned walk, planned inputs-first: a node is live when one of its inputs
  // is wanted or itself live. `reaches` holds both kinds.
  std::unordered_set<internal::TensorImpl*> wanted_set;
  for (const Tensor& w : wanted) wanted_set.insert(w.impl());
  std::unordered_set<internal::TensorImpl*> reaches = wanted_set;
  std::vector<WalkStep> inputs_first;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const Tensor& t = *it;
    WalkStep step{t, {}, /*keep=*/wanted_set.count(t.impl()) > 0};
    if (const auto& fn = t.grad_fn()) {
      std::vector<bool> needs(fn->inputs.size());
      bool live = false;
      for (size_t i = 0; i < needs.size(); ++i) {
        const Tensor& in = fn->inputs[i];
        needs[i] = in.defined() && reaches.count(in.impl()) > 0;
        live = live || needs[i];
      }
      if (live) {
        step.needs = std::move(needs);
        reaches.insert(t.impl());
      }
    }
    if (step.keep || !step.needs.empty()) {
      inputs_first.push_back(std::move(step));
    }
  }
  plan.steps.assign(std::make_move_iterator(inputs_first.rbegin()),
                    std::make_move_iterator(inputs_first.rend()));
  return plan;
}

GradientMap WalkTape(const WalkPlan& plan, const Tensor& seed,
                     const WalkRule& rule) {
  CF_CHECK(plan.root.defined());
  CF_CHECK(seed.defined());
  CF_CHECK(seed.shape() == plan.root.shape())
      << "seed shape " << seed.shape().ToString() << " vs root "
      << plan.root.shape().ToString();
  GradientMap cotangents;
  // A non-empty plan always starts at its root (see PlanWalk).
  if (plan.steps.empty()) return cotangents;
  cotangents[plan.root.impl()] = seed.Clone();

  for (const WalkStep& step : plan.steps) {
    if (step.needs.empty()) continue;
    const auto it = cotangents.find(step.tensor.impl());
    if (it == cotangents.end()) continue;  // nothing flows here
    const Tensor cot = it->second;
    if (!step.keep) cotangents.erase(it);
    const Node& fn = *step.tensor.grad_fn();
    const std::vector<Tensor> contributions = rule(step, cot);
    CF_CHECK_EQ(contributions.size(), fn.inputs.size())
        << "arity mismatch in op " << fn.op;
    for (size_t i = 0; i < fn.inputs.size(); ++i) {
      const Tensor& input = fn.inputs[i];
      const Tensor& g = contributions[i];
      if (!step.needs[i] || !g.defined()) continue;
      CF_CHECK(g.shape() == input.shape())
          << "shape mismatch in op " << fn.op << ": input "
          << input.shape().ToString() << " got " << g.shape().ToString();
      // Clone on first insert: a vjp may return an alias of its own cotangent
      // (e.g. Add), and accumulating in place would corrupt shared buffers.
      auto [slot, inserted] = cotangents.try_emplace(input.impl(), Tensor());
      if (inserted) {
        slot->second = g.Clone();
      } else {
        Tensor& acc = slot->second;
        simd::Active().accumulate(acc.data(), g.data(), acc.numel());
      }
    }
  }
  return cotangents;
}

GradientMap ComputeGradients(const Tensor& root, const Tensor& seed) {
  return ComputeGradients(PlanWalk(root), seed);
}

GradientMap ComputeGradients(const WalkPlan& plan, const Tensor& seed) {
  CF_CHECK(plan.root.defined());
  CF_CHECK(seed.defined());
  CF_CHECK(seed.shape() == plan.root.shape())
      << "seed shape " << seed.shape().ToString() << " vs root "
      << plan.root.shape().ToString();
  // Early out before paying for the tape walk; the preconditions above still
  // fire so caller bugs (undefined root, wrong seed shape) stay diagnosable.
  if (!plan.root.requires_grad()) return GradientMap();
  return WalkTape(plan, seed, [](const WalkStep& step, const Tensor& cot) {
    return step.tensor.grad_fn()->vjp(step.tensor, cot, step.needs);
  });
}

Tensor GradientOf(const GradientMap& map, const Tensor& t) {
  const auto it = map.find(t.impl());
  if (it == map.end()) return Tensor();
  return it->second;
}

void RunBackward(const Tensor& root, const Tensor& seed) {
  if (!root.requires_grad()) return;
  // The full plan lists every tensor the walk reaches, so one tape traversal
  // serves both the gradient computation and the accumulation walk below —
  // this runs per training step, and the DFS with its hash-set bookkeeping
  // is not free on deep tapes.
  const WalkPlan plan = PlanWalk(root);
  const GradientMap cotangents = ComputeGradients(plan, seed);
  for (const WalkStep& step : plan.steps) {
    if (!step.tensor.requires_grad()) continue;
    const auto it = cotangents.find(step.tensor.impl());
    if (it == cotangents.end()) continue;
    const_cast<Tensor&>(step.tensor).AccumulateGrad(it->second);
  }
}

}  // namespace causalformer
