#include "tensor/autograd.h"

#include <array>
#include <cstring>

#include "tensor/simd.h"
#include "util/logging.h"

namespace causalformer {

static_assert(kMaxNodeInputs == 4, "WalkStep::input_steps lists four -1s");
static_assert(kMaxNodeInputs <= 32, "InputMask has one bit per input");

Tensor MakeOp(const char* name, const Tensor* inputs, int num_inputs,
              Tensor out, VjpFn vjp, const void* attrs, size_t attr_bytes,
              Tensor aux) {
  CF_CHECK(out.defined());
  CF_CHECK_LE(num_inputs, kMaxNodeInputs) << "op " << name;
  CF_CHECK_LE(attr_bytes, kNodeAttrBytes) << "op " << name;
  bool needs_grad = false;
  for (int i = 0; i < num_inputs; ++i) {
    if (inputs[i].defined() && inputs[i].requires_grad()) {
      needs_grad = true;
      break;
    }
  }
  if (needs_grad) {
    internal::TensorImpl* impl = out.impl();
    Node& node = impl->node;
    node.op = name;
    node.vjp = vjp;
    node.num_inputs = num_inputs;
    for (int i = 0; i < num_inputs; ++i) node.inputs[i] = inputs[i];
    if (attr_bytes > 0) std::memcpy(node.attrs, attrs, attr_bytes);
    node.aux = std::move(aux);
    impl->requires_grad = true;
  }
  return out;
}

namespace {

// The tape under a root, numbered by a depth-first search that visits each
// node's inputs in call order: tensors get visit ids in first-visit order,
// and `post` lists them in post-order (inputs before their consumers). The
// buffers are reused across walks on the thread, so planning takes nothing
// from the heap once warm.
struct TapeIndex {
  std::vector<internal::TensorImpl*> tensor;          // by visit id
  std::vector<std::array<int, kMaxNodeInputs>> inputs;  // input visit ids
  std::vector<int> post;                              // visit ids, post-order

  // Open-addressing map from tensor to visit id; `stamp` marks the slots
  // this search filled, so a new search clears nothing.
  std::vector<const internal::TensorImpl*> slot_key;
  std::vector<int> slot_id;
  std::vector<uint32_t> slot_stamp;
  uint32_t stamp = 0;

  struct Frame {
    int id;
    int next_input;
  };
  std::vector<Frame> stack;

  // PlanWalk's per-visit-id flags.
  std::vector<InputMask> needs;
  std::vector<char> keep;  // 1: kept, 2: planned but dropped once consumed
  std::vector<char> reaches;
  std::vector<int> step_of;

  size_t Slot(const internal::TensorImpl* key) const {
    const auto bits = reinterpret_cast<uintptr_t>(key);
    return static_cast<size_t>((bits >> 4) * 0x9E3779B97F4A7C15ull) &
           (slot_key.size() - 1);
  }

  // The visit id of `key`, or -1.
  int Find(const internal::TensorImpl* key) const {
    for (size_t s = Slot(key);; s = (s + 1) & (slot_key.size() - 1)) {
      if (slot_stamp[s] != stamp) return -1;
      if (slot_key[s] == key) return slot_id[s];
    }
  }

  void Insert(const internal::TensorImpl* key, int id) {
    size_t s = Slot(key);
    while (slot_stamp[s] == stamp) s = (s + 1) & (slot_key.size() - 1);
    slot_key[s] = key;
    slot_id[s] = id;
    slot_stamp[s] = stamp;
  }

  // Doubles the table and re-inserts this search's entries.
  void Grow() {
    const size_t capacity = slot_key.size() < 64 ? 64 : 2 * slot_key.size();
    slot_key.assign(capacity, nullptr);
    slot_id.assign(capacity, -1);
    slot_stamp.assign(capacity, 0);
    stamp = 1;
    for (size_t id = 0; id < tensor.size(); ++id) {
      Insert(tensor[id], static_cast<int>(id));
    }
  }

  // The visit id of `t`, giving it the next one when first seen.
  std::pair<int, bool> Visit(internal::TensorImpl* t) {
    const int found = Find(t);
    if (found >= 0) return {found, false};
    const int id = static_cast<int>(tensor.size());
    tensor.push_back(t);
    inputs.push_back({-1, -1, -1, -1});
    if (2 * tensor.size() > slot_key.size()) {
      Grow();  // re-inserts `t` with the rest
    } else {
      Insert(t, id);
    }
    return {id, true};
  }

  void Build(const Tensor& root) {
    tensor.clear();
    inputs.clear();
    post.clear();
    stack.clear();
    if (slot_key.empty()) Grow();
    if (++stamp == 0) {  // wrapped: no slot may carry the new stamp
      std::fill(slot_stamp.begin(), slot_stamp.end(), 0);
      stamp = 1;
    }
    // Iterative DFS (graphs can be deep, e.g. LSTM over long sequences).
    stack.push_back({Visit(root.impl()).first, 0});
    while (!stack.empty()) {
      const int id = stack.back().id;
      const Node& node = tensor[static_cast<size_t>(id)]->node;
      const int next = stack.back().next_input;
      if (node.vjp == nullptr || next >= node.num_inputs) {
        post.push_back(id);
        stack.pop_back();
        continue;
      }
      ++stack.back().next_input;
      const Tensor& input = node.inputs[next];
      if (!input.defined()) continue;
      const auto [input_id, first] = Visit(input.impl());
      inputs[static_cast<size_t>(id)][static_cast<size_t>(next)] = input_id;
      if (first) stack.push_back({input_id, 0});
    }
  }
};

TapeIndex& ThreadTapeIndex() {
  thread_local TapeIndex index;
  return index;
}

bool Carries(const internal::TensorImpl* t) {
  return t->requires_grad || t->node.vjp != nullptr;
}

// The walk over `plan`: the value of every step, undefined where nothing
// reached or where a pruned walk dropped it.
std::vector<Tensor> WalkSteps(const WalkPlan& plan, const Tensor& seed,
                              WalkRule rule) {
  CF_CHECK(plan.root.defined());
  CF_CHECK(seed.defined());
  CF_CHECK(seed.shape() == plan.root.shape())
      << "seed shape " << seed.shape().ToString() << " vs root "
      << plan.root.shape().ToString();
  std::vector<Tensor> values(plan.steps.size());
  // A non-empty plan always starts at its root (see PlanWalk).
  if (plan.steps.empty()) return values;
  CF_CHECK(plan.steps[0].tensor == plan.root);
  values[0] = seed.Clone();

  Tensor contributions[kMaxNodeInputs];
  for (size_t s = 0; s < plan.steps.size(); ++s) {
    const WalkStep& step = plan.steps[s];
    if (step.needs == 0 || !values[s].defined()) continue;
    const Tensor cot = step.keep ? values[s] : std::move(values[s]);
    const Node& fn = *step.tensor.grad_fn();
    rule(step, cot, contributions);
    for (int i = 0; i < fn.num_inputs; ++i) {
      Tensor g = std::move(contributions[i]);
      if (!HasInput(step.needs, i) || !g.defined()) continue;
      const Tensor& input = fn.inputs[i];
      CF_CHECK(g.shape() == input.shape())
          << "shape mismatch in op " << fn.op << ": input "
          << input.shape().ToString() << " got " << g.shape().ToString();
      Tensor& acc = values[static_cast<size_t>(step.input_steps[i])];
      if (!acc.defined()) {
        // Adopt a contribution no other handle holds. One that aliases a
        // live tensor (a VJP may return its own cotangent, e.g. Add) is
        // copied, since later contributions accumulate into it in place.
        acc = g.unique() ? std::move(g) : g.Clone();
      } else {
        simd::Active().accumulate(acc.data(), g.data(), acc.numel());
      }
    }
  }
  return values;
}

// The gradient walk's rule: each node's own VJP.
const auto VjpRule = [](const WalkStep& step, const Tensor& cot,
                        Tensor* grads) {
  const Node& fn = *step.tensor.grad_fn();
  fn.vjp(fn, step.tensor, cot, step.needs, grads);
};

}  // namespace

std::vector<Tensor> ReverseTopoOrder(const Tensor& root) {
  CF_CHECK(root.defined());
  TapeIndex& index = ThreadTapeIndex();
  index.Build(root);
  std::vector<Tensor> order;
  order.reserve(index.post.size());
  for (auto it = index.post.rbegin(); it != index.post.rend(); ++it) {
    order.push_back(ShareImpl(index.tensor[static_cast<size_t>(*it)]));
  }
  return order;
}

WalkPlan PlanWalk(const Tensor& root, const std::vector<Tensor>& wanted) {
  CF_CHECK(root.defined());
  WalkPlan plan;
  plan.root = root;
  TapeIndex& index = ThreadTapeIndex();
  index.Build(root);
  const size_t count = index.tensor.size();

  // Per visit id: the inputs the walk needs, whether the result keeps the
  // cotangent, and the plan step (-1 for a tensor left out).
  std::vector<InputMask>& needs = index.needs;
  std::vector<char>& keep = index.keep;
  std::vector<int>& step_of = index.step_of;
  needs.assign(count, 0);
  keep.assign(count, 0);
  step_of.assign(count, -1);

  if (wanted.empty()) {
    // Full walk: every tensor that can carry a gradient gets a cotangent.
    for (size_t id = 0; id < count; ++id) {
      const internal::TensorImpl* t = index.tensor[id];
      if (id != 0 && !Carries(t)) continue;
      keep[id] = 1;
      if (t->node.vjp == nullptr) continue;
      for (int i = 0; i < t->node.num_inputs; ++i) {
        const int in = index.inputs[id][static_cast<size_t>(i)];
        if (in >= 0 && Carries(index.tensor[static_cast<size_t>(in)])) {
          needs[id] |= InputMask{1} << i;
        }
      }
    }
  } else {
    // Pruned walk, planned inputs-first: a node is live when one of its
    // inputs is wanted or itself live. `reaches` holds both kinds.
    std::vector<char>& reaches = index.reaches;
    reaches.assign(count, 0);
    for (const Tensor& w : wanted) {
      const int id = index.Find(w.impl());
      if (id >= 0) {
        keep[static_cast<size_t>(id)] = 1;
        reaches[static_cast<size_t>(id)] = 1;
      }
    }
    for (const int id : index.post) {
      const internal::TensorImpl* t = index.tensor[static_cast<size_t>(id)];
      if (t->node.vjp == nullptr) continue;
      InputMask mask = 0;
      for (int i = 0; i < t->node.num_inputs; ++i) {
        const int in =
            index.inputs[static_cast<size_t>(id)][static_cast<size_t>(i)];
        if (in >= 0 && reaches[static_cast<size_t>(in)]) {
          mask |= InputMask{1} << i;
        }
      }
      if (mask != 0) {
        needs[static_cast<size_t>(id)] = mask;
        reaches[static_cast<size_t>(id)] = 1;
      }
    }
    // Only the wanted tensors' values come back.
    for (size_t id = 0; id < count; ++id) {
      if (needs[id] != 0 && !keep[id]) keep[id] = 2;  // planned, not kept
    }
  }

  // Steps in reverse post-order (root first), then each needed input's step.
  size_t planned = 0;
  for (size_t id = 0; id < count; ++id) planned += keep[id] != 0;
  plan.steps.reserve(planned);
  for (auto it = index.post.rbegin(); it != index.post.rend(); ++it) {
    const size_t id = static_cast<size_t>(*it);
    if (keep[id] == 0) continue;
    step_of[id] = static_cast<int>(plan.steps.size());
    WalkStep step;
    step.tensor = ShareImpl(index.tensor[id]);
    step.needs = needs[id];
    step.keep = keep[id] == 1;
    plan.steps.push_back(std::move(step));
  }
  for (auto it = index.post.rbegin(); it != index.post.rend(); ++it) {
    const size_t id = static_cast<size_t>(*it);
    if (step_of[id] < 0) continue;
    WalkStep& step = plan.steps[static_cast<size_t>(step_of[id])];
    for (int i = 0; i < kMaxNodeInputs; ++i) {
      if (!HasInput(step.needs, i)) continue;
      const int in = index.inputs[id][static_cast<size_t>(i)];
      step.input_steps[i] = step_of[static_cast<size_t>(in)];
    }
  }
  return plan;
}

Tensor TapeValues::Of(const Tensor& t) const {
  for (const auto& [key, value] : entries_) {
    if (key == t.impl()) return value;
  }
  return Tensor();
}

TapeValues CollectKept(const WalkPlan& plan, std::vector<Tensor> values) {
  TapeValues kept;
  size_t count = 0;
  for (size_t s = 0; s < values.size(); ++s) {
    count += plan.steps[s].keep && values[s].defined();
  }
  kept.entries_.reserve(count);
  for (size_t s = 0; s < values.size(); ++s) {
    if (!plan.steps[s].keep || !values[s].defined()) continue;
    kept.entries_.emplace_back(plan.steps[s].tensor.impl(),
                               std::move(values[s]));
  }
  return kept;
}

TapeValues WalkTape(const WalkPlan& plan, const Tensor& seed, WalkRule rule) {
  return CollectKept(plan, WalkSteps(plan, seed, rule));
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
  return WalkTape(plan, seed, VjpRule);
}

Tensor GradientOf(const GradientMap& map, const Tensor& t) { return map.Of(t); }

void RunBackward(const Tensor& root, const Tensor& seed) {
  if (!root.requires_grad()) return;
  // The full plan lists every tensor the walk reaches, so one tape traversal
  // serves both the gradient walk and the accumulation pass below.
  const WalkPlan plan = PlanWalk(root);
  const std::vector<Tensor> grads = WalkSteps(plan, seed, VjpRule);
  for (size_t s = 0; s < plan.steps.size(); ++s) {
    const WalkStep& step = plan.steps[s];
    if (!step.tensor.requires_grad() || !grads[s].defined()) continue;
    const_cast<Tensor&>(step.tensor).AccumulateGrad(grads[s]);
  }
}

}  // namespace causalformer
