#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "conn.h"
#include "data/fmri_sim.h"
#include "data/synthetic.h"
#include "data/windowing.h"
#include "nn/serialize.h"
#include "serve/wire.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace cfbench {

namespace cf = causalformer;
namespace wire = causalformer::serve::wire;

namespace {

cf::core::ModelOptions Geometry(int64_t n, int64_t t, int64_t d, int64_t ffn) {
  cf::core::ModelOptions m;
  m.num_series = n;
  m.window = t;
  m.d_model = d;
  m.d_qk = d;
  m.heads = 2;
  m.d_ffn = ffn;
  return m;
}

// cold_serving and hot_repeat share the Diamond N=4 serving geometry; the
// stream serves fMRI subjects at the paper-like geometry.
const Workload kWorkloads[] = {
    {"cold_serving", Kind::kColdServing, Geometry(4, 8, 16, 16), 4, 400, 2, 30},
    {"hot_repeat", Kind::kHotRepeat, Geometry(4, 8, 16, 16), 4, 400, 2, 30},
    {"stream_fmri15", Kind::kStreamFmri15, Geometry(15, 16, 32, 32), 1, 200, 4,
     6},
};

// Samples of the Diamond series: enough distinct offsets that cold requests
// reuse an offset only after every other one, and then with a shifted value
// generation.
constexpr int64_t kDiamondLength = 2048;

double Since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::string WorkloadNames() {
  std::string out;
  for (const Workload& w : kWorkloads) {
    if (!out.empty()) out += "|";
    out += w.name;
  }
  return out;
}

std::vector<std::string> ServerArgs(const Workload& w,
                                    const std::string& checkpoint) {
  const auto& m = w.model;
  return {"serve",      "--port",   "0",
          "--checkpoint", checkpoint, "--series",
          std::to_string(m.num_series), "--window", std::to_string(m.window),
          "--d_model",  std::to_string(m.d_model), "--d_qk",
          std::to_string(m.d_qk), "--heads", std::to_string(m.heads),
          "--d_ffn",    std::to_string(m.d_ffn)};
}

cf::Tensor RequestWindows(const Workload& w, const cf::Tensor& series,
                          uint64_t index) {
  const int64_t t = w.model.window;
  const int64_t b = w.windows_per_op;
  const uint64_t offsets =
      static_cast<uint64_t>(series.dim(1) - (t + b - 1) + 1);
  uint64_t offset = index % offsets;
  uint64_t generation = index / offsets;
  if (w.kind == Kind::kHotRepeat) {
    offset = (index % kHotBatches) * 7 % offsets;
    generation = 0;
  }
  const int64_t start = static_cast<int64_t>(offset);
  cf::Tensor windows = cf::data::MakeWindows(
      cf::Slice(series, 1, start, start + t + b - 1).Detach(), t, 1);
  if (generation > 0) {
    windows = cf::AddScalar(windows, 1e-3f * static_cast<float>(generation));
  }
  return windows.Detach();
}

std::vector<uint8_t> DetectFrame(const cf::Tensor& windows) {
  wire::DetectMsg msg;
  msg.model = "default";
  msg.windows = windows;
  return wire::EncodeFrame(wire::MessageType::kDetect, wire::EncodeDetect(msg));
}

cf::Tensor StreamWindow(const cf::Tensor& series, int64_t start,
                        int64_t window) {
  return cf::Reshape(cf::Slice(series, 1, start, start + window),
                     cf::Shape{1, series.dim(0), window})
      .Detach();
}

cf::StatusOr<std::unique_ptr<cf::core::CausalityTransformer>> LoadModel(
    const Workload& w, const std::string& checkpoint) {
  cf::Rng rng(1);
  auto model = std::make_unique<cf::core::CausalityTransformer>(w.model, &rng);
  CF_RETURN_IF_ERROR(cf::nn::LoadParameters(model.get(), checkpoint));
  return model;
}

cf::Status RunSetup(const Workload& w, uint64_t seed, double seconds,
                    const std::string& serve_cli, const std::string& workdir,
                    ServerProcess* server, SetupResult* out) {
  const auto t0 = std::chrono::steady_clock::now();
  cf::Rng rng(seed);
  out->series.clear();
  if (w.kind == Kind::kStreamFmri15) {
    const int64_t appends =
        static_cast<int64_t>(seconds / kStreamPeriodS) + 16;
    cf::data::FmriOptions fopt;
    fopt.num_nodes = static_cast<int>(w.model.num_series);
    fopt.length = std::max(w.train_length, appends * kStreamStride);
    for (int subject = 0; subject < 2; ++subject) {
      out->series.push_back(cf::data::GenerateFmriSubject(fopt, &rng).series);
    }
  } else {
    cf::data::SyntheticOptions sopt;
    sopt.length = kDiamondLength;
    out->series.push_back(
        cf::data::GenerateSynthetic(cf::data::SyntheticStructure::kDiamond,
                                    sopt, &rng)
            .series);
  }

  cf::core::CausalityTransformer model(w.model, &rng);
  cf::core::TrainOptions topt;
  topt.max_epochs = w.train_epochs;
  topt.patience = w.train_epochs;  // a fixed amount of training work per seed
  topt.stride = w.train_stride;
  const auto train_t0 = std::chrono::steady_clock::now();
  out->train = cf::core::TrainCausalityTransformer(
      &model, cf::Slice(out->series[0], 1, 0, w.train_length).Detach(), topt,
      &rng);
  out->train_s = Since(train_t0);
  out->checkpoint = workdir + "/model.cfpm";
  CF_RETURN_IF_ERROR(cf::nn::SaveParameters(model, out->checkpoint));

  CF_RETURN_IF_ERROR(
      server->Start(serve_cli, ServerArgs(w, out->checkpoint), workdir, 60));
  // First OK response: a Detect on negated windows, which no workload
  // request ever sends, so the warm-up cannot pre-fill the cache.
  const cf::Tensor probe =
      w.kind == Kind::kStreamFmri15
          ? StreamWindow(out->series[0], 0, w.model.window)
          : RequestWindows(w, out->series[0], 0);
  Conn conn;
  CF_RETURN_IF_ERROR(conn.Connect(server->port()));
  CF_RETURN_IF_ERROR(conn.SendEncoded(DetectFrame(cf::Neg(probe).Detach())));
  auto reply = conn.Recv(60);
  if (!reply.ok()) return reply.status();
  if (reply->type != wire::MessageType::kDetectResult) {
    return FrameError(*reply);
  }
  out->setup_s = Since(t0);
  return cf::Status::Ok();
}

void ParallelOver(size_t count, int threads,
                  const std::function<void(size_t)>& fn) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  const int n = std::max(1, std::min<int>(threads, static_cast<int>(count)));
  for (int i = 0; i < n; ++i) {
    pool.emplace_back([&] {
      for (size_t j = next.fetch_add(1); j < count; j = next.fetch_add(1)) {
        fn(j);
      }
    });
  }
  for (auto& t : pool) t.join();
}

}  // namespace cfbench
