#include "nn/serialize.h"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <map>

#include "util/logging.h"

namespace causalformer {
namespace nn {

namespace {

constexpr char kMagic[4] = {'C', 'F', 'P', 'M'};
constexpr uint32_t kVersion = 1;

template <typename T>
void WritePod(std::ofstream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
bool ReadPod(std::ifstream& in, T* value) {
  in.read(reinterpret_cast<char*>(value), sizeof(T));
  return in.good();
}

}  // namespace

Status SaveParameters(const Module& module, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out.is_open()) {
    return Status::NotFound("cannot open for write: " + path);
  }
  const auto named = module.NamedParameters();
  out.write(kMagic, sizeof(kMagic));
  WritePod(out, kVersion);
  WritePod(out, static_cast<uint64_t>(named.size()));
  for (const auto& [name, tensor] : named) {
    WritePod(out, static_cast<uint64_t>(name.size()));
    out.write(name.data(), static_cast<std::streamsize>(name.size()));
    WritePod(out, static_cast<uint32_t>(tensor.ndim()));
    for (int d = 0; d < tensor.ndim(); ++d) {
      WritePod(out, static_cast<uint64_t>(tensor.dim(d)));
    }
    out.write(reinterpret_cast<const char*>(tensor.data()),
              static_cast<std::streamsize>(tensor.numel() * sizeof(float)));
  }
  if (!out.good()) {
    return Status::Internal("write failed: " + path);
  }
  return Status::Ok();
}

Status LoadParameters(Module* module, const std::string& path) {
  CF_CHECK(module != nullptr);
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    return Status::NotFound("cannot open for read: " + path);
  }
  char magic[4];
  in.read(magic, sizeof(magic));
  if (!in.good() || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("not a CausalFormer checkpoint: " + path);
  }
  uint32_t version = 0;
  if (!ReadPod(in, &version) || version != kVersion) {
    return Status::InvalidArgument("unsupported checkpoint version");
  }
  uint64_t count = 0;
  if (!ReadPod(in, &count)) {
    return Status::InvalidArgument("truncated checkpoint header");
  }

  std::map<std::string, Tensor> params;
  for (const auto& [name, tensor] : module->NamedParameters()) {
    params.emplace(name, tensor);
  }
  if (count != params.size()) {
    return Status::InvalidArgument(
        "checkpoint parameter count mismatch: file has " +
        std::to_string(count) + ", module has " +
        std::to_string(params.size()));
  }

  for (uint64_t p = 0; p < count; ++p) {
    uint64_t name_len = 0;
    if (!ReadPod(in, &name_len) || name_len > 4096) {
      return Status::InvalidArgument("corrupt parameter name length");
    }
    std::string name(name_len, '\0');
    in.read(name.data(), static_cast<std::streamsize>(name_len));
    uint32_t ndim = 0;
    if (!in.good() || !ReadPod(in, &ndim) ||
        ndim > static_cast<uint32_t>(kMaxRank)) {
      return Status::InvalidArgument("corrupt parameter record: " + name);
    }
    int64_t dims[kMaxRank];
    for (uint32_t d = 0; d < ndim; ++d) {
      uint64_t v = 0;
      if (!ReadPod(in, &v)) {
        return Status::InvalidArgument("truncated dims for: " + name);
      }
      dims[d] = static_cast<int64_t>(v);
    }
    const Shape shape(dims, static_cast<int>(ndim));

    const auto it = params.find(name);
    if (it == params.end()) {
      return Status::InvalidArgument("unknown parameter in checkpoint: " + name);
    }
    if (it->second.shape() != shape) {
      return Status::InvalidArgument(
          "shape mismatch for " + name + ": file " + shape.ToString() +
          " vs module " + it->second.shape().ToString());
    }
    in.read(reinterpret_cast<char*>(it->second.data()),
            static_cast<std::streamsize>(shape.numel() * sizeof(float)));
    if (!in.good()) {
      return Status::InvalidArgument("truncated data for: " + name);
    }
  }
  return Status::Ok();
}

}  // namespace nn
}  // namespace causalformer
