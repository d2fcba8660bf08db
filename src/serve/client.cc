#include "serve/client.h"

#include <cstring>
#include <utility>

#include "util/crc32.h"
#include "util/socket.h"

namespace causalformer {
namespace serve {

WireClient::~WireClient() { Close(); }

Status WireClient::Connect(const std::string& host, uint16_t port) {
  if (fd_ >= 0) return Status::FailedPrecondition("already connected");
  auto fd = TcpConnect(host, port);
  if (!fd.ok()) return fd.status();
  fd_ = *fd;
  (void)TcpNoDelay(fd_);
  return Status::Ok();
}

void WireClient::Close() {
  TcpClose(fd_);
  fd_ = -1;
}

Status WireClient::SendFrame(wire::MessageType type,
                             const std::vector<uint8_t>& payload) {
  if (fd_ < 0) return Status::FailedPrecondition("not connected");
  if (payload.size() > wire::kMaxPayload) {
    return Status::OutOfRange("request payload of " +
                              std::to_string(payload.size()) +
                              " bytes exceeds kMaxPayload");
  }
  const std::vector<uint8_t> frame = wire::EncodeFrame(type, payload);
  const Status st = SendAll(fd_, frame.data(), frame.size());
  if (!st.ok()) Close();
  return st;
}

StatusOr<wire::Frame> WireClient::RecvFrame() {
  if (fd_ < 0) return Status::FailedPrecondition("not connected");
  uint8_t header[wire::kHeaderSize];
  Status st = RecvAll(fd_, header, sizeof(header));
  if (!st.ok()) {
    Close();
    return st;
  }
  // Validate the fixed header ourselves (we cannot wait for more bytes the
  // way the server's incremental DecodeFrame can).
  if (std::memcmp(header, wire::kMagic, 4) != 0) {
    Close();
    return Status::Internal("server sent bad frame magic");
  }
  if (header[6] != 0 || header[7] != 0) {
    Close();
    return Status::Internal("server set reserved header bytes");
  }
  wire::Frame frame;
  frame.version = header[4];
  uint32_t length = 0, crc = 0;
  wire::PayloadReader r(header + 8, 8);
  (void)r.U32(&length);
  (void)r.U32(&crc);
  if (!wire::IsKnownMessageType(header[5]) || length > wire::kMaxPayload) {
    Close();
    return Status::Internal("server sent malformed frame header");
  }
  frame.type = static_cast<wire::MessageType>(header[5]);
  frame.payload.resize(length);
  st = RecvAll(fd_, frame.payload.data(), length);
  if (!st.ok()) {
    Close();
    return st;
  }
  if (Crc32(frame.payload.data(), frame.payload.size()) != crc) {
    Close();
    return Status::Internal("response payload crc mismatch");
  }
  return frame;
}

StatusOr<wire::Frame> WireClient::Call(wire::MessageType type,
                                       const std::vector<uint8_t>& payload,
                                       wire::MessageType expect) {
  CF_RETURN_IF_ERROR(SendFrame(type, payload));
  auto frame = RecvFrame();
  if (!frame.ok()) return frame.status();
  if (frame->version != wire::kVersion) {
    Close();
    return Status::Internal("server answered with wire version " +
                            std::to_string(frame->version));
  }
  if (frame->type == wire::MessageType::kError) {
    wire::ErrorMsg error;
    CF_RETURN_IF_ERROR(wire::DecodeError(frame->payload, &error));
    return ErrorToStatus(error);
  }
  if (frame->type != expect) {
    Close();
    return Status::Internal(
        "unexpected response type " +
        std::to_string(static_cast<int>(frame->type)) + " (want " +
        std::to_string(static_cast<int>(expect)) + ")");
  }
  return frame;
}

StatusOr<uint64_t> WireClient::Ping(uint64_t token) {
  auto frame = Call(wire::MessageType::kPing, wire::EncodePing(token),
                    wire::MessageType::kPong);
  if (!frame.ok()) return frame.status();
  uint64_t echoed = 0;
  CF_RETURN_IF_ERROR(wire::DecodePing(frame->payload, &echoed));
  if (echoed != token) {
    return Status::Internal("pong token mismatch");
  }
  return echoed;
}

StatusOr<wire::LoadModelOkMsg> WireClient::LoadModel(
    const std::string& name, const std::string& checkpoint_path,
    const core::ModelOptions& options) {
  wire::LoadModelMsg msg;
  msg.name = name;
  msg.checkpoint_path = checkpoint_path;
  msg.options = options;
  auto frame = Call(wire::MessageType::kLoadModel, wire::EncodeLoadModel(msg),
                    wire::MessageType::kLoadModelOk);
  if (!frame.ok()) return frame.status();
  wire::LoadModelOkMsg ok;
  CF_RETURN_IF_ERROR(wire::DecodeLoadModelOk(frame->payload, &ok));
  return ok;
}

Status WireClient::UnloadModel(const std::string& name) {
  auto frame = Call(wire::MessageType::kUnloadModel,
                    wire::EncodeUnloadModel(name),
                    wire::MessageType::kUnloadModelOk);
  if (!frame.ok()) return frame.status();
  if (!frame->payload.empty()) {
    return Status::Internal("unload response carries payload");
  }
  return Status::Ok();
}

StatusOr<wire::DetectResultMsg> WireClient::Detect(
    const std::string& model, const Tensor& windows,
    const core::DetectorOptions& options) {
  wire::DetectMsg msg;
  msg.model = model;
  msg.options = options;
  msg.windows = windows;
  auto frame = Call(wire::MessageType::kDetect, wire::EncodeDetect(msg),
                    wire::MessageType::kDetectResult);
  if (!frame.ok()) return frame.status();
  wire::DetectResultMsg result;
  CF_RETURN_IF_ERROR(wire::DecodeDetectResult(frame->payload, &result));
  return result;
}

StatusOr<std::vector<wire::DetectResultMsg>> WireClient::DetectBatch(
    const std::string& model, const std::vector<Tensor>& windows,
    const core::DetectorOptions& options) {
  wire::DetectBatchMsg msg;
  msg.model = model;
  msg.options = options;
  msg.windows = windows;
  auto frame = Call(wire::MessageType::kDetectBatch,
                    wire::EncodeDetectBatch(msg),
                    wire::MessageType::kDetectBatchResult);
  if (!frame.ok()) return frame.status();
  std::vector<wire::DetectResultMsg> results;
  CF_RETURN_IF_ERROR(wire::DecodeDetectBatchResult(frame->payload, &results));
  if (results.size() != windows.size()) {
    return Status::Internal("batch result count mismatch: sent " +
                            std::to_string(windows.size()) + ", got " +
                            std::to_string(results.size()));
  }
  return results;
}

StatusOr<wire::StreamOpenOkMsg> WireClient::OpenStream(
    const wire::StreamOpenMsg& msg) {
  auto frame = Call(wire::MessageType::kStreamOpen,
                    wire::EncodeStreamOpen(msg),
                    wire::MessageType::kStreamOpenOk);
  if (!frame.ok()) return frame.status();
  wire::StreamOpenOkMsg ok;
  CF_RETURN_IF_ERROR(wire::DecodeStreamOpenOk(frame->payload, &ok));
  return ok;
}

Status WireClient::CloseStream(const std::string& stream) {
  auto frame = Call(wire::MessageType::kStreamClose,
                    wire::EncodeStreamClose(stream),
                    wire::MessageType::kStreamCloseOk);
  if (!frame.ok()) return frame.status();
  if (!frame->payload.empty()) {
    return Status::Internal("stream close response carries payload");
  }
  return Status::Ok();
}

StatusOr<wire::AppendSamplesOkMsg> WireClient::AppendSamples(
    const std::string& stream, const Tensor& samples) {
  wire::AppendSamplesMsg msg;
  msg.stream = stream;
  msg.samples = samples;
  auto frame = Call(wire::MessageType::kAppendSamples,
                    wire::EncodeAppendSamples(msg),
                    wire::MessageType::kAppendSamplesOk);
  if (!frame.ok()) return frame.status();
  wire::AppendSamplesOkMsg ok;
  CF_RETURN_IF_ERROR(wire::DecodeAppendSamplesOk(frame->payload, &ok));
  return ok;
}

StatusOr<std::vector<wire::StreamReportMsg>> WireClient::StreamReports(
    const std::string& stream, uint32_t max_reports) {
  wire::StreamReportsMsg msg;
  msg.stream = stream;
  msg.max_reports = max_reports;
  auto frame = Call(wire::MessageType::kStreamReports,
                    wire::EncodeStreamReports(msg),
                    wire::MessageType::kStreamReportsResult);
  if (!frame.ok()) return frame.status();
  std::vector<wire::StreamReportMsg> reports;
  CF_RETURN_IF_ERROR(
      wire::DecodeStreamReportsResult(frame->payload, &reports));
  return reports;
}

StatusOr<wire::StatsResultMsg> WireClient::Stats() {
  auto frame =
      Call(wire::MessageType::kStats, {}, wire::MessageType::kStatsResult);
  if (!frame.ok()) return frame.status();
  wire::StatsResultMsg stats;
  CF_RETURN_IF_ERROR(wire::DecodeStatsResult(frame->payload, &stats));
  return stats;
}

StatusOr<wire::MetricsResultMsg> WireClient::Metrics() {
  auto frame =
      Call(wire::MessageType::kMetrics, {}, wire::MessageType::kMetricsResult);
  if (!frame.ok()) return frame.status();
  wire::MetricsResultMsg metrics;
  CF_RETURN_IF_ERROR(wire::DecodeMetricsResult(frame->payload, &metrics));
  return metrics;
}

StatusOr<wire::DumpResultMsg> WireClient::Dump() {
  auto frame =
      Call(wire::MessageType::kDump, {}, wire::MessageType::kDumpResult);
  if (!frame.ok()) return frame.status();
  wire::DumpResultMsg dump;
  CF_RETURN_IF_ERROR(wire::DecodeDumpResult(frame->payload, &dump));
  return dump;
}

StatusOr<wire::ProfileResultMsg> WireClient::Profile(uint32_t seconds) {
  wire::ProfileMsg msg;
  msg.seconds = seconds;
  auto frame = Call(wire::MessageType::kProfile, wire::EncodeProfile(msg),
                    wire::MessageType::kProfileResult);
  if (!frame.ok()) return frame.status();
  wire::ProfileResultMsg result;
  CF_RETURN_IF_ERROR(wire::DecodeProfileResult(frame->payload, &result));
  return result;
}

}  // namespace serve
}  // namespace causalformer
