#include "conn.h"

#include <poll.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <string>
#include <utility>

#include "util/socket.h"

namespace cfbench {

namespace cf = causalformer;
namespace wire = causalformer::serve::wire;

cf::Status Conn::Connect(uint16_t port) {
  Close();
  auto fd = cf::TcpConnect("127.0.0.1", port);
  if (!fd.ok()) return fd.status();
  fd_ = *fd;
  (void)cf::TcpNoDelay(fd_);
  return cf::Status::Ok();
}

void Conn::Close() {
  cf::TcpClose(fd_);
  fd_ = -1;
  buf_.clear();
  buf_pos_ = 0;
}

cf::Status Conn::SendEncoded(const std::vector<uint8_t>& frame) {
  if (fd_ < 0) return cf::Status::FailedPrecondition("not connected");
  const cf::Status st = cf::SendAll(fd_, frame.data(), frame.size());
  if (!st.ok()) {
    Close();
    return st;
  }
  bytes_sent_ += frame.size();
  return st;
}

cf::Status Conn::Send(wire::MessageType type, std::vector<uint8_t> payload) {
  return SendEncoded(wire::EncodeFrame(type, std::move(payload)));
}

cf::StatusOr<wire::Frame> Conn::Recv(double timeout_s) {
  if (fd_ < 0) return cf::Status::FailedPrecondition("not connected");
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(timeout_s));
  for (;;) {
    wire::Frame frame;
    size_t consumed = 0;
    std::string error;
    const wire::DecodeResult r =
        wire::DecodeFrame(buf_.data() + buf_pos_, buf_.size() - buf_pos_,
                          &frame, &consumed, &error);
    if (r == wire::DecodeResult::kFrame) {
      buf_pos_ += consumed;
      if (buf_pos_ == buf_.size()) {
        buf_.clear();
        buf_pos_ = 0;
      }
      return frame;
    }
    if (r != wire::DecodeResult::kNeedMore) {
      Close();
      return cf::Status::Internal("malformed frame from server: " + error);
    }
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) {
      Close();
      return cf::Status::Internal("timed out waiting for a response");
    }
    const int wait_ms = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now)
            .count() +
        1);
    struct pollfd pfd = {fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, wait_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      Close();
      return cf::Status::Internal(std::string("poll: ") + std::strerror(errno));
    }
    if (ready == 0) continue;  // the deadline check above ends the wait
    if (buf_pos_ > 0) {  // compact before growing
      buf_.erase(buf_.begin(), buf_.begin() + static_cast<long>(buf_pos_));
      buf_pos_ = 0;
    }
    uint8_t chunk[64 * 1024];
    const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n <= 0) {
      if (n < 0 && (errno == EINTR || errno == EAGAIN)) continue;
      Close();
      return cf::Status::Internal(n == 0 ? "server closed the connection"
                                         : std::string("read: ") +
                                               std::strerror(errno));
    }
    buf_.insert(buf_.end(), chunk, chunk + n);
    bytes_received_ += static_cast<uint64_t>(n);
  }
}

cf::StatusOr<wire::Frame> Conn::Call(wire::MessageType type,
                                     std::vector<uint8_t> payload,
                                     wire::MessageType expect,
                                     double timeout_s) {
  CF_RETURN_IF_ERROR(Send(type, std::move(payload)));
  auto frame = Recv(timeout_s);
  if (!frame.ok()) return frame.status();
  if (frame->type != expect) return FrameError(*frame);
  return frame;
}

cf::Status FrameError(const wire::Frame& frame) {
  if (frame.type == wire::MessageType::kError) {
    wire::ErrorMsg error;
    const cf::Status st = wire::DecodeError(frame.payload, &error);
    if (!st.ok()) return st;
    return wire::ErrorToStatus(error);
  }
  return cf::Status::Internal("unexpected response type " +
                              std::to_string(static_cast<int>(frame.type)));
}

}  // namespace cfbench
