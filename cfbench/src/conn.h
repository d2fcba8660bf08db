#ifndef CFBENCH_CONN_H_
#define CFBENCH_CONN_H_

#include <cstdint>
#include <vector>

#include "serve/wire.h"
#include "util/status.h"

/// \file
/// A pipelined CFWP client connection whose every read has a deadline, so a
/// stalled or dead server turns into a counted failure instead of a hang.
/// Frames are built and parsed with the protocol's own codec
/// (serve/wire.h); nothing here reaches past the wire.

namespace cfbench {

class Conn {
 public:
  Conn() = default;
  ~Conn() { Close(); }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  /// Connects to 127.0.0.1:`port` with TCP_NODELAY.
  causalformer::Status Connect(uint16_t port);
  void Close();
  bool connected() const { return fd_ >= 0; }

  /// Sends one already-encoded frame (wire::EncodeFrame output).
  causalformer::Status SendEncoded(const std::vector<uint8_t>& frame);
  /// Encodes and sends one frame.
  causalformer::Status Send(causalformer::serve::wire::MessageType type,
                            std::vector<uint8_t> payload);
  /// Reads the next frame, failing after `timeout_s` seconds without one,
  /// on a closed connection or on a malformed frame (the connection is
  /// closed on every failure).
  causalformer::StatusOr<causalformer::serve::wire::Frame> Recv(
      double timeout_s);
  /// Send + Recv of one request. A kError reply becomes its Status; any
  /// other type than `expect` is an Internal error.
  causalformer::StatusOr<causalformer::serve::wire::Frame> Call(
      causalformer::serve::wire::MessageType type,
      std::vector<uint8_t> payload,
      causalformer::serve::wire::MessageType expect, double timeout_s);

  uint64_t bytes_sent() const { return bytes_sent_; }
  uint64_t bytes_received() const { return bytes_received_; }

 private:
  int fd_ = -1;
  std::vector<uint8_t> buf_;  ///< received bytes not yet decoded
  size_t buf_pos_ = 0;        ///< decode offset into buf_
  uint64_t bytes_sent_ = 0;
  uint64_t bytes_received_ = 0;
};

/// The Status a kError frame carries, or an Internal error when the frame
/// is some other unexpected type.
causalformer::Status FrameError(const causalformer::serve::wire::Frame& frame);

}  // namespace cfbench

#endif  // CFBENCH_CONN_H_
