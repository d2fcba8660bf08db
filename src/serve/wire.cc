#include "serve/wire.h"

#include <cstring>
#include <type_traits>

#include "util/crc32.h"
#include "util/logging.h"

namespace causalformer {
namespace serve {
namespace wire {

namespace {

// Little-endian stores and loads, a byte at a time: independent of host byte
// order, and compilers fold each into one plain store or load on
// little-endian targets.
template <typename T>
inline void StoreLE(uint8_t* p, T v) {
  for (size_t i = 0; i < sizeof(T); ++i) {
    p[i] = static_cast<uint8_t>(v >> (8 * i));
  }
}

template <typename T>
inline T LoadLE(const uint8_t* p) {
  T v = 0;
  for (size_t i = 0; i < sizeof(T); ++i) v |= static_cast<T>(p[i]) << (8 * i);
  return v;
}

// A little-endian cursor over bytes already added to a payload: each call
// stores one field and advances.
class Cursor {
 public:
  explicit Cursor(uint8_t* p) : p_(p) {}
  template <typename T>
  void Put(T v) {
    static_assert(std::is_unsigned<T>::value, "store the two's complement");
    StoreLE(p_, v);
    p_ += sizeof(T);
  }
  void F64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    Put(bits);
  }
  const uint8_t* pos() const { return p_; }

 private:
  uint8_t* p_;
};

// Shared sub-blocks of several message types. Kept in lockstep with the
// byte-offset tables in docs/wire-protocol.md §4.

void WriteDetectorOptions(PayloadWriter* w, const core::DetectorOptions& o) {
  w->I32(o.num_clusters);
  w->I32(o.top_clusters);
  w->I64(o.max_windows);
  uint8_t flags = 0;
  if (o.use_interpretation) flags |= 1u << 0;
  if (o.use_relevance) flags |= 1u << 1;
  if (o.use_gradient) flags |= 1u << 2;
  if (o.bias_absorption) flags |= 1u << 3;
  w->U8(flags);
  w->F32(o.epsilon);
}

Status ReadDetectorOptions(PayloadReader* r, core::DetectorOptions* o) {
  CF_RETURN_IF_ERROR(r->I32(&o->num_clusters));
  CF_RETURN_IF_ERROR(r->I32(&o->top_clusters));
  CF_RETURN_IF_ERROR(r->I64(&o->max_windows));
  uint8_t flags = 0;
  CF_RETURN_IF_ERROR(r->U8(&flags));
  if ((flags & ~0x0Fu) != 0) {
    return Status::InvalidArgument("detector options: reserved flag bits set");
  }
  o->use_interpretation = (flags & (1u << 0)) != 0;
  o->use_relevance = (flags & (1u << 1)) != 0;
  o->use_gradient = (flags & (1u << 2)) != 0;
  o->bias_absorption = (flags & (1u << 3)) != 0;
  CF_RETURN_IF_ERROR(r->F32(&o->epsilon));
  return Status::Ok();
}

void WriteWindows(PayloadWriter* w, const Tensor& windows) {
  w->U32(static_cast<uint32_t>(windows.dim(0)));
  w->U32(static_cast<uint32_t>(windows.dim(1)));
  w->U32(static_cast<uint32_t>(windows.dim(2)));
  w->F32Array(windows.data(), static_cast<size_t>(windows.numel()));
}

Status ReadWindows(PayloadReader* r, Tensor* windows) {
  uint32_t b = 0, n = 0, t = 0;
  CF_RETURN_IF_ERROR(r->U32(&b));
  CF_RETURN_IF_ERROR(r->U32(&n));
  CF_RETURN_IF_ERROR(r->U32(&t));
  if (b < 1 || n < 1 || t < 1) {
    return Status::InvalidArgument("window tensor dims must be >= 1");
  }
  // Divide instead of multiplying: b*n*t*4 can wrap uint64 for hostile dims
  // (e.g. b = n = 2^31), which would pass a product-based check and then
  // attempt an enormous allocation.
  const uint64_t budget = r->remaining() / 4;
  if (b > budget || static_cast<uint64_t>(b) * n > budget ||
      static_cast<uint64_t>(b) * n * t > budget) {
    return Status::InvalidArgument("window tensor data truncated");
  }
  // Empty, not Zeros: F32Array overwrites every element.
  Tensor out = Tensor::Empty(Shape{static_cast<int64_t>(b),
                                   static_cast<int64_t>(n),
                                   static_cast<int64_t>(t)});
  CF_RETURN_IF_ERROR(
      r->F32Array(out.data(), static_cast<size_t>(out.numel())));
  *windows = std::move(out);
  return Status::Ok();
}

void WriteModelOptions(PayloadWriter* w, const core::ModelOptions& o) {
  w->I64(o.num_series);
  w->I64(o.window);
  w->I64(o.d_model);
  w->I64(o.d_qk);
  w->I64(o.heads);
  w->I64(o.d_ffn);
  w->F32(o.tau);
  w->F32(o.leaky_slope);
  w->U8(o.multi_kernel ? 1 : 0);
  w->F32(o.lag_penalty);
}

Status ReadModelOptions(PayloadReader* r, core::ModelOptions* o) {
  CF_RETURN_IF_ERROR(r->I64(&o->num_series));
  CF_RETURN_IF_ERROR(r->I64(&o->window));
  CF_RETURN_IF_ERROR(r->I64(&o->d_model));
  CF_RETURN_IF_ERROR(r->I64(&o->d_qk));
  CF_RETURN_IF_ERROR(r->I64(&o->heads));
  CF_RETURN_IF_ERROR(r->I64(&o->d_ffn));
  CF_RETURN_IF_ERROR(r->F32(&o->tau));
  CF_RETURN_IF_ERROR(r->F32(&o->leaky_slope));
  uint8_t multi = 0;
  CF_RETURN_IF_ERROR(r->U8(&multi));
  if (multi > 1) {
    return Status::InvalidArgument("model options: multi_kernel must be 0/1");
  }
  o->multi_kernel = multi == 1;
  CF_RETURN_IF_ERROR(r->F32(&o->lag_penalty));
  return Status::Ok();
}

Status ReadDetectResult(PayloadReader* r, DetectResultMsg* msg) {
  uint8_t flags = 0;
  CF_RETURN_IF_ERROR(r->U8(&flags));
  if ((flags & ~0x03u) != 0) {
    return Status::InvalidArgument("detect result: reserved flag bits set");
  }
  msg->cache_hit = (flags & (1u << 0)) != 0;
  msg->deduped = (flags & (1u << 1)) != 0;
  CF_RETURN_IF_ERROR(r->I32(&msg->batch_size));
  CF_RETURN_IF_ERROR(r->F64(&msg->latency_seconds));
  uint32_t n32 = 0;
  CF_RETURN_IF_ERROR(r->U32(&n32));
  const uint64_t n = n32;
  // scores (8B) + delays (4B) per cell; reject before allocating/looping.
  // Division-based bound: n*n*12 wraps uint64 for n = 2^31, which would
  // pass a product check and then allocate a huge DetectionResult.
  const uint64_t cell_budget = r->remaining() / 12;
  if (n < 1 || n > cell_budget || n * n > cell_budget) {
    return Status::InvalidArgument("detect result: implausible series count " +
                                   std::to_string(n));
  }
  const int ni = static_cast<int>(n);
  msg->result = core::DetectionResult(ni);
  for (int from = 0; from < ni; ++from) {
    for (int to = 0; to < ni; ++to) {
      double score = 0;
      CF_RETURN_IF_ERROR(r->F64(&score));
      msg->result.scores.set(from, to, score);
    }
  }
  for (int from = 0; from < ni; ++from) {
    for (int to = 0; to < ni; ++to) {
      CF_RETURN_IF_ERROR(r->I32(&msg->result.delays[static_cast<size_t>(from)]
                                                   [static_cast<size_t>(to)]));
    }
  }
  uint32_t num_edges = 0;
  CF_RETURN_IF_ERROR(r->U32(&num_edges));
  if (static_cast<uint64_t>(num_edges) > n * n) {
    return Status::InvalidArgument("detect result: more edges than pairs");
  }
  for (uint32_t i = 0; i < num_edges; ++i) {
    int32_t from = 0, to = 0, delay = 0;
    double score = 0;
    CF_RETURN_IF_ERROR(r->I32(&from));
    CF_RETURN_IF_ERROR(r->I32(&to));
    CF_RETURN_IF_ERROR(r->I32(&delay));
    CF_RETURN_IF_ERROR(r->F64(&score));
    if (from < 0 || from >= ni || to < 0 || to >= ni) {
      return Status::InvalidArgument("detect result: edge endpoint out of "
                                     "range");
    }
    msg->result.graph.AddEdge(from, to, delay, score);
  }
  return Status::Ok();
}

// One edge list: u32 count + per edge (i32 from, i32 to, i32 delay,
// f64 score). Shared by the stream report blocks.
void WriteEdges(PayloadWriter* w, const std::vector<CausalEdge>& edges) {
  w->U32(static_cast<uint32_t>(edges.size()));
  for (const CausalEdge& edge : edges) {
    w->I32(edge.from);
    w->I32(edge.to);
    w->I32(edge.delay);
    w->F64(edge.score);
  }
}

Status ReadEdges(PayloadReader* r, int32_t num_series,
                 std::vector<CausalEdge>* edges) {
  uint32_t count = 0;
  CF_RETURN_IF_ERROR(r->U32(&count));
  const uint64_t pairs =
      static_cast<uint64_t>(num_series) * static_cast<uint64_t>(num_series);
  if (count > pairs) {
    return Status::InvalidArgument("edge list: more edges than pairs");
  }
  // n² alone is attacker-controlled (a hostile peer can claim n = 2^31);
  // bound the reserve by the bytes actually present — 20 per edge.
  if (static_cast<uint64_t>(count) * 20 > r->remaining()) {
    return Status::InvalidArgument("edge list: count exceeds payload");
  }
  edges->clear();
  edges->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    CausalEdge edge;
    CF_RETURN_IF_ERROR(r->I32(&edge.from));
    CF_RETURN_IF_ERROR(r->I32(&edge.to));
    CF_RETURN_IF_ERROR(r->I32(&edge.delay));
    CF_RETURN_IF_ERROR(r->F64(&edge.score));
    if (edge.from < 0 || edge.from >= num_series || edge.to < 0 ||
        edge.to >= num_series) {
      return Status::InvalidArgument("edge list: endpoint out of range");
    }
    edges->push_back(edge);
  }
  return Status::Ok();
}

void WriteStreamReport(PayloadWriter* w, const StreamReportMsg& msg) {
  w->U64(msg.window_index);
  w->I64(msg.window_start);
  uint8_t flags = 0;
  if (msg.cache_hit) flags |= 1u << 0;
  if (msg.has_baseline) flags |= 1u << 1;
  if (msg.drifted) flags |= 1u << 2;
  if (msg.regime_change) flags |= 1u << 3;
  if (msg.deduped) flags |= 1u << 4;
  w->U8(flags);
  w->I32(msg.batch_size);
  w->F64(msg.latency_seconds);
  w->I32(msg.num_series);
  WriteEdges(w, msg.edges);
  w->I32(msg.consecutive_drifts);
  w->I32(msg.edges_added);
  w->I32(msg.edges_removed);
  w->I32(msg.edges_kept);
  w->I32(msg.delay_changes);
  w->F64(msg.mean_abs_score_delta);
  w->F64(msg.max_abs_score_delta);
  w->F64(msg.jaccard);
  WriteEdges(w, msg.added);
  WriteEdges(w, msg.removed);
}

Status ReadStreamReport(PayloadReader* r, StreamReportMsg* msg) {
  CF_RETURN_IF_ERROR(r->U64(&msg->window_index));
  CF_RETURN_IF_ERROR(r->I64(&msg->window_start));
  uint8_t flags = 0;
  CF_RETURN_IF_ERROR(r->U8(&flags));
  if ((flags & ~0x1Fu) != 0) {
    return Status::InvalidArgument("stream report: reserved flag bits set");
  }
  msg->cache_hit = (flags & (1u << 0)) != 0;
  msg->has_baseline = (flags & (1u << 1)) != 0;
  msg->drifted = (flags & (1u << 2)) != 0;
  msg->regime_change = (flags & (1u << 3)) != 0;
  msg->deduped = (flags & (1u << 4)) != 0;
  CF_RETURN_IF_ERROR(r->I32(&msg->batch_size));
  CF_RETURN_IF_ERROR(r->F64(&msg->latency_seconds));
  CF_RETURN_IF_ERROR(r->I32(&msg->num_series));
  if (msg->num_series < 1) {
    return Status::InvalidArgument("stream report: num_series must be >= 1");
  }
  CF_RETURN_IF_ERROR(ReadEdges(r, msg->num_series, &msg->edges));
  CF_RETURN_IF_ERROR(r->I32(&msg->consecutive_drifts));
  CF_RETURN_IF_ERROR(r->I32(&msg->edges_added));
  CF_RETURN_IF_ERROR(r->I32(&msg->edges_removed));
  CF_RETURN_IF_ERROR(r->I32(&msg->edges_kept));
  CF_RETURN_IF_ERROR(r->I32(&msg->delay_changes));
  CF_RETURN_IF_ERROR(r->F64(&msg->mean_abs_score_delta));
  CF_RETURN_IF_ERROR(r->F64(&msg->max_abs_score_delta));
  CF_RETURN_IF_ERROR(r->F64(&msg->jaccard));
  CF_RETURN_IF_ERROR(ReadEdges(r, msg->num_series, &msg->added));
  CF_RETURN_IF_ERROR(ReadEdges(r, msg->num_series, &msg->removed));
  return Status::Ok();
}

void WriteError(PayloadWriter* w, const Status& status) {
  w->U32(static_cast<uint32_t>(status.code()));
  w->Str(status.message());
}

}  // namespace

bool IsKnownMessageType(uint8_t type) {
  return (type >= static_cast<uint8_t>(MessageType::kPing) &&
          type <= static_cast<uint8_t>(MessageType::kError)) ||
         (type >= static_cast<uint8_t>(MessageType::kStreamOpen) &&
          type <= static_cast<uint8_t>(MessageType::kProfileResult));
}

// ---- Frame ----------------------------------------------------------------

void SealFrame(MessageType type, std::vector<uint8_t>* frame) {
  CF_CHECK_GE(frame->size(), kHeaderSize);
  if (frame->size() - kHeaderSize > kMaxPayload) {
    const Status too_large = Status::OutOfRange(
        "payload of " + std::to_string(frame->size() - kHeaderSize) +
        " bytes exceeds the " + std::to_string(kMaxPayload) +
        "-byte frame limit");
    std::vector<uint8_t>(kHeaderSize).swap(*frame);
    PayloadWriter w(frame);
    WriteError(&w, too_large);
    type = MessageType::kError;
  }
  const uint32_t length = static_cast<uint32_t>(frame->size() - kHeaderSize);
  uint8_t* header = frame->data();
  std::memcpy(header, kMagic, 4);
  header[4] = kVersion;
  header[5] = static_cast<uint8_t>(type);
  header[6] = 0;  // reserved
  header[7] = 0;
  StoreLE(header + 8, length);
  StoreLE(header + 12, Crc32(header + kHeaderSize, length));
}

std::vector<uint8_t> EncodeFrame(MessageType type,
                                 std::vector<uint8_t> payload) {
  std::vector<uint8_t> frame;
  frame.reserve(kHeaderSize + payload.size());
  frame.resize(kHeaderSize);
  frame.insert(frame.end(), payload.begin(), payload.end());
  SealFrame(type, &frame);
  return frame;
}

DecodeResult DecodeFrame(const uint8_t* data, size_t size, Frame* frame,
                         size_t* consumed, std::string* error) {
  *consumed = 0;
  const auto fail = [&](DecodeResult result, const char* what) {
    if (error != nullptr) *error = what;
    return result;
  };
  for (size_t i = 0; i < size && i < 4; ++i) {
    if (data[i] != kMagic[i]) return fail(DecodeResult::kBadMagic, "bad magic");
  }
  if (size < kHeaderSize) return DecodeResult::kNeedMore;
  const uint8_t version = data[4];
  const uint8_t type = data[5];
  if (data[6] != 0 || data[7] != 0) {
    return fail(DecodeResult::kMalformed, "reserved header bytes set");
  }
  if (!IsKnownMessageType(type)) {
    return fail(DecodeResult::kMalformed, "unknown message type");
  }
  const uint32_t length = LoadLE<uint32_t>(data + 8);
  const uint32_t crc = LoadLE<uint32_t>(data + 12);
  if (length > kMaxPayload) {
    return fail(DecodeResult::kMalformed, "payload length exceeds kMaxPayload");
  }
  if (size < kHeaderSize + length) return DecodeResult::kNeedMore;
  if (Crc32(data + kHeaderSize, length) != crc) {
    return fail(DecodeResult::kMalformed, "payload crc mismatch");
  }
  frame->version = version;
  frame->type = static_cast<MessageType>(type);
  frame->payload.assign(data + kHeaderSize, data + kHeaderSize + length);
  *consumed = kHeaderSize + length;
  return DecodeResult::kFrame;
}

// ---- Primitives ------------------------------------------------------------

uint8_t* PayloadWriter::Extend(size_t n) {
  const size_t at = out_->size();
  out_->resize(at + n);
  return out_->data() + at;
}

void PayloadWriter::U8(uint8_t v) { out_->push_back(v); }
void PayloadWriter::U32(uint32_t v) { StoreLE(Extend(4), v); }
void PayloadWriter::U64(uint64_t v) { StoreLE(Extend(8), v); }
void PayloadWriter::I32(int32_t v) { U32(static_cast<uint32_t>(v)); }
void PayloadWriter::I64(int64_t v) { U64(static_cast<uint64_t>(v)); }

void PayloadWriter::F32(float v) {
  uint32_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  U32(bits);
}

void PayloadWriter::F64(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  U64(bits);
}

void PayloadWriter::F32Array(const float* v, size_t count) {
  uint8_t* p = Extend(count * sizeof(float));
  for (size_t i = 0; i < count; ++i, p += sizeof(float)) {
    uint32_t bits;
    std::memcpy(&bits, v + i, sizeof(bits));
    StoreLE(p, bits);
  }
}

void PayloadWriter::Str(const std::string& v) {
  U32(static_cast<uint32_t>(v.size()));
  if (!v.empty()) std::memcpy(Extend(v.size()), v.data(), v.size());
}

Status PayloadReader::Take(size_t n, const uint8_t** p) {
  if (size_ - pos_ < n) {
    return Status::OutOfRange("payload truncated: need " + std::to_string(n) +
                              " bytes, have " + std::to_string(size_ - pos_));
  }
  *p = data_ + pos_;
  pos_ += n;
  return Status::Ok();
}

Status PayloadReader::U8(uint8_t* v) {
  const uint8_t* p;
  CF_RETURN_IF_ERROR(Take(1, &p));
  *v = p[0];
  return Status::Ok();
}

Status PayloadReader::U32(uint32_t* v) {
  const uint8_t* p;
  CF_RETURN_IF_ERROR(Take(4, &p));
  *v = LoadLE<uint32_t>(p);
  return Status::Ok();
}

Status PayloadReader::U64(uint64_t* v) {
  const uint8_t* p;
  CF_RETURN_IF_ERROR(Take(8, &p));
  *v = LoadLE<uint64_t>(p);
  return Status::Ok();
}

Status PayloadReader::I32(int32_t* v) {
  uint32_t u = 0;
  CF_RETURN_IF_ERROR(U32(&u));
  *v = static_cast<int32_t>(u);
  return Status::Ok();
}

Status PayloadReader::I64(int64_t* v) {
  uint64_t u = 0;
  CF_RETURN_IF_ERROR(U64(&u));
  *v = static_cast<int64_t>(u);
  return Status::Ok();
}

Status PayloadReader::F32(float* v) {
  uint32_t bits = 0;
  CF_RETURN_IF_ERROR(U32(&bits));
  std::memcpy(v, &bits, sizeof(bits));
  return Status::Ok();
}

Status PayloadReader::F64(double* v) {
  uint64_t bits = 0;
  CF_RETURN_IF_ERROR(U64(&bits));
  std::memcpy(v, &bits, sizeof(bits));
  return Status::Ok();
}

Status PayloadReader::F32Array(float* v, size_t count) {
  // Divide instead of multiplying: count * 4 can wrap for a hostile count.
  if (count > remaining() / sizeof(float)) {
    return Status::OutOfRange("payload truncated: need " +
                              std::to_string(count) + " floats, have " +
                              std::to_string(remaining()) + " bytes");
  }
  const uint8_t* p;
  CF_RETURN_IF_ERROR(Take(count * sizeof(float), &p));
  for (size_t i = 0; i < count; ++i, p += sizeof(float)) {
    const uint32_t bits = LoadLE<uint32_t>(p);
    std::memcpy(v + i, &bits, sizeof(bits));
  }
  return Status::Ok();
}

Status PayloadReader::Str(std::string* v) {
  uint32_t length = 0;
  CF_RETURN_IF_ERROR(U32(&length));
  const uint8_t* p;
  CF_RETURN_IF_ERROR(Take(length, &p));
  v->assign(reinterpret_cast<const char*>(p), length);
  return Status::Ok();
}

Status PayloadReader::ExpectEnd() const {
  if (pos_ != size_) {
    return Status::InvalidArgument(std::to_string(size_ - pos_) +
                                   " trailing payload bytes");
  }
  return Status::Ok();
}

// ---- Typed messages --------------------------------------------------------

std::vector<uint8_t> EncodePing(uint64_t token) {
  std::vector<uint8_t> payload;
  PayloadWriter(&payload).U64(token);
  return payload;
}

Status DecodePing(const std::vector<uint8_t>& payload, uint64_t* token) {
  PayloadReader r(payload.data(), payload.size());
  CF_RETURN_IF_ERROR(r.U64(token));
  return r.ExpectEnd();
}

std::vector<uint8_t> EncodeLoadModel(const LoadModelMsg& msg) {
  std::vector<uint8_t> payload;
  PayloadWriter w(&payload);
  w.Str(msg.name);
  w.Str(msg.checkpoint_path);
  WriteModelOptions(&w, msg.options);
  return payload;
}

Status DecodeLoadModel(const std::vector<uint8_t>& payload,
                       LoadModelMsg* msg) {
  PayloadReader r(payload.data(), payload.size());
  CF_RETURN_IF_ERROR(r.Str(&msg->name));
  CF_RETURN_IF_ERROR(r.Str(&msg->checkpoint_path));
  CF_RETURN_IF_ERROR(ReadModelOptions(&r, &msg->options));
  return r.ExpectEnd();
}

std::vector<uint8_t> EncodeLoadModelOk(const LoadModelOkMsg& msg) {
  std::vector<uint8_t> payload;
  PayloadWriter w(&payload);
  w.I64(msg.num_parameters);
  w.U64(msg.generation);
  return payload;
}

Status DecodeLoadModelOk(const std::vector<uint8_t>& payload,
                         LoadModelOkMsg* msg) {
  PayloadReader r(payload.data(), payload.size());
  CF_RETURN_IF_ERROR(r.I64(&msg->num_parameters));
  CF_RETURN_IF_ERROR(r.U64(&msg->generation));
  return r.ExpectEnd();
}

std::vector<uint8_t> EncodeUnloadModel(const std::string& name) {
  std::vector<uint8_t> payload;
  PayloadWriter(&payload).Str(name);
  return payload;
}

Status DecodeUnloadModel(const std::vector<uint8_t>& payload,
                         std::string* name) {
  PayloadReader r(payload.data(), payload.size());
  CF_RETURN_IF_ERROR(r.Str(name));
  return r.ExpectEnd();
}

std::vector<uint8_t> EncodeDetect(const DetectMsg& msg) {
  std::vector<uint8_t> payload;
  PayloadWriter w(&payload);
  w.Str(msg.model);
  WriteDetectorOptions(&w, msg.options);
  WriteWindows(&w, msg.windows);
  return payload;
}

Status DecodeDetect(const std::vector<uint8_t>& payload, DetectMsg* msg) {
  PayloadReader r(payload.data(), payload.size());
  CF_RETURN_IF_ERROR(r.Str(&msg->model));
  CF_RETURN_IF_ERROR(ReadDetectorOptions(&r, &msg->options));
  CF_RETURN_IF_ERROR(ReadWindows(&r, &msg->windows));
  return r.ExpectEnd();
}

std::vector<uint8_t> EncodeDetectBatch(const DetectBatchMsg& msg) {
  std::vector<uint8_t> payload;
  PayloadWriter w(&payload);
  w.Str(msg.model);
  WriteDetectorOptions(&w, msg.options);
  w.U32(static_cast<uint32_t>(msg.windows.size()));
  for (const auto& windows : msg.windows) WriteWindows(&w, windows);
  return payload;
}

Status DecodeDetectBatch(const std::vector<uint8_t>& payload,
                         DetectBatchMsg* msg) {
  PayloadReader r(payload.data(), payload.size());
  CF_RETURN_IF_ERROR(r.Str(&msg->model));
  CF_RETURN_IF_ERROR(ReadDetectorOptions(&r, &msg->options));
  uint32_t count = 0;
  CF_RETURN_IF_ERROR(r.U32(&count));
  if (count < 1) {
    return Status::InvalidArgument("detect batch: at least one window batch "
                                   "required");
  }
  // Each batch needs >= 12 header bytes + one float.
  if (static_cast<uint64_t>(count) * 16 > r.remaining()) {
    return Status::InvalidArgument("detect batch: implausible batch count " +
                                   std::to_string(count));
  }
  msg->windows.clear();
  msg->windows.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    Tensor windows;
    CF_RETURN_IF_ERROR(ReadWindows(&r, &windows));
    msg->windows.push_back(std::move(windows));
  }
  return r.ExpectEnd();
}

size_t DetectResultSize(const core::DetectionResult& result) {
  const size_t n = static_cast<size_t>(result.scores.num_series());
  // flags, batch size, latency and series count; an f64 score and an i32
  // delay per cell; the edge count and 20 bytes per edge.
  return 1 + 4 + 8 + 4 + n * n * 12 + 4 + result.graph.edges().size() * 20;
}

void AppendDetectResult(PayloadWriter* w, bool cache_hit, bool deduped,
                        int32_t batch_size, double latency_seconds,
                        const core::DetectionResult& result) {
  const size_t size = DetectResultSize(result);
  uint8_t* const begin = w->Extend(size);
  Cursor c(begin);
  const int n = result.scores.num_series();
  uint8_t flags = 0;
  if (cache_hit) flags |= 1u << 0;
  if (deduped) flags |= 1u << 1;
  c.Put(flags);
  c.Put(static_cast<uint32_t>(batch_size));
  c.F64(latency_seconds);
  c.Put(static_cast<uint32_t>(n));
  for (int from = 0; from < n; ++from) {
    const double* scores = result.scores.row(from);
    for (int to = 0; to < n; ++to) c.F64(scores[to]);
  }
  for (int from = 0; from < n; ++from) {
    const int* delays = result.delays[static_cast<size_t>(from)].data();
    for (int to = 0; to < n; ++to) c.Put(static_cast<uint32_t>(delays[to]));
  }
  const auto& edges = result.graph.edges();
  c.Put(static_cast<uint32_t>(edges.size()));
  for (const auto& edge : edges) {
    c.Put(static_cast<uint32_t>(edge.from));
    c.Put(static_cast<uint32_t>(edge.to));
    c.Put(static_cast<uint32_t>(edge.delay));
    c.F64(edge.score);
  }
  CF_CHECK(c.pos() == begin + size)
      << "DetectResult encoder did not end at DetectResultSize";
}

std::vector<uint8_t> EncodeDetectResult(const DetectResultMsg& msg) {
  std::vector<uint8_t> payload;
  PayloadWriter w(&payload);
  AppendDetectResult(&w, msg.cache_hit, msg.deduped, msg.batch_size,
                     msg.latency_seconds, msg.result);
  return payload;
}

Status DecodeDetectResult(const std::vector<uint8_t>& payload,
                          DetectResultMsg* msg) {
  PayloadReader r(payload.data(), payload.size());
  CF_RETURN_IF_ERROR(ReadDetectResult(&r, msg));
  return r.ExpectEnd();
}

std::vector<uint8_t> EncodeDetectBatchResult(
    const std::vector<DetectResultMsg>& results) {
  size_t payload_bytes = 4;
  for (const auto& r : results) payload_bytes += DetectResultSize(r.result);
  std::vector<uint8_t> payload;
  payload.reserve(payload_bytes);
  PayloadWriter w(&payload);
  w.U32(static_cast<uint32_t>(results.size()));
  for (const auto& r : results) {
    AppendDetectResult(&w, r.cache_hit, r.deduped, r.batch_size,
                       r.latency_seconds, r.result);
  }
  return payload;
}

Status DecodeDetectBatchResult(const std::vector<uint8_t>& payload,
                               std::vector<DetectResultMsg>* results) {
  PayloadReader r(payload.data(), payload.size());
  uint32_t count = 0;
  CF_RETURN_IF_ERROR(r.U32(&count));
  if (static_cast<uint64_t>(count) * 17 > r.remaining()) {
    return Status::InvalidArgument("batch result: implausible result count " +
                                   std::to_string(count));
  }
  results->clear();
  results->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    DetectResultMsg msg;
    CF_RETURN_IF_ERROR(ReadDetectResult(&r, &msg));
    results->push_back(std::move(msg));
  }
  return r.ExpectEnd();
}

std::vector<uint8_t> EncodeStatsResult(const StatsResultMsg& msg) {
  std::vector<uint8_t> payload;
  PayloadWriter w(&payload);
  w.U64(msg.cache_hits);
  w.U64(msg.cache_misses);
  w.U64(msg.cache_evictions);
  w.U64(msg.cache_expirations);
  w.U64(msg.cache_size);
  w.U64(msg.cache_capacity);
  w.U64(msg.batch_requests);
  w.U64(msg.batch_batches);
  w.U64(msg.batch_coalesced);
  w.I32(msg.batch_max);
  w.U64(msg.batch_rejected);
  w.U64(msg.dedup_hits);
  w.U64(msg.dedup_in_flight);
  w.I32(msg.batch_in_flight_limit);
  w.I32(msg.batch_shape_buckets);
  w.U64(msg.server_connections);
  w.U64(msg.server_frames);
  w.U64(msg.server_wire_errors);
  w.U32(static_cast<uint32_t>(msg.models.size()));
  for (const auto& model : msg.models) {
    w.Str(model.name);
    w.I64(model.num_parameters);
    w.U64(model.generation);
    w.I64(model.num_series);
    w.I64(model.window);
  }
  w.U32(0);  // shard_count, reserved (docs/wire-protocol.md §4.5)
  return payload;
}

Status DecodeStatsResult(const std::vector<uint8_t>& payload,
                         StatsResultMsg* msg) {
  PayloadReader r(payload.data(), payload.size());
  CF_RETURN_IF_ERROR(r.U64(&msg->cache_hits));
  CF_RETURN_IF_ERROR(r.U64(&msg->cache_misses));
  CF_RETURN_IF_ERROR(r.U64(&msg->cache_evictions));
  CF_RETURN_IF_ERROR(r.U64(&msg->cache_expirations));
  CF_RETURN_IF_ERROR(r.U64(&msg->cache_size));
  CF_RETURN_IF_ERROR(r.U64(&msg->cache_capacity));
  CF_RETURN_IF_ERROR(r.U64(&msg->batch_requests));
  CF_RETURN_IF_ERROR(r.U64(&msg->batch_batches));
  CF_RETURN_IF_ERROR(r.U64(&msg->batch_coalesced));
  CF_RETURN_IF_ERROR(r.I32(&msg->batch_max));
  CF_RETURN_IF_ERROR(r.U64(&msg->batch_rejected));
  CF_RETURN_IF_ERROR(r.U64(&msg->dedup_hits));
  CF_RETURN_IF_ERROR(r.U64(&msg->dedup_in_flight));
  CF_RETURN_IF_ERROR(r.I32(&msg->batch_in_flight_limit));
  CF_RETURN_IF_ERROR(r.I32(&msg->batch_shape_buckets));
  CF_RETURN_IF_ERROR(r.U64(&msg->server_connections));
  CF_RETURN_IF_ERROR(r.U64(&msg->server_frames));
  CF_RETURN_IF_ERROR(r.U64(&msg->server_wire_errors));
  uint32_t count = 0;
  CF_RETURN_IF_ERROR(r.U32(&count));
  if (static_cast<uint64_t>(count) * 36 > r.remaining()) {
    return Status::InvalidArgument("stats: implausible model count " +
                                   std::to_string(count));
  }
  msg->models.clear();
  msg->models.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    StatsResultMsg::Model model;
    CF_RETURN_IF_ERROR(r.Str(&model.name));
    CF_RETURN_IF_ERROR(r.I64(&model.num_parameters));
    CF_RETURN_IF_ERROR(r.U64(&model.generation));
    CF_RETURN_IF_ERROR(r.I64(&model.num_series));
    CF_RETURN_IF_ERROR(r.I64(&model.window));
    msg->models.push_back(std::move(model));
  }
  uint32_t shard_count = 0;
  CF_RETURN_IF_ERROR(r.U32(&shard_count));
  if (shard_count != 0) {
    return Status::InvalidArgument(
        "stats: reserved shard_count must be 0, got " +
        std::to_string(shard_count));
  }
  return r.ExpectEnd();
}

// ---- Streaming messages (protocol version 2) -------------------------------

std::vector<uint8_t> EncodeStreamOpen(const StreamOpenMsg& msg) {
  std::vector<uint8_t> payload;
  PayloadWriter w(&payload);
  w.Str(msg.stream);
  w.Str(msg.model);
  w.I64(msg.window);
  w.I64(msg.stride);
  w.I64(msg.history);
  w.U32(msg.max_in_flight);
  w.U32(msg.max_reports);
  WriteDetectorOptions(&w, msg.options);
  w.F64(msg.drift_score_threshold);
  w.F64(msg.drift_flip_threshold);
  w.I32(msg.stability_window);
  return payload;
}

Status DecodeStreamOpen(const std::vector<uint8_t>& payload,
                        StreamOpenMsg* msg) {
  PayloadReader r(payload.data(), payload.size());
  CF_RETURN_IF_ERROR(r.Str(&msg->stream));
  CF_RETURN_IF_ERROR(r.Str(&msg->model));
  CF_RETURN_IF_ERROR(r.I64(&msg->window));
  CF_RETURN_IF_ERROR(r.I64(&msg->stride));
  CF_RETURN_IF_ERROR(r.I64(&msg->history));
  CF_RETURN_IF_ERROR(r.U32(&msg->max_in_flight));
  CF_RETURN_IF_ERROR(r.U32(&msg->max_reports));
  CF_RETURN_IF_ERROR(ReadDetectorOptions(&r, &msg->options));
  CF_RETURN_IF_ERROR(r.F64(&msg->drift_score_threshold));
  CF_RETURN_IF_ERROR(r.F64(&msg->drift_flip_threshold));
  CF_RETURN_IF_ERROR(r.I32(&msg->stability_window));
  return r.ExpectEnd();
}

std::vector<uint8_t> EncodeStreamOpenOk(const StreamOpenOkMsg& msg) {
  std::vector<uint8_t> payload;
  PayloadWriter w(&payload);
  w.I64(msg.window);
  w.I64(msg.stride);
  w.I64(msg.history);
  return payload;
}

Status DecodeStreamOpenOk(const std::vector<uint8_t>& payload,
                          StreamOpenOkMsg* msg) {
  PayloadReader r(payload.data(), payload.size());
  CF_RETURN_IF_ERROR(r.I64(&msg->window));
  CF_RETURN_IF_ERROR(r.I64(&msg->stride));
  CF_RETURN_IF_ERROR(r.I64(&msg->history));
  return r.ExpectEnd();
}

std::vector<uint8_t> EncodeStreamClose(const std::string& stream) {
  std::vector<uint8_t> payload;
  PayloadWriter(&payload).Str(stream);
  return payload;
}

Status DecodeStreamClose(const std::vector<uint8_t>& payload,
                         std::string* stream) {
  PayloadReader r(payload.data(), payload.size());
  CF_RETURN_IF_ERROR(r.Str(stream));
  return r.ExpectEnd();
}

std::vector<uint8_t> EncodeAppendSamples(const AppendSamplesMsg& msg) {
  std::vector<uint8_t> payload;
  PayloadWriter w(&payload);
  w.Str(msg.stream);
  w.U32(static_cast<uint32_t>(msg.samples.dim(0)));
  w.U32(static_cast<uint32_t>(msg.samples.dim(1)));
  w.F32Array(msg.samples.data(), static_cast<size_t>(msg.samples.numel()));
  return payload;
}

Status DecodeAppendSamples(const std::vector<uint8_t>& payload,
                           AppendSamplesMsg* msg) {
  PayloadReader r(payload.data(), payload.size());
  CF_RETURN_IF_ERROR(r.Str(&msg->stream));
  uint32_t n = 0, k = 0;
  CF_RETURN_IF_ERROR(r.U32(&n));
  CF_RETURN_IF_ERROR(r.U32(&k));
  if (n < 1 || k < 1) {
    return Status::InvalidArgument("sample tensor dims must be >= 1");
  }
  // Division-based bound (see ReadWindows): n*k*4 can wrap uint64 for
  // hostile dims, which would pass a product check and then allocate.
  const uint64_t budget = r.remaining() / 4;
  if (n > budget || static_cast<uint64_t>(n) * k > budget) {
    return Status::InvalidArgument("sample tensor data truncated");
  }
  Tensor out = Tensor::Empty(
      Shape{static_cast<int64_t>(n), static_cast<int64_t>(k)});
  CF_RETURN_IF_ERROR(r.F32Array(out.data(), static_cast<size_t>(out.numel())));
  msg->samples = std::move(out);
  return r.ExpectEnd();
}

std::vector<uint8_t> EncodeAppendSamplesOk(const AppendSamplesOkMsg& msg) {
  std::vector<uint8_t> payload;
  PayloadWriter w(&payload);
  w.U64(msg.total_samples);
  w.U64(msg.windows_emitted);
  w.U64(msg.windows_dropped);
  w.U64(msg.windows_failed);
  w.U32(msg.pending);
  w.U64(msg.deduped_windows);
  return payload;
}

Status DecodeAppendSamplesOk(const std::vector<uint8_t>& payload,
                             AppendSamplesOkMsg* msg) {
  PayloadReader r(payload.data(), payload.size());
  CF_RETURN_IF_ERROR(r.U64(&msg->total_samples));
  CF_RETURN_IF_ERROR(r.U64(&msg->windows_emitted));
  CF_RETURN_IF_ERROR(r.U64(&msg->windows_dropped));
  CF_RETURN_IF_ERROR(r.U64(&msg->windows_failed));
  CF_RETURN_IF_ERROR(r.U32(&msg->pending));
  CF_RETURN_IF_ERROR(r.U64(&msg->deduped_windows));
  return r.ExpectEnd();
}

std::vector<uint8_t> EncodeStreamReports(const StreamReportsMsg& msg) {
  std::vector<uint8_t> payload;
  PayloadWriter w(&payload);
  w.Str(msg.stream);
  w.U32(msg.max_reports);
  return payload;
}

Status DecodeStreamReports(const std::vector<uint8_t>& payload,
                           StreamReportsMsg* msg) {
  PayloadReader r(payload.data(), payload.size());
  CF_RETURN_IF_ERROR(r.Str(&msg->stream));
  CF_RETURN_IF_ERROR(r.U32(&msg->max_reports));
  return r.ExpectEnd();
}

std::vector<uint8_t> EncodeStreamReportsResult(
    const std::vector<StreamReportMsg>& reports) {
  std::vector<uint8_t> payload;
  PayloadWriter w(&payload);
  w.U32(static_cast<uint32_t>(reports.size()));
  for (const StreamReportMsg& report : reports) {
    WriteStreamReport(&w, report);
  }
  return payload;
}

Status DecodeStreamReportsResult(const std::vector<uint8_t>& payload,
                                 std::vector<StreamReportMsg>* reports) {
  PayloadReader r(payload.data(), payload.size());
  uint32_t count = 0;
  CF_RETURN_IF_ERROR(r.U32(&count));
  // Each report needs >= 74 fixed bytes; reject before reserving.
  if (static_cast<uint64_t>(count) * 74 > r.remaining()) {
    return Status::InvalidArgument("stream reports: implausible count " +
                                   std::to_string(count));
  }
  reports->clear();
  reports->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    StreamReportMsg msg;
    CF_RETURN_IF_ERROR(ReadStreamReport(&r, &msg));
    reports->push_back(std::move(msg));
  }
  return r.ExpectEnd();
}

std::vector<uint8_t> EncodeMetricsResult(const MetricsResultMsg& msg) {
  std::vector<uint8_t> payload;
  PayloadWriter w(&payload);
  w.Str(msg.text);
  w.U32(static_cast<uint32_t>(msg.histograms.size()));
  for (const HistogramSummaryMsg& h : msg.histograms) {
    w.Str(h.name);
    w.U64(h.count);
    w.F64(h.sum);
    w.F64(h.p50);
    w.F64(h.p90);
    w.F64(h.p99);
  }
  return payload;
}

Status DecodeMetricsResult(const std::vector<uint8_t>& payload,
                           MetricsResultMsg* msg) {
  PayloadReader r(payload.data(), payload.size());
  CF_RETURN_IF_ERROR(r.Str(&msg->text));
  uint32_t count = 0;
  CF_RETURN_IF_ERROR(r.U32(&count));
  // Each summary row needs >= 44 fixed bytes (u32 name length + u64 count +
  // four f64s); reject hostile counts before reserving.
  if (static_cast<uint64_t>(count) * 44 > r.remaining()) {
    return Status::InvalidArgument("metrics result: implausible count " +
                                   std::to_string(count));
  }
  msg->histograms.clear();
  msg->histograms.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    HistogramSummaryMsg h;
    CF_RETURN_IF_ERROR(r.Str(&h.name));
    CF_RETURN_IF_ERROR(r.U64(&h.count));
    CF_RETURN_IF_ERROR(r.F64(&h.sum));
    CF_RETURN_IF_ERROR(r.F64(&h.p50));
    CF_RETURN_IF_ERROR(r.F64(&h.p90));
    CF_RETURN_IF_ERROR(r.F64(&h.p99));
    msg->histograms.push_back(std::move(h));
  }
  return r.ExpectEnd();
}

std::vector<uint8_t> EncodeDumpResult(const DumpResultMsg& msg) {
  std::vector<uint8_t> payload;
  PayloadWriter w(&payload);
  w.U32(static_cast<uint32_t>(msg.files.size()));
  for (const DumpFileMsg& file : msg.files) {
    w.Str(file.name);
    w.Str(file.content);
  }
  return payload;
}

Status DecodeDumpResult(const std::vector<uint8_t>& payload,
                        DumpResultMsg* msg) {
  PayloadReader r(payload.data(), payload.size());
  uint32_t count = 0;
  CF_RETURN_IF_ERROR(r.U32(&count));
  // Each file needs >= 8 bytes (two u32 length prefixes); reject hostile
  // counts before reserving.
  if (static_cast<uint64_t>(count) * 8 > r.remaining()) {
    return Status::InvalidArgument("dump result: implausible count " +
                                   std::to_string(count));
  }
  msg->files.clear();
  msg->files.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    DumpFileMsg file;
    CF_RETURN_IF_ERROR(r.Str(&file.name));
    CF_RETURN_IF_ERROR(r.Str(&file.content));
    msg->files.push_back(std::move(file));
  }
  return r.ExpectEnd();
}

std::vector<uint8_t> EncodeProfile(const ProfileMsg& msg) {
  std::vector<uint8_t> payload;
  PayloadWriter w(&payload);
  w.U32(msg.seconds);
  return payload;
}

Status DecodeProfile(const std::vector<uint8_t>& payload, ProfileMsg* msg) {
  PayloadReader r(payload.data(), payload.size());
  CF_RETURN_IF_ERROR(r.U32(&msg->seconds));
  return r.ExpectEnd();
}

std::vector<uint8_t> EncodeProfileResult(const ProfileResultMsg& msg) {
  std::vector<uint8_t> payload;
  PayloadWriter w(&payload);
  w.U64(msg.samples);
  w.U64(msg.drops);
  w.Str(msg.folded);
  w.Str(msg.json);
  return payload;
}

Status DecodeProfileResult(const std::vector<uint8_t>& payload,
                           ProfileResultMsg* msg) {
  PayloadReader r(payload.data(), payload.size());
  CF_RETURN_IF_ERROR(r.U64(&msg->samples));
  CF_RETURN_IF_ERROR(r.U64(&msg->drops));
  CF_RETURN_IF_ERROR(r.Str(&msg->folded));
  CF_RETURN_IF_ERROR(r.Str(&msg->json));
  return r.ExpectEnd();
}

std::vector<uint8_t> EncodeError(const Status& status) {
  std::vector<uint8_t> payload;
  PayloadWriter w(&payload);
  WriteError(&w, status);
  return payload;
}

Status DecodeError(const std::vector<uint8_t>& payload, ErrorMsg* msg) {
  PayloadReader r(payload.data(), payload.size());
  CF_RETURN_IF_ERROR(r.U32(&msg->code));
  CF_RETURN_IF_ERROR(r.Str(&msg->message));
  return r.ExpectEnd();
}

Status ErrorToStatus(const ErrorMsg& msg) {
  switch (msg.code) {
    case static_cast<uint32_t>(StatusCode::kInvalidArgument):
    case static_cast<uint32_t>(StatusCode::kNotFound):
    case static_cast<uint32_t>(StatusCode::kFailedPrecondition):
    case static_cast<uint32_t>(StatusCode::kInternal):
    case static_cast<uint32_t>(StatusCode::kOutOfRange):
      return Status(static_cast<StatusCode>(msg.code), msg.message);
    default:
      return Status::Internal("error code " + std::to_string(msg.code) + ": " +
                              msg.message);
  }
}

}  // namespace wire
}  // namespace serve
}  // namespace causalformer
