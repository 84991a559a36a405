#include "joinopt/net/frame.h"

#include <cstring>

namespace joinopt {

namespace {

// A string length must fit in the frame it arrived in; anything larger is
// a corrupt or hostile length field.
Status BadFrame(const char* what) {
  return Status::InvalidArgument(std::string("wire: ") + what);
}

}  // namespace

const char* MsgTypeToString(MsgType t) {
  switch (t) {
    case MsgType::kFetchReq: return "FetchReq";
    case MsgType::kFetchResp: return "FetchResp";
    case MsgType::kExecuteReq: return "ExecuteReq";
    case MsgType::kExecuteResp: return "ExecuteResp";
    case MsgType::kBatchReq: return "BatchReq";
    case MsgType::kBatchResp: return "BatchResp";
    case MsgType::kStatReq: return "StatReq";
    case MsgType::kStatResp: return "StatResp";
    case MsgType::kOwnerReq: return "OwnerReq";
    case MsgType::kOwnerResp: return "OwnerResp";
    case MsgType::kPutReq: return "PutReq";
    case MsgType::kPutResp: return "PutResp";
    case MsgType::kSubscribeReq: return "SubscribeReq";
    case MsgType::kSubscribeResp: return "SubscribeResp";
    case MsgType::kNotifyEvt: return "NotifyEvt";
    case MsgType::kRegionSummaryReq: return "RegionSummaryReq";
    case MsgType::kRegionSummaryResp: return "RegionSummaryResp";
    case MsgType::kRegionSyncReq: return "RegionSyncReq";
    case MsgType::kRegionSyncResp: return "RegionSyncResp";
  }
  return "Unknown";
}

MsgType ResponseTypeFor(MsgType req) {
  switch (req) {
    case MsgType::kFetchReq:
    case MsgType::kExecuteReq:
    case MsgType::kBatchReq:
    case MsgType::kStatReq:
    case MsgType::kOwnerReq:
    case MsgType::kPutReq:
    case MsgType::kSubscribeReq:
    case MsgType::kRegionSummaryReq:
    case MsgType::kRegionSyncReq:
      return static_cast<MsgType>(static_cast<uint8_t>(req) + 1);
    default:
      // kNotifyEvt is one-way; everything else is not a request.
      return static_cast<MsgType>(0);
  }
}

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void PutU16(std::string* out, uint16_t v) {
  PutU8(out, static_cast<uint8_t>(v & 0xff));
  PutU8(out, static_cast<uint8_t>(v >> 8));
}

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    PutU8(out, static_cast<uint8_t>((v >> (8 * i)) & 0xff));
  }
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    PutU8(out, static_cast<uint8_t>((v >> (8 * i)) & 0xff));
  }
}

void PutF64(std::string* out, double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

void PutString(std::string* out, std::string_view s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s.data(), s.size());
}

StatusOr<uint8_t> WireReader::GetU8() {
  if (remaining() < 1) return BadFrame("truncated u8");
  return static_cast<uint8_t>(buf_[pos_++]);
}

StatusOr<uint16_t> WireReader::GetU16() {
  if (remaining() < 2) return BadFrame("truncated u16");
  uint16_t v = 0;
  for (int i = 0; i < 2; ++i) {
    v = static_cast<uint16_t>(
        v | static_cast<uint16_t>(static_cast<uint8_t>(buf_[pos_ + i]))
                << (8 * i));
  }
  pos_ += 2;
  return v;
}

StatusOr<uint32_t> WireReader::GetU32() {
  if (remaining() < 4) return BadFrame("truncated u32");
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(buf_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 4;
  return v;
}

StatusOr<uint64_t> WireReader::GetU64() {
  if (remaining() < 8) return BadFrame("truncated u64");
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(buf_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 8;
  return v;
}

StatusOr<double> WireReader::GetF64() {
  JOINOPT_ASSIGN_OR_RETURN(uint64_t bits, GetU64());
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

StatusOr<std::string> WireReader::GetString() {
  JOINOPT_ASSIGN_OR_RETURN(uint32_t len, GetU32());
  if (remaining() < len) return BadFrame("string length exceeds frame");
  std::string s(buf_.substr(pos_, len));
  pos_ += len;
  return s;
}

void AppendFrameHeader(std::string* out, MsgType type, uint32_t seq,
                       uint32_t body_len, uint8_t version) {
  PutU32(out, kFrameMagic);
  PutU8(out, version);
  PutU8(out, static_cast<uint8_t>(type));
  PutU16(out, 0);  // flags
  PutU32(out, seq);
  PutU32(out, body_len);
}

StatusOr<FrameHeader> ParseFrameHeader(std::string_view buf,
                                       size_t max_frame_bytes) {
  if (buf.size() != kFrameHeaderBytes) {
    return BadFrame("header must be exactly 16 bytes");
  }
  WireReader r(buf);
  JOINOPT_ASSIGN_OR_RETURN(uint32_t magic, r.GetU32());
  if (magic != kFrameMagic) return BadFrame("bad magic");
  FrameHeader h;
  JOINOPT_ASSIGN_OR_RETURN(h.version, r.GetU8());
  JOINOPT_ASSIGN_OR_RETURN(uint8_t type, r.GetU8());
  h.type = static_cast<MsgType>(type);
  JOINOPT_ASSIGN_OR_RETURN(h.flags, r.GetU16());
  if (h.flags != 0) return BadFrame("reserved flags set");
  JOINOPT_ASSIGN_OR_RETURN(h.seq, r.GetU32());
  JOINOPT_ASSIGN_OR_RETURN(h.body_len, r.GetU32());
  if (h.body_len > max_frame_bytes) {
    return Status::ResourceExhausted("wire: frame body exceeds limit");
  }
  return h;
}

StatusOr<std::string> BuildFrame(MsgType type, uint32_t seq,
                                 std::string_view body,
                                 size_t max_frame_bytes) {
  if (body.size() > max_frame_bytes) {
    return Status::ResourceExhausted("wire: frame body exceeds limit");
  }
  std::string out;
  out.reserve(kFrameHeaderBytes + body.size());
  AppendFrameHeader(&out, type, seq, static_cast<uint32_t>(body.size()));
  out.append(body.data(), body.size());
  return out;
}

std::string EncodeKeyRequest(Key key) {
  std::string out;
  PutU64(&out, key);
  return out;
}

StatusOr<Key> DecodeKeyRequest(std::string_view body) {
  WireReader r(body);
  JOINOPT_ASSIGN_OR_RETURN(Key key, r.GetU64());
  if (!r.Done()) return BadFrame("trailing bytes in key request");
  return key;
}

std::string EncodeExecuteRequest(Key key, std::string_view params) {
  std::string out;
  PutU64(&out, key);
  PutString(&out, params);
  return out;
}

StatusOr<ExecuteRequest> DecodeExecuteRequest(std::string_view body) {
  WireReader r(body);
  ExecuteRequest req;
  JOINOPT_ASSIGN_OR_RETURN(req.key, r.GetU64());
  JOINOPT_ASSIGN_OR_RETURN(req.params, r.GetString());
  if (!r.Done()) return BadFrame("trailing bytes in execute request");
  return req;
}

std::string EncodeTaggedBatchRequest(
    uint64_t client_id, uint64_t batch_seq,
    const std::vector<std::pair<Key, std::string>>& items) {
  std::string out;
  PutU64(&out, client_id);
  PutU64(&out, batch_seq);
  PutU32(&out, static_cast<uint32_t>(items.size()));
  for (const auto& [key, params] : items) {
    PutU64(&out, key);
    PutString(&out, params);
  }
  return out;
}

StatusOr<TaggedBatchRequest> DecodeTaggedBatchRequest(std::string_view body) {
  WireReader r(body);
  TaggedBatchRequest req;
  JOINOPT_ASSIGN_OR_RETURN(req.client_id, r.GetU64());
  JOINOPT_ASSIGN_OR_RETURN(req.batch_seq, r.GetU64());
  JOINOPT_ASSIGN_OR_RETURN(uint32_t count, r.GetU32());
  // Each item is at least 12 bytes (key + empty string); a count implying
  // more items than bytes is a corrupt frame, not an allocation request.
  if (static_cast<size_t>(count) * 12 > r.remaining()) {
    return BadFrame("batch count exceeds frame");
  }
  req.items.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    JOINOPT_ASSIGN_OR_RETURN(Key key, r.GetU64());
    JOINOPT_ASSIGN_OR_RETURN(std::string params, r.GetString());
    req.items.emplace_back(key, std::move(params));
  }
  if (!r.Done()) return BadFrame("trailing bytes in batch request");
  return req;
}

std::string EncodePutRequest(Key key, std::string_view value,
                             uint64_t version_floor) {
  std::string out;
  PutU64(&out, key);
  PutString(&out, value);
  PutU64(&out, version_floor);
  return out;
}

StatusOr<PutRequest> DecodePutRequest(std::string_view body) {
  WireReader r(body);
  PutRequest req;
  JOINOPT_ASSIGN_OR_RETURN(req.key, r.GetU64());
  JOINOPT_ASSIGN_OR_RETURN(req.value, r.GetString());
  JOINOPT_ASSIGN_OR_RETURN(req.version_floor, r.GetU64());
  if (!r.Done()) return BadFrame("trailing bytes in put request");
  return req;
}

std::string EncodeSubscribeRequest(NodeId subscriber) {
  std::string out;
  PutU32(&out, static_cast<uint32_t>(subscriber));
  return out;
}

StatusOr<NodeId> DecodeSubscribeRequest(std::string_view body) {
  WireReader r(body);
  JOINOPT_ASSIGN_OR_RETURN(uint32_t node, r.GetU32());
  if (!r.Done()) return BadFrame("trailing bytes in subscribe request");
  return static_cast<NodeId>(node);
}

std::string EncodeSubscribeResponse(const std::vector<RegionEpoch>& regions) {
  std::string out;
  PutU32(&out, static_cast<uint32_t>(regions.size()));
  for (const RegionEpoch& re : regions) {
    PutU32(&out, static_cast<uint32_t>(re.region));
    PutU64(&out, re.epoch);
    PutU64(&out, re.seq);
  }
  return out;
}

StatusOr<std::vector<RegionEpoch>> DecodeSubscribeResponse(
    std::string_view body) {
  WireReader r(body);
  JOINOPT_ASSIGN_OR_RETURN(uint32_t count, r.GetU32());
  // Each entry is exactly 20 bytes; a lying count is a corrupt frame.
  if (static_cast<size_t>(count) * 20 > r.remaining()) {
    return BadFrame("region count exceeds frame");
  }
  std::vector<RegionEpoch> regions;
  regions.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    RegionEpoch re;
    JOINOPT_ASSIGN_OR_RETURN(uint32_t region, r.GetU32());
    re.region = static_cast<int32_t>(region);
    JOINOPT_ASSIGN_OR_RETURN(re.epoch, r.GetU64());
    JOINOPT_ASSIGN_OR_RETURN(re.seq, r.GetU64());
    regions.push_back(re);
  }
  if (!r.Done()) return BadFrame("trailing bytes in subscribe response");
  return regions;
}

std::string EncodeNotifyEvent(const UpdateEvent& event) {
  std::string out;
  PutU32(&out, static_cast<uint32_t>(event.region));
  PutU64(&out, event.epoch);
  PutU64(&out, event.seq);
  PutU64(&out, event.key);
  PutU64(&out, event.version);
  return out;
}

StatusOr<UpdateEvent> DecodeNotifyEvent(std::string_view body) {
  WireReader r(body);
  UpdateEvent event;
  JOINOPT_ASSIGN_OR_RETURN(uint32_t region, r.GetU32());
  event.region = static_cast<int32_t>(region);
  JOINOPT_ASSIGN_OR_RETURN(event.epoch, r.GetU64());
  JOINOPT_ASSIGN_OR_RETURN(event.seq, r.GetU64());
  JOINOPT_ASSIGN_OR_RETURN(event.key, r.GetU64());
  JOINOPT_ASSIGN_OR_RETURN(event.version, r.GetU64());
  if (!r.Done()) return BadFrame("trailing bytes in notify event");
  return event;
}

void PutStatus(std::string* out, const Status& status) {
  PutU8(out, static_cast<uint8_t>(status.code()));
  PutString(out, status.message());
}

Status GetStatus(WireReader& r, Status* out) {
  JOINOPT_ASSIGN_OR_RETURN(uint8_t code, r.GetU8());
  JOINOPT_ASSIGN_OR_RETURN(std::string message, r.GetString());
  if (code == 0 || code > static_cast<uint8_t>(StatusCode::kAborted)) {
    // An OK code in an error slot, or a code from a newer peer: surface as
    // internal rather than minting a bogus success.
    *out = Status::Internal("wire: unrepresentable status code (" +
                            std::move(message) + ")");
  } else {
    *out = Status(static_cast<StatusCode>(code), std::move(message));
  }
  return Status::OK();
}

namespace {

constexpr uint8_t kTagError = 0;
constexpr uint8_t kTagOk = 1;

StatusOr<bool> GetResultTag(WireReader& r) {
  JOINOPT_ASSIGN_OR_RETURN(uint8_t tag, r.GetU8());
  if (tag != kTagOk && tag != kTagError) return BadFrame("bad result tag");
  return tag == kTagOk;
}

}  // namespace

std::string EncodeFetchResponse(const StatusOr<DataService::Fetched>& result) {
  std::string out;
  if (result.ok()) {
    PutU8(&out, kTagOk);
    PutU64(&out, result->version);
    PutString(&out, result->value);
  } else {
    PutU8(&out, kTagError);
    PutStatus(&out, result.status());
  }
  return out;
}

StatusOr<StatusOr<DataService::Fetched>> DecodeFetchResponse(
    std::string_view body) {
  WireReader r(body);
  JOINOPT_ASSIGN_OR_RETURN(bool ok, GetResultTag(r));
  StatusOr<DataService::Fetched> result = Status::Internal("uninitialized");
  if (ok) {
    DataService::Fetched fetched;
    JOINOPT_ASSIGN_OR_RETURN(fetched.version, r.GetU64());
    JOINOPT_ASSIGN_OR_RETURN(fetched.value, r.GetString());
    result = std::move(fetched);
  } else {
    Status status;
    JOINOPT_RETURN_NOT_OK(GetStatus(r, &status));
    result = std::move(status);
  }
  if (!r.Done()) return BadFrame("trailing bytes in fetch response");
  return result;
}

namespace {

/// One compute result without the trailing-bytes check (the batch codec
/// writes and reads many in sequence).
void PutComputeResult(std::string* out, const ComputeResult& result) {
  if (!result.value.ok()) {
    PutU8(out, kTagError);
    PutStatus(out, result.value.status());
    return;
  }
  PutU8(out, kTagOk);
  PutString(out, *result.value);
  PutU8(out, result.stat.has_value() ? 1 : 0);
  if (result.stat.has_value()) {
    PutF64(out, result.stat->size_bytes);
    PutU64(out, result.stat->version);
  }
}

StatusOr<ComputeResult> GetComputeResult(WireReader& r) {
  JOINOPT_ASSIGN_OR_RETURN(bool ok, GetResultTag(r));
  if (!ok) {
    Status status;
    JOINOPT_RETURN_NOT_OK(GetStatus(r, &status));
    return ComputeResult{std::move(status), std::nullopt};
  }
  JOINOPT_ASSIGN_OR_RETURN(std::string value, r.GetString());
  ComputeResult result{std::move(value), std::nullopt};
  JOINOPT_ASSIGN_OR_RETURN(uint8_t present, r.GetU8());
  if (present > 1) return BadFrame("bad stat present flag");
  if (present == 1) {
    DataService::ItemStat stat;
    JOINOPT_ASSIGN_OR_RETURN(stat.size_bytes, r.GetF64());
    JOINOPT_ASSIGN_OR_RETURN(stat.version, r.GetU64());
    result.stat = stat;
  }
  return result;
}

}  // namespace

std::string EncodeExecuteResponse(const ComputeResult& result) {
  std::string out;
  PutComputeResult(&out, result);
  return out;
}

StatusOr<ComputeResult> DecodeExecuteResponse(std::string_view body) {
  WireReader r(body);
  JOINOPT_ASSIGN_OR_RETURN(ComputeResult result, GetComputeResult(r));
  if (!r.Done()) return BadFrame("trailing bytes in execute response");
  return result;
}

std::string EncodeBatchResponse(const std::vector<ComputeResult>& results) {
  std::string out;
  PutU32(&out, static_cast<uint32_t>(results.size()));
  for (const ComputeResult& result : results) PutComputeResult(&out, result);
  return out;
}

StatusOr<std::vector<ComputeResult>> DecodeBatchResponse(
    std::string_view body) {
  WireReader r(body);
  JOINOPT_ASSIGN_OR_RETURN(uint32_t count, r.GetU32());
  // At least 6 bytes per result: an error is tag + code + empty message
  // length, an ok result tag + empty string length + stat flag.
  if (static_cast<size_t>(count) * 6 > r.remaining()) {
    return BadFrame("batch result count exceeds frame");
  }
  std::vector<ComputeResult> results;
  results.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    JOINOPT_ASSIGN_OR_RETURN(ComputeResult result, GetComputeResult(r));
    results.push_back(std::move(result));
  }
  if (!r.Done()) return BadFrame("trailing bytes in batch response");
  return results;
}

std::string EncodeStatResponse(const StatusOr<DataService::ItemStat>& result) {
  std::string out;
  if (result.ok()) {
    PutU8(&out, kTagOk);
    PutF64(&out, result->size_bytes);
    PutU64(&out, result->version);
  } else {
    PutU8(&out, kTagError);
    PutStatus(&out, result.status());
  }
  return out;
}

StatusOr<StatusOr<DataService::ItemStat>> DecodeStatResponse(
    std::string_view body) {
  WireReader r(body);
  JOINOPT_ASSIGN_OR_RETURN(bool ok, GetResultTag(r));
  StatusOr<DataService::ItemStat> result = Status::Internal("uninitialized");
  if (ok) {
    DataService::ItemStat stat;
    JOINOPT_ASSIGN_OR_RETURN(stat.size_bytes, r.GetF64());
    JOINOPT_ASSIGN_OR_RETURN(stat.version, r.GetU64());
    result = stat;
  } else {
    Status status;
    JOINOPT_RETURN_NOT_OK(GetStatus(r, &status));
    result = std::move(status);
  }
  if (!r.Done()) return BadFrame("trailing bytes in stat response");
  return result;
}

std::string EncodeOwnerResponse(NodeId node) {
  std::string out;
  PutU32(&out, static_cast<uint32_t>(node));
  return out;
}

StatusOr<NodeId> DecodeOwnerResponse(std::string_view body) {
  WireReader r(body);
  JOINOPT_ASSIGN_OR_RETURN(uint32_t node, r.GetU32());
  if (!r.Done()) return BadFrame("trailing bytes in owner response");
  return static_cast<NodeId>(node);
}

std::string EncodePutResponse(const StatusOr<uint64_t>& new_version) {
  std::string out;
  if (new_version.ok()) {
    PutU8(&out, kTagOk);
    PutU64(&out, *new_version);
  } else {
    PutU8(&out, kTagError);
    PutStatus(&out, new_version.status());
  }
  return out;
}

StatusOr<StatusOr<uint64_t>> DecodePutResponse(std::string_view body) {
  WireReader r(body);
  JOINOPT_ASSIGN_OR_RETURN(bool ok, GetResultTag(r));
  StatusOr<uint64_t> result = Status::Internal("uninitialized");
  if (ok) {
    JOINOPT_ASSIGN_OR_RETURN(uint64_t version, r.GetU64());
    result = version;
  } else {
    Status status;
    JOINOPT_RETURN_NOT_OK(GetStatus(r, &status));
    result = std::move(status);
  }
  if (!r.Done()) return BadFrame("trailing bytes in put response");
  return result;
}

namespace {

void PutRegionRecords(std::string* out,
                      const std::vector<RegionRecord>& records) {
  PutU32(out, static_cast<uint32_t>(records.size()));
  for (const RegionRecord& rec : records) {
    PutU64(out, rec.key);
    PutU64(out, rec.version);
    PutString(out, rec.value);
  }
}

StatusOr<std::vector<RegionRecord>> GetRegionRecords(WireReader& r) {
  JOINOPT_ASSIGN_OR_RETURN(uint32_t count, r.GetU32());
  // Each record is at least 20 bytes (key + version + empty string).
  if (static_cast<size_t>(count) * 20 > r.remaining()) {
    return BadFrame("record count exceeds frame");
  }
  std::vector<RegionRecord> records;
  records.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    RegionRecord rec;
    JOINOPT_ASSIGN_OR_RETURN(rec.key, r.GetU64());
    JOINOPT_ASSIGN_OR_RETURN(rec.version, r.GetU64());
    JOINOPT_ASSIGN_OR_RETURN(rec.value, r.GetString());
    records.push_back(std::move(rec));
  }
  return records;
}

}  // namespace

std::string EncodeRegionSummaryRequest(int32_t region) {
  std::string out;
  PutU32(&out, static_cast<uint32_t>(region));
  return out;
}

StatusOr<int32_t> DecodeRegionSummaryRequest(std::string_view body) {
  WireReader r(body);
  JOINOPT_ASSIGN_OR_RETURN(uint32_t region, r.GetU32());
  if (!r.Done()) return BadFrame("trailing bytes in summary request");
  return static_cast<int32_t>(region);
}

std::string EncodeRegionSummaryResponse(
    const StatusOr<RegionSummary>& result) {
  std::string out;
  if (result.ok()) {
    PutU8(&out, kTagOk);
    PutU32(&out, static_cast<uint32_t>(result->region));
    PutU64(&out, result->epoch);
    PutU64(&out, result->seq);
    PutU64(&out, result->count);
    PutU64(&out, result->checksum);
  } else {
    PutU8(&out, kTagError);
    PutStatus(&out, result.status());
  }
  return out;
}

StatusOr<StatusOr<RegionSummary>> DecodeRegionSummaryResponse(
    std::string_view body) {
  WireReader r(body);
  JOINOPT_ASSIGN_OR_RETURN(bool ok, GetResultTag(r));
  StatusOr<RegionSummary> result = Status::Internal("uninitialized");
  if (ok) {
    RegionSummary s;
    JOINOPT_ASSIGN_OR_RETURN(uint32_t region, r.GetU32());
    s.region = static_cast<int32_t>(region);
    JOINOPT_ASSIGN_OR_RETURN(s.epoch, r.GetU64());
    JOINOPT_ASSIGN_OR_RETURN(s.seq, r.GetU64());
    JOINOPT_ASSIGN_OR_RETURN(s.count, r.GetU64());
    JOINOPT_ASSIGN_OR_RETURN(s.checksum, r.GetU64());
    result = s;
  } else {
    Status status;
    JOINOPT_RETURN_NOT_OK(GetStatus(r, &status));
    result = std::move(status);
  }
  if (!r.Done()) return BadFrame("trailing bytes in summary response");
  return result;
}

std::string EncodeRegionSyncRequest(
    int32_t region, const std::vector<RegionRecord>& records) {
  std::string out;
  PutU32(&out, static_cast<uint32_t>(region));
  PutRegionRecords(&out, records);
  return out;
}

StatusOr<RegionSyncRequest> DecodeRegionSyncRequest(std::string_view body) {
  WireReader r(body);
  RegionSyncRequest req;
  JOINOPT_ASSIGN_OR_RETURN(uint32_t region, r.GetU32());
  req.region = static_cast<int32_t>(region);
  JOINOPT_ASSIGN_OR_RETURN(req.records, GetRegionRecords(r));
  if (!r.Done()) return BadFrame("trailing bytes in sync request");
  return req;
}

std::string EncodeRegionSyncResponse(
    const StatusOr<std::vector<RegionRecord>>& result) {
  std::string out;
  if (result.ok()) {
    PutU8(&out, kTagOk);
    PutRegionRecords(&out, *result);
  } else {
    PutU8(&out, kTagError);
    PutStatus(&out, result.status());
  }
  return out;
}

StatusOr<StatusOr<std::vector<RegionRecord>>> DecodeRegionSyncResponse(
    std::string_view body) {
  WireReader r(body);
  JOINOPT_ASSIGN_OR_RETURN(bool ok, GetResultTag(r));
  StatusOr<std::vector<RegionRecord>> result =
      Status::Internal("uninitialized");
  if (ok) {
    JOINOPT_ASSIGN_OR_RETURN(result, GetRegionRecords(r));
  } else {
    Status status;
    JOINOPT_RETURN_NOT_OK(GetStatus(r, &status));
    result = std::move(status);
  }
  if (!r.Done()) return BadFrame("trailing bytes in sync response");
  return result;
}

}  // namespace joinopt
