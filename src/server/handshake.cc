#include "server/handshake.h"

#include <algorithm>
#include <utility>

#include "util/bitio.h"

namespace rsr {
namespace server {

namespace {

void WriteString(const std::string& s, BitWriter* out) {
  out->WriteVarint(s.size());
  for (char c : s) out->WriteBits(static_cast<uint8_t>(c), 8);
}

bool ReadString(BitReader* in, size_t max_len, std::string* out) {
  uint64_t len = 0;
  if (!in->ReadVarint(&len) || len > max_len) return false;
  out->clear();
  out->reserve(len);
  for (uint64_t i = 0; i < len; ++i) {
    uint64_t c = 0;
    if (!in->ReadBits(8, &c)) return false;
    out->push_back(static_cast<char>(c));
  }
  return true;
}

// Optional trailing trace context (DESIGN.md §12). A presence bit leads
// the fields: BitWriter pads frames with zero bits, so a decoder probing
// past the end of an OLD frame reads the bit as 0 and correctly reports
// "no context" (a bare trailing varint would instead mis-decode the
// padding as a present-but-zero field). Old decoders never look this far
// and ignore the section entirely.
void WriteTrailingTrace(const obs::TraceContext& trace, BitWriter* out) {
  out->WriteBit(trace.valid());
  if (!trace.valid()) return;
  out->WriteBits(trace.trace_hi, 64);
  out->WriteBits(trace.trace_lo, 64);
  out->WriteVarint(trace.span_id);
}

// Never fails: an absent or truncated section yields the invalid
// (all-zero) context, which is exactly "this peer sent no context".
void ReadTrailingTrace(BitReader* in, obs::TraceContext* out) {
  *out = obs::TraceContext();
  bool present = false;
  if (!in->ReadBit(&present) || !present) return;
  obs::TraceContext trace;
  if (in->ReadBits(64, &trace.trace_hi) &&
      in->ReadBits(64, &trace.trace_lo) && in->ReadVarint(&trace.span_id) &&
      trace.valid()) {
    *out = trace;
  }
}

constexpr size_t kMaxStringLen = 4096;
// A rendered metrics registry is far bigger than any handshake string but
// still bounded (families x label sets x buckets); 4 MiB is generous.
constexpr size_t kMaxStatsTextLen = 4u << 20;
constexpr size_t kMaxListedProtocols = 4096;
constexpr uint64_t kMaxResultPoints = uint64_t{1} << 32;
constexpr uint64_t kMaxLogEntries = uint64_t{1} << 20;

}  // namespace

bool IsControlLabel(const std::string& label) {
  return !label.empty() && label[0] == '@';
}

transport::Message EncodeHello(const HelloFrame& hello) {
  BitWriter writer;
  WriteString(hello.protocol, &writer);
  writer.WriteVarint(hello.client_set_size);
  writer.WriteBit(hello.want_result_set);
  WriteTrailingTrace(hello.trace, &writer);
  return transport::MakeMessage(kHelloLabel, std::move(writer));
}

bool DecodeHello(const transport::Message& message, HelloFrame* out) {
  if (message.label != kHelloLabel) return false;
  BitReader reader(message.payload);
  if (!ReadString(&reader, kMaxStringLen, &out->protocol) ||
      !reader.ReadVarint(&out->client_set_size) ||
      !reader.ReadBit(&out->want_result_set)) {
    return false;
  }
  ReadTrailingTrace(&reader, &out->trace);
  return true;
}

transport::Message EncodeAccept(const AcceptFrame& accept) {
  BitWriter writer;
  WriteString(accept.protocol, &writer);
  writer.WriteVarint(accept.server_set_size);
  writer.WriteBit(accept.will_send_result_set);
  writer.WriteVarint(accept.generation);
  writer.WriteVarint(accept.replica_seq);
  return transport::MakeMessage(kAcceptLabel, std::move(writer));
}

bool DecodeAccept(const transport::Message& message, AcceptFrame* out) {
  if (message.label != kAcceptLabel) return false;
  BitReader reader(message.payload);
  if (!ReadString(&reader, kMaxStringLen, &out->protocol) ||
      !reader.ReadVarint(&out->server_set_size) ||
      !reader.ReadBit(&out->will_send_result_set)) {
    return false;
  }
  // Optional trailing fields: a server predating the sketch store ends the
  // frame before `generation`, one predating replication before
  // `replica_seq` — each decodes as 0 rather than a handshake failure, so
  // the schema changes stay wire-compatible in both directions (older
  // decoders simply ignore trailing payload bits).
  if (!reader.ReadVarint(&out->generation)) out->generation = 0;
  if (!reader.ReadVarint(&out->replica_seq)) out->replica_seq = 0;
  return true;
}

transport::Message EncodeReject(const RejectFrame& reject) {
  BitWriter writer;
  WriteString(reject.reason, &writer);
  writer.WriteVarint(reject.protocols.size());
  for (const std::string& name : reject.protocols) WriteString(name, &writer);
  return transport::MakeMessage(kRejectLabel, std::move(writer));
}

bool DecodeReject(const transport::Message& message, RejectFrame* out) {
  if (message.label != kRejectLabel) return false;
  BitReader reader(message.payload);
  if (!ReadString(&reader, kMaxStringLen, &out->reason)) return false;
  uint64_t count = 0;
  if (!reader.ReadVarint(&count) || count > kMaxListedProtocols) return false;
  out->protocols.clear();
  out->protocols.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    std::string name;
    if (!ReadString(&reader, kMaxStringLen, &name)) return false;
    out->protocols.push_back(std::move(name));
  }
  return true;
}

transport::Message EncodeResult(const ResultFrame& frame,
                                const Universe& universe,
                                const recon::RepairedSet& set) {
  const recon::ReconResult& r = frame.result;
  BitWriter writer;
  writer.WriteBit(r.success);
  writer.WriteBits(static_cast<uint64_t>(r.error), 8);
  writer.WriteSignedVarint(r.chosen_level);
  writer.WriteVarint(r.decoded_entries);
  writer.WriteVarint(r.attempts);
  writer.WriteVarint(r.transmitted);
  writer.WriteBit(frame.has_set);
  if (frame.has_set) {
    const size_t count = set.size();
    writer.WriteVarint(count);
    const int bits = universe.BitsPerCoord();
    writer.Pack(count * static_cast<size_t>(universe.BitsPerPoint()),
                [&](WordPacker& packer) {
                  set.ForEach(
                      [&](const Point& p) { PutPoint(p, bits, &packer); });
                });
  }
  return transport::MakeMessage(kResultLabel, std::move(writer));
}

bool DecodeResult(const transport::Message& message, const Universe& universe,
                  ResultFrame* out) {
  if (message.label != kResultLabel) return false;
  BitReader reader(message.payload);
  recon::ReconResult& r = out->result;
  uint64_t error_code = 0;
  int64_t chosen_level = 0;
  uint64_t decoded_entries = 0, attempts = 0, transmitted = 0;
  if (!reader.ReadBit(&r.success) || !reader.ReadBits(8, &error_code) ||
      !reader.ReadSignedVarint(&chosen_level) ||
      !reader.ReadVarint(&decoded_entries) || !reader.ReadVarint(&attempts) ||
      !reader.ReadVarint(&transmitted) || !reader.ReadBit(&out->has_set)) {
    return false;
  }
  if (error_code >
      static_cast<uint64_t>(recon::SessionError::kProtocolRejected)) {
    return false;
  }
  r.error = static_cast<recon::SessionError>(error_code);
  r.chosen_level = static_cast<int>(chosen_level);
  r.decoded_entries = static_cast<size_t>(decoded_entries);
  r.attempts = static_cast<size_t>(attempts);
  r.transmitted = static_cast<size_t>(transmitted);
  r.bob_final.clear();
  if (out->has_set) {
    uint64_t count = 0;
    if (!reader.ReadVarint(&count) || count > kMaxResultPoints) return false;
    // A count the remaining payload cannot possibly hold is malformed;
    // checking before the reserve keeps a hostile peer from forcing a
    // huge allocation with a small frame. The reserve is further capped
    // so memory grows with data actually decoded, not with the claim.
    const uint64_t per_point_bits =
        static_cast<uint64_t>(std::max(1, universe.BitsPerPoint()));
    if (count > reader.bits_remaining() / per_point_bits) return false;
    r.bob_final.reserve(std::min<uint64_t>(count, uint64_t{1} << 20));
    if (!UnpackPoints(universe, static_cast<size_t>(count), &reader,
                      &r.bob_final)) {
      return false;
    }
  }
  return true;
}

transport::Message EncodeLogFetch(const LogFetchFrame& fetch) {
  BitWriter writer;
  writer.WriteVarint(fetch.from_seq);
  writer.WriteVarint(fetch.max_entries);
  writer.WriteBit(fetch.want_strata);
  WriteTrailingTrace(fetch.trace, &writer);
  return transport::MakeMessage(kLogFetchLabel, std::move(writer));
}

bool DecodeLogFetch(const transport::Message& message, LogFetchFrame* out) {
  if (message.label != kLogFetchLabel) return false;
  BitReader reader(message.payload);
  if (!reader.ReadVarint(&out->from_seq) ||
      !reader.ReadVarint(&out->max_entries) ||
      !reader.ReadBit(&out->want_strata)) {
    return false;
  }
  ReadTrailingTrace(&reader, &out->trace);
  return true;
}

transport::Message EncodeLogBatch(const LogBatchFrame& batch,
                                  const Universe& universe) {
  BitWriter writer;
  writer.WriteBit(batch.ok);
  writer.WriteBit(batch.complete);
  writer.WriteVarint(batch.last_seq);
  writer.WriteVarint(batch.entries.size());
  for (const replica::ChangeEntry& entry : batch.entries) {
    writer.WriteVarint(entry.seq);
    writer.WriteVarint(entry.inserts.size());
    writer.WriteVarint(entry.erases.size());
    PackPoints(universe, entry.inserts, &writer);
    PackPoints(universe, entry.erases, &writer);
  }
  writer.WriteBit(batch.strata.has_value());
  if (batch.strata.has_value()) batch.strata->Serialize(&writer);
  // Trailing section (old decoders stop at the strata; both bits decode
  // as benign zeros from an old frame's padding): the server's dirty
  // flag, then the per-entry observability stamps behind a presence bit
  // so an unstamped batch costs one bit, not 3 varints per entry.
  writer.WriteBit(batch.dirty);
  bool any_meta = false;
  for (const replica::ChangeEntry& entry : batch.entries) {
    if (entry.append_micros != 0 || entry.trace_hi != 0 ||
        entry.trace_lo != 0) {
      any_meta = true;
      break;
    }
  }
  writer.WriteBit(any_meta);
  if (any_meta) {
    for (const replica::ChangeEntry& entry : batch.entries) {
      writer.WriteVarint(entry.append_micros);
      writer.WriteVarint(entry.trace_hi);
      writer.WriteVarint(entry.trace_lo);
    }
  }
  return transport::MakeMessage(kLogBatchLabel, std::move(writer));
}

bool DecodeLogBatch(const transport::Message& message,
                    const Universe& universe,
                    const StrataConfig& strata_config, LogBatchFrame* out) {
  if (message.label != kLogBatchLabel) return false;
  BitReader reader(message.payload);
  uint64_t count = 0;
  if (!reader.ReadBit(&out->ok) || !reader.ReadBit(&out->complete) ||
      !reader.ReadVarint(&out->last_seq) || !reader.ReadVarint(&count) ||
      count > kMaxLogEntries) {
    return false;
  }
  const uint64_t per_point_bits =
      static_cast<uint64_t>(std::max(1, universe.BitsPerPoint()));
  out->entries.clear();
  out->entries.reserve(std::min<uint64_t>(count, 4096));
  for (uint64_t i = 0; i < count; ++i) {
    replica::ChangeEntry entry;
    uint64_t inserts = 0, erases = 0;
    if (!reader.ReadVarint(&entry.seq) || !reader.ReadVarint(&inserts) ||
        !reader.ReadVarint(&erases)) {
      return false;
    }
    // Each count is bounded on its own: their sum can wrap past 2^64.
    const uint64_t budget = reader.bits_remaining() / per_point_bits;
    if (inserts > budget || erases > budget - inserts) return false;
    entry.inserts.reserve(inserts);
    entry.erases.reserve(erases);
    for (uint64_t j = 0; j < inserts + erases; ++j) {
      Point p;
      if (!UnpackPoint(universe, &reader, &p)) return false;
      (j < inserts ? entry.inserts : entry.erases).push_back(std::move(p));
    }
    out->entries.push_back(std::move(entry));
  }
  bool has_strata = false;
  if (!reader.ReadBit(&has_strata)) return false;
  out->strata.reset();
  if (has_strata) {
    out->strata = StrataEstimator::Deserialize(strata_config, &reader);
    if (!out->strata.has_value()) return false;
  }
  // Trailing section: absent on old frames (padding bits read as 0 —
  // not dirty, no stamps — matching old semantics). A set meta bit was
  // genuinely written (padding is never 1), so truncation after it is a
  // malformed frame.
  out->dirty = false;
  bool has_meta = false;
  if (!reader.ReadBit(&out->dirty)) return true;
  if (!reader.ReadBit(&has_meta) || !has_meta) return true;
  for (replica::ChangeEntry& entry : out->entries) {
    if (!reader.ReadVarint(&entry.append_micros) ||
        !reader.ReadVarint(&entry.trace_hi) ||
        !reader.ReadVarint(&entry.trace_lo)) {
      return false;
    }
  }
  return true;
}

transport::Message EncodePull(const PullFrame& pull) {
  BitWriter writer;
  WriteString(pull.protocol, &writer);
  writer.WriteVarint(pull.client_set_size);
  WriteTrailingTrace(pull.trace, &writer);
  return transport::MakeMessage(kPullLabel, std::move(writer));
}

bool DecodePull(const transport::Message& message, PullFrame* out) {
  if (message.label != kPullLabel) return false;
  BitReader reader(message.payload);
  if (!ReadString(&reader, kMaxStringLen, &out->protocol) ||
      !reader.ReadVarint(&out->client_set_size)) {
    return false;
  }
  ReadTrailingTrace(&reader, &out->trace);
  return true;
}

transport::Message EncodePullAccept(const PullAcceptFrame& accept) {
  BitWriter writer;
  WriteString(accept.protocol, &writer);
  writer.WriteVarint(accept.server_set_size);
  writer.WriteVarint(accept.seq);
  writer.WriteVarint(accept.generation);
  writer.WriteBit(accept.dirty);
  return transport::MakeMessage(kPullAcceptLabel, std::move(writer));
}

bool DecodePullAccept(const transport::Message& message,
                      PullAcceptFrame* out) {
  if (message.label != kPullAcceptLabel) return false;
  BitReader reader(message.payload);
  return ReadString(&reader, kMaxStringLen, &out->protocol) &&
         reader.ReadVarint(&out->server_set_size) &&
         reader.ReadVarint(&out->seq) && reader.ReadVarint(&out->generation) &&
         reader.ReadBit(&out->dirty);
}

transport::Message EncodeStatsRequest() {
  BitWriter writer;
  return transport::MakeMessage(kStatsLabel, std::move(writer));
}

transport::Message EncodeStatsReply(const std::string& text) {
  BitWriter writer;
  WriteString(text, &writer);
  return transport::MakeMessage(kStatsLabel, std::move(writer));
}

bool DecodeStatsReply(const transport::Message& message, std::string* out) {
  if (message.label != kStatsLabel) return false;
  BitReader reader(message.payload);
  return ReadString(&reader, kMaxStatsTextLen, out);
}

}  // namespace server
}  // namespace rsr
