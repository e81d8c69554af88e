#include "obs/trace.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"

namespace rsr {
namespace obs {

namespace {

std::string EscapeJson(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

double SecondsBetween(std::chrono::steady_clock::time_point from,
                      std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

}  // namespace

FileTraceSink::FileTraceSink(const std::string& path)
    : file_(std::fopen(path.c_str(), "a")) {}

FileTraceSink::~FileTraceSink() {
  if (file_ != nullptr) std::fclose(file_);
}

void FileTraceSink::Emit(const std::string& json_line) {
  MutexLock lock(mu_);
  if (file_ == nullptr) return;
  std::fputs(json_line.c_str(), file_);
  std::fputc('\n', file_);
  std::fflush(file_);
}

void VectorTraceSink::Emit(const std::string& json_line) {
  MutexLock lock(mu_);
  lines_.push_back(json_line);
}

std::vector<std::string> VectorTraceSink::lines() const {
  MutexLock lock(mu_);
  return lines_;
}

SessionSpan::SessionSpan(TraceSink* sink, std::string kind)
    : sink_(sink),
      kind_(std::move(kind)),
      start_(std::chrono::steady_clock::now()),
      phase_start_(start_) {}

void SessionSpan::set_protocol(const std::string& protocol) {
  if (sink_ == nullptr) return;
  protocol_ = protocol;
}

void SessionSpan::set_outcome(const std::string& outcome) {
  if (sink_ == nullptr) return;
  outcome_ = outcome;
}

void SessionSpan::SetTrace(const TraceContext& ctx, uint64_t parent_span_id) {
  if (sink_ == nullptr) return;
  trace_ = ctx;
  parent_span_id_ = parent_span_id;
}

void SessionSpan::SetSampling(const TraceSamplingPolicy* policy,
                              Counter* emitted, Counter* dropped) {
  if (sink_ == nullptr) return;
  sampling_ = policy;
  sample_emitted_ = emitted;
  sample_dropped_ = dropped;
}

void SessionSpan::SetAttr(const char* key, const std::string& value) {
  if (sink_ == nullptr) return;
  attrs_.emplace_back(key, value);
}

void SessionSpan::AddLink(uint64_t trace_hi, uint64_t trace_lo) {
  if (sink_ == nullptr) return;
  const std::pair<uint64_t, uint64_t> link(trace_hi, trace_lo);
  if (std::find(links_.begin(), links_.end(), link) != links_.end()) return;
  links_.push_back(link);
}

void SessionSpan::CloseOpenPhase() {
  if (!phase_open_) return;
  Phase& phase = phases_.back();
  const auto now = std::chrono::steady_clock::now();
  phase.seconds = SecondsBetween(phase_start_, now);
  phase.frames_in = frames_in_ - settled_frames_in_;
  phase.frames_out = frames_out_ - settled_frames_out_;
  phase.bytes_in = bytes_in_ - settled_bytes_in_;
  phase.bytes_out = bytes_out_ - settled_bytes_out_;
  settled_frames_in_ = frames_in_;
  settled_frames_out_ = frames_out_;
  settled_bytes_in_ = bytes_in_;
  settled_bytes_out_ = bytes_out_;
  phase_open_ = false;
}

void SessionSpan::BeginPhase(const char* name) {
  if (sink_ == nullptr || finished_) return;
  CloseOpenPhase();
  phases_.emplace_back();
  phases_.back().name = name;
  phase_start_ = std::chrono::steady_clock::now();
  phase_open_ = true;
}

void SessionSpan::AddFrameIn(uint64_t bytes) {
  if (sink_ == nullptr) return;
  ++frames_in_;
  bytes_in_ += bytes;
}

void SessionSpan::AddFrameOut(uint64_t bytes) {
  if (sink_ == nullptr) return;
  ++frames_out_;
  bytes_out_ += bytes;
}

void SessionSpan::Finish() {
  if (sink_ == nullptr || finished_) return;
  finished_ = true;
  CloseOpenPhase();
  const double wall =
      SecondsBetween(start_, std::chrono::steady_clock::now());
  if (sampling_ != nullptr) {
    const bool always = outcome_ != "ok" ||
                        (sampling_->always_over_seconds > 0.0 &&
                         wall >= sampling_->always_over_seconds);
    if (!always && !ShouldSampleSpan(trace_.trace_lo ^ trace_.span_id,
                                     sampling_->sample_rate)) {
      if (sample_dropped_ != nullptr) sample_dropped_->Inc();
      return;
    }
  }
  if (sample_emitted_ != nullptr) sample_emitted_->Inc();
  char buf[256];
  std::string line = "{\"span\":\"" + EscapeJson(kind_) + "\"";
  if (trace_.valid()) {
    line += ",\"trace\":\"" + TraceIdHex(trace_.trace_hi, trace_.trace_lo) +
            "\",\"span_id\":\"" + SpanIdHex(trace_.span_id) + "\"";
    if (parent_span_id_ != 0) {
      line += ",\"parent\":\"" + SpanIdHex(parent_span_id_) + "\"";
    }
  }
  if (!protocol_.empty()) {
    line += ",\"protocol\":\"" + EscapeJson(protocol_) + "\"";
  }
  line += ",\"outcome\":\"" + EscapeJson(outcome_) + "\"";
  std::snprintf(buf, sizeof buf,
                ",\"wall_ms\":%.3f,\"frames_in\":%llu,\"frames_out\":%llu,"
                "\"bytes_in\":%llu,\"bytes_out\":%llu,\"phases\":[",
                1e3 * wall, static_cast<unsigned long long>(frames_in_),
                static_cast<unsigned long long>(frames_out_),
                static_cast<unsigned long long>(bytes_in_),
                static_cast<unsigned long long>(bytes_out_));
  line += buf;
  for (size_t i = 0; i < phases_.size(); ++i) {
    const Phase& phase = phases_[i];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"ms\":%.3f,\"frames_in\":%llu,"
                  "\"frames_out\":%llu,\"bytes_in\":%llu,\"bytes_out\":%llu}",
                  i == 0 ? "" : ",", phase.name, 1e3 * phase.seconds,
                  static_cast<unsigned long long>(phase.frames_in),
                  static_cast<unsigned long long>(phase.frames_out),
                  static_cast<unsigned long long>(phase.bytes_in),
                  static_cast<unsigned long long>(phase.bytes_out));
    line += buf;
  }
  line += "]";
  for (const auto& attr : attrs_) {
    line += ",\"attr.";
    line += attr.first;
    line += "\":\"";
    line += EscapeJson(attr.second);
    line += '"';
  }
  if (!links_.empty()) {
    line += ",\"links\":[";
    for (size_t i = 0; i < links_.size(); ++i) {
      if (i != 0) line += ",";
      // Appended in place: `"\"" + s + "\""` draws GCC 12's -Wrestrict
      // false positive at -O3.
      line += '"';
      line += TraceIdHex(links_[i].first, links_[i].second);
      line += '"';
    }
    line += "]";
  }
  line += "}";
  sink_->Emit(line);
}

}  // namespace obs
}  // namespace rsr
