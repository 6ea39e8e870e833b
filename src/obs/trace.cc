#include "obs/trace.h"

#include "obs/format.h"

namespace iri::obs {

namespace {

void AppendEscaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          // "\u%04x" of a control character: 00 then two hex digits.
          constexpr char kHex[] = "0123456789abcdef";
          const auto byte = static_cast<unsigned char>(c);
          out += "\\u00";
          out += kHex[byte >> 4];
          out += kHex[byte & 0xF];
        } else {
          out += c;
        }
    }
  }
}

}  // namespace

TraceEvent::TraceEvent(Tracer* tracer, TimePoint now, std::string_view type)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  std::string& b = tracer_->buffer_;
  b += "{\"t_ns\":";
  AppendI64(b, now.nanos());
  b += ",\"ev\":\"";
  AppendEscaped(b, type);
  b += '"';
}

TraceEvent::~TraceEvent() {
  if (tracer_ == nullptr) return;
  tracer_->buffer_ += "}\n";
  ++tracer_->events_;
}

TraceEvent& TraceEvent::Str(std::string_view key, std::string_view value) {
  if (tracer_ == nullptr) return *this;
  std::string& b = tracer_->buffer_;
  b += ",\"";
  AppendEscaped(b, key);
  b += "\":\"";
  AppendEscaped(b, value);
  b += '"';
  return *this;
}

TraceEvent& TraceEvent::U64(std::string_view key, std::uint64_t value) {
  if (tracer_ == nullptr) return *this;
  std::string& b = tracer_->buffer_;
  b += ",\"";
  AppendEscaped(b, key);
  b += "\":";
  AppendU64(b, value);
  return *this;
}

TraceEvent& TraceEvent::I64(std::string_view key, std::int64_t value) {
  if (tracer_ == nullptr) return *this;
  std::string& b = tracer_->buffer_;
  b += ",\"";
  AppendEscaped(b, key);
  b += "\":";
  AppendI64(b, value);
  return *this;
}

}  // namespace iri::obs
