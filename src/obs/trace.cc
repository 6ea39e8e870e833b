#include "obs/trace.h"

#include <cstdio>

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
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

void AppendU64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  out += buf;
}

void AppendI64(std::string& out, std::int64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  out += buf;
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
