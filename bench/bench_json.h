// Shared BENCH_*.json emitter for the bench mains that hand-write their
// artifacts (parallel_scaling, full_paper). micro_perf delegates to
// google-benchmark's own JSON writer; everything else goes through this so
// the shape tools/bench/compare.py parses is produced in exactly one place
// (tests/bench_json_test.cc pins it).
//
// Output discipline: 2-space indent, one field per line, keys in call
// order, fixed-precision doubles — so committed baselines under
// bench/baseline/ diff cleanly run over run.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace iri::bench {

// Writes `text` to `path`, replacing it. Every step is checked: a full disk
// or a failed close reports "write to <path> failed" and returns false.
inline bool WriteTextFile(const std::string& path, std::string_view text) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  ok = std::fclose(f) == 0 && ok;
  if (!ok) std::fprintf(stderr, "write to %s failed\n", path.c_str());
  return ok;
}

class JsonWriter {
 public:
  JsonWriter() { out_.reserve(512); }

  // `key == nullptr` for array elements and the top-level object. A
  // `compact` object is emitted on a single line (the per-run rows of a
  // "runs" array), everything else one field per line.
  JsonWriter& BeginObject(const char* key = nullptr, bool compact = false) {
    Prefix(key);
    out_ += '{';
    stack_.push_back({'}', compact, false});
    return *this;
  }
  JsonWriter& EndObject() { return Close(); }

  JsonWriter& BeginArray(const char* key = nullptr) {
    Prefix(key);
    out_ += '[';
    stack_.push_back({']', false, false});
    return *this;
  }
  JsonWriter& EndArray() { return Close(); }

  JsonWriter& Field(const char* key, const char* value) {
    Prefix(key);
    out_ += '"';
    out_ += value;
    out_ += '"';
    return *this;
  }
  JsonWriter& Field(const char* key, bool value) {
    Prefix(key);
    out_ += value ? "true" : "false";
    return *this;
  }
  JsonWriter& Field(const char* key, int value) {
    return Field(key, static_cast<long long>(value));
  }
  JsonWriter& Field(const char* key, long long value) {
    Prefix(key);
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", value);
    out_ += buf;
    return *this;
  }
  JsonWriter& Field(const char* key, std::uint64_t value) {
    Prefix(key);
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(value));
    out_ += buf;
    return *this;
  }
  // Doubles are emitted at a caller-chosen fixed precision: full float
  // precision churns every committed baseline byte-for-byte on each rerun.
  JsonWriter& Field(const char* key, double value, int decimals = 3) {
    Prefix(key);
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
    out_ += buf;
    return *this;
  }

  // Valid once every Begin* has been Closed.
  const std::string& str() const { return out_; }

  bool WriteFile(const std::string& path) const {
    return WriteTextFile(path, out_ + '\n');
  }

 private:
  struct Level {
    char close;
    bool compact;
    bool has_items;
  };

  void Prefix(const char* key) {
    if (!stack_.empty()) {
      Level& level = stack_.back();
      if (level.compact) {
        if (level.has_items) out_ += ", ";
      } else {
        out_ += level.has_items ? ",\n" : "\n";
        out_.append(2 * stack_.size(), ' ');
      }
      level.has_items = true;
    }
    if (key != nullptr) {
      out_ += '"';
      out_ += key;
      out_ += "\": ";
    }
  }

  JsonWriter& Close() {
    const Level level = stack_.back();
    stack_.pop_back();
    if (!level.compact && level.has_items) {
      out_ += '\n';
      out_.append(2 * stack_.size(), ' ');
    }
    out_ += level.close;
    return *this;
  }

  std::string out_;
  std::vector<Level> stack_;
};

}  // namespace iri::bench
