// perfbench: one repetition of the corpus benchmark per process, so every
// repetition starts from a fresh heap and reports its own peak RSS.
//
//   perfbench corpus --seed=N --threads=T [--scale=S] [--trace]
//                    [--logs-dir=DIR] [--spans-out=FILE] [--flip-byte]
//
// perfbench/run.py drives it; see perfbench/README.md for the metrics.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "stages.h"

namespace {

bool Flag(const char* arg, const char* name, std::string& value) {
  const std::size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  value = arg + n + 1;
  return true;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench corpus [--seed=N] [--threads=T] [--scale=S] "
               "[--trace] [--logs-dir=DIR] [--spans-out=FILE] "
               "[--flip-byte]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string mode = argv[1];
  perfbench::Options o;
  for (int i = 2; i < argc; ++i) {
    std::string v;
    if (std::strcmp(argv[i], "--trace") == 0) {
      o.traced = true;
    } else if (std::strcmp(argv[i], "--flip-byte") == 0) {
      o.flip_byte = true;
    } else if (Flag(argv[i], "--seed", v)) {
      o.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (Flag(argv[i], "--threads", v)) {
      o.threads = std::atoi(v.c_str());
    } else if (Flag(argv[i], "--scale", v)) {
      o.scale_denominator = std::atoi(v.c_str());
    } else if (Flag(argv[i], "--logs-dir", v)) {
      o.logs_dir = v;
    } else if (Flag(argv[i], "--spans-out", v)) {
      o.spans_out = v;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return Usage();
    }
  }
  if (mode != "corpus" || o.threads < 1 || o.scale_denominator < 1) {
    return Usage();
  }
  return perfbench::RunCorpus(o);
}
