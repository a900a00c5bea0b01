#pragma once

// The one write path of the benches' BENCH_*.json artifacts: each is a JSON
// object opened by begin_artifact(), filled with the bench's members, and
// closed and written by write_artifact().

#include <cstdio>
#include <cstdlib>
#include <thread>

#include "common/json.hpp"

namespace caqr::bench {

// A writer inside the artifact's top-level object, whose first member
// records the host's hardware thread count.
inline json::Writer begin_artifact() {
  json::Writer w;
  w.begin_object();
  w.field("hardware_threads", std::thread::hardware_concurrency());
  return w;
}

// Closes the top-level object and writes it to `path`. A file that cannot be
// written ends the process with a non-zero status, so a stale artifact is
// never taken for a fresh one.
inline void write_artifact(const char* path, json::Writer& w) {
  w.end_object();
  if (!json::write_json_file(path, w.str())) {
    std::fprintf(stderr, "error: cannot write %s\n", path);
    std::exit(1);
  }
  std::printf("Wrote %s\n", path);
}

}  // namespace caqr::bench
