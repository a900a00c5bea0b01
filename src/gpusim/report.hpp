#pragma once

// Timeline reporting helpers: render a Device's per-kernel profile as an
// aligned table (what the examples and benches print) or CSV, and export
// the resolved stream timeline as chrome://tracing JSON.

#include <cstdio>
#include <span>
#include <string>

#include "common/json.hpp"
#include "common/profile.hpp"
#include "common/table.hpp"
#include "gpusim/device.hpp"

namespace caqr::gpusim {

// Per-kernel table sorted by name: launches, blocks, simulated ms, share of
// total, achieved GFLOP/s (0 for non-arithmetic entries).
inline TextTable profile_table(const Device& dev) {
  TextTable table({"kernel", "launches", "blocks", "ms", "share", "GFLOP/s"});
  const double total = dev.elapsed_seconds();
  for (const auto& p : dev.profiles()) {
    char share[16];
    std::snprintf(share, sizeof(share), "%.1f%%",
                  total > 0 ? 100.0 * p.seconds / total : 0.0);
    table.cell(p.name)
        .cell(p.launches)
        .cell(p.blocks)
        .cell(p.seconds * 1e3, 3)
        .cell(std::string(share))
        .cell(p.gflops(), 1)
        .end_row();
  }
  return table;
}

inline std::string profile_csv(const Device& dev) {
  return profile_table(dev).to_csv();
}

inline void print_profile(const Device& dev) { profile_table(dev).print(); }

// Chrome-trace ("chrome://tracing" / Perfetto) export of resolved stream
// timelines: the "displayTimeUnit" and "traceEvents" members of a trace
// document, one complete event ("ph":"X") per launch with pid = the
// device's index in `devices`, tid = stream id, and timestamps/durations in
// microseconds. Load the file in chrome://tracing or ui.perfetto.dev to see
// the per-stream overlap. A one-device trace is process 0; a grid trace
// (dist::write_grid_trace) is one process per device.
inline void write_trace_events(json::Writer& w,
                               std::span<const Device> devices) {
  w.field("displayTimeUnit", "ms").key("traceEvents").begin_array();
  for (std::size_t d = 0; d < devices.size(); ++d) {
    for (const auto& e : devices[d].trace()) {
      w.begin_object().field("name", e.name).field("cat", "kernel");
      w.field("ph", "X").field("pid", d).field("tid", e.stream);
      w.field("ts", e.t_start * 1e6).field("dur", (e.t_end - e.t_start) * 1e6);
      w.key("args").begin_object().field("blocks", e.blocks);
      w.field("flops", e.flops).field("gmem_bytes", e.gmem_bytes);
      w.end_object().end_object();
    }
  }
  w.end_array();
}

// The members of `dev`'s trace document.
//
// `other_data`, when non-empty, must be a JSON value; it is embedded under
// the trace-format "otherData" key (tooling ignores unknown top-level keys),
// which is where the benches attach their Verifier reports so every
// BENCH_*.json artifact carries the residuals of the run it timed.
//
// `host_profile` additionally embeds a point-in-time snapshot of the host
// profiling registry (common/profile.hpp: per-stage host nanoseconds, lock
// waits, process-wide allocation counts) under a "hostProfile" key, so a
// trace of a simulated timeline also records the host cost of producing it.
// Off by default: the snapshot is live data, so two calls would not be
// byte-identical.
inline void write_trace(json::Writer& w, const Device& dev,
                        const std::string& other_data = "",
                        bool host_profile = false) {
  write_trace_events(w, {&dev, 1});
  if (!other_data.empty()) w.key("otherData").raw(other_data);
  if (host_profile) w.key("hostProfile").raw(prof::to_json());
}

// `dev`'s trace as one JSON document (see write_trace).
inline std::string trace_json(const Device& dev,
                              const std::string& other_data = "",
                              bool host_profile = false) {
  json::Writer w;
  w.begin_object();
  write_trace(w, dev, other_data, host_profile);
  w.end_object();
  return w.str();
}

}  // namespace caqr::gpusim
