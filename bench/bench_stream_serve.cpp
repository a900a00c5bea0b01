// E22 — Streaming service: sliding-window update cost, multi-tenant
// sustain, and migration bit-identity.
//
// Three studies over the src/stream/ subsystem:
//
//   1. Amortized update vs full refactor, ModelOnly on the modeled A100, at
//      the ISSUE shape: a 10240 x 64 window (64 frames x 160 rows). The
//      steady-state per-frame cost of SlidingWindowQr (evict + append +
//      read R: one panel factor + amortized O(1) combines) against
//      rebuilding the whole window from its 64 retained blocks every frame.
//      GATE: >= 5x.
//   2. Concurrent-stream sustain: 64 streams (quick: 16) through
//      StreamServer / serve::SolverPool on 8 modeled A100 workers. Every
//      frame must complete (no expiry/shed), and the simulated device time
//      must be FEASIBLE at each stream's frame rate: per 1/fps round, the
//      per-device share of the round's simulated seconds and the largest
//      single frame must both fit in the frame period. Mixed fair-share
//      weights (last quarter of the tenants at 0.5) exercise the DRR
//      starvation counters; per-stream latency percentiles come from the
//      prof::histogram registry. GATE: sustained at the full stream count.
//   3. Migration bit-identity (Functional): run a stream, checkpoint at
//      half, resume, finish; the window R and the final frame's L/S must be
//      bitwise equal to the uninterrupted run. GATE: bit_identical.
//
// Writes BENCH_stream_serve.json with an "acceptance" block; exit status is
// nonzero when any gate fails — CI gates on it.
//
// Flags: --quick (16 streams, fewer rounds)  --seed

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_artifact.hpp"
#include "common/cli.hpp"
#include "common/profile.hpp"
#include "gpusim/device.hpp"
#include "stream/online_rpca.hpp"
#include "stream/sliding_window_qr.hpp"
#include "stream/stream_serve.hpp"

namespace {

using namespace caqr;

// ------------------------------------------------- study 1: update cost

struct UpdateResult {
  idx window_rows = 0, cols = 0, frames = 0;
  double amortized_seconds = 0;  // steady-state evict+append+R per frame
  double refactor_seconds = 0;   // from-scratch window rebuild per frame
  double speedup = 0;
  long long factors = 0, combines = 0, flips = 0;
};

UpdateResult run_update_study() {
  const idx cols = 64, frame_rows = 160, frames = 64;
  const idx steady = 64;  // measured steady-state frames
  UpdateResult res;
  res.cols = cols;
  res.frames = frames;
  res.window_rows = frame_rows * frames;

  gpusim::Device dev(gpusim::GpuMachineModel::a100(),
                     gpusim::ExecMode::ModelOnly);
  const auto frame = Matrix<double>::shape_only(frame_rows, cols);

  stream::SlidingWindowQr<double> win(cols);
  for (idx f = 0; f < frames; ++f) win.append(dev, frame.view());
  (void)win.r(dev);

  const double t0 = dev.elapsed_seconds();
  for (idx f = 0; f < steady; ++f) {
    win.evict(dev);
    win.append(dev, frame.view());
    (void)win.r(dev);
  }
  res.amortized_seconds = (dev.elapsed_seconds() - t0) / steady;
  res.factors = win.factors();
  res.combines = win.combines();
  res.flips = win.flips();

  // Baseline: every frame re-factors the whole window from its retained
  // blocks (what a service without updating must do).
  const double t1 = dev.elapsed_seconds();
  {
    stream::SlidingWindowQr<double> scratch(cols);
    for (idx f = 0; f < frames; ++f) scratch.append(dev, frame.view());
    (void)scratch.r(dev);
  }
  res.refactor_seconds = dev.elapsed_seconds() - t1;
  res.speedup =
      res.amortized_seconds > 0 ? res.refactor_seconds / res.amortized_seconds
                                : 0;
  return res;
}

// --------------------------------------------- study 2: concurrent sustain

struct StreamRow {
  int id = 0;
  double weight = 1.0;
  long long frames = 0;
  double p50_ns = 0, p95_ns = 0, p99_ns = 0;
  double sim_seconds = 0;
  long long starved = 0;
};

struct ServeResult {
  int streams = 0, workers = 0, rounds = 0;
  double fps = 25.0;
  long long done = 0, expired = 0, shed = 0, rejected = 0;
  double max_frame_sim_seconds = 0;      // worst single frame, any round
  double worst_device_round_seconds = 0; // busiest per-device share, any round
  long long starved_rounds = 0;
  bool sustained = false;
  std::vector<StreamRow> per_stream;
};

ServeResult run_serve_study(int streams, int rounds, std::uint64_t seed) {
  ServeResult res;
  res.streams = streams;
  res.workers = 8;
  res.rounds = rounds;

  stream::StreamServeOptions opt;
  opt.pool.workers = res.workers;
  opt.pool.model = gpusim::GpuMachineModel::a100();
  opt.pool.mode = gpusim::ExecMode::ModelOnly;
  opt.pool.queue_capacity = static_cast<std::size_t>(streams) * 2;
  for (int s = 0; s < streams; ++s) {
    stream::StreamConfig cfg;
    cfg.id = s;
    cfg.seed = seed + static_cast<std::uint64_t>(s);
    cfg.rpca.cols = 64;
    cfg.rpca.frame_rows = 160;
    cfg.rpca.window_frames = 16;
    cfg.fps = res.fps;
    // Last quarter at half weight: exercises (and reports) DRR starvation.
    cfg.weight = s >= streams - streams / 4 ? 0.5 : 1.0;
    opt.streams.push_back(cfg);
  }
  stream::StreamServer<double> server(std::move(opt));

  std::vector<double> prev_sim(static_cast<std::size_t>(streams), 0.0);
  for (int r = 0; r < rounds; ++r) {
    const auto rr = server.run_round();
    res.done += rr.done;
    res.expired += rr.expired;
    res.shed += rr.shed;
    res.rejected += rr.rejected;
    res.max_frame_sim_seconds =
        std::max(res.max_frame_sim_seconds, rr.max_frame_sim_seconds);
    double round_sim = 0;
    for (int s = 0; s < streams; ++s) {
      const double now = server.stream_sim_seconds(static_cast<std::size_t>(s));
      round_sim += now - prev_sim[static_cast<std::size_t>(s)];
      prev_sim[static_cast<std::size_t>(s)] = now;
    }
    res.worst_device_round_seconds = std::max(
        res.worst_device_round_seconds, round_sim / res.workers);
  }
  server.pool().drain();
  const auto st = server.pool().stats();
  res.starved_rounds = st.starved_rounds;

  // Feasibility on the modeled A100: each 1/fps frame period must fit the
  // per-device share of a round AND the worst single frame.
  const double period = 1.0 / res.fps;
  res.sustained = res.done ==
                      static_cast<long long>(streams) * rounds &&
                  res.expired == 0 && res.shed == 0 && res.rejected == 0 &&
                  res.worst_device_round_seconds <= period &&
                  res.max_frame_sim_seconds <= period;

  for (int s = 0; s < streams; ++s) {
    StreamRow row;
    row.id = s;
    row.weight = server.stream(static_cast<std::size_t>(s)).config().weight;
    row.frames = server.stream(static_cast<std::size_t>(s)).frames_seen();
    row.sim_seconds = server.stream_sim_seconds(static_cast<std::size_t>(s));
    const auto& h = prof::histogram(
        stream::StreamServer<double>::latency_histogram_name(s));
    row.p50_ns = h.quantile(0.50);
    row.p95_ns = h.quantile(0.95);
    row.p99_ns = h.quantile(0.99);
    const auto it = st.tenant_starved.find(s);
    row.starved = it == st.tenant_starved.end() ? 0 : it->second;
    res.per_stream.push_back(row);
  }
  return res;
}

// ------------------------------------------- study 3: migration identity

bool run_migration_study(std::uint64_t seed) {
  stream::StreamConfig cfg;
  cfg.id = 1;
  cfg.seed = seed;
  cfg.rpca.cols = 16;
  cfg.rpca.frame_rows = 32;
  cfg.rpca.window_frames = 6;
  cfg.background_rank = 2;
  const int frames = 14, half = 7;
  const std::string path = "bench_stream_serve_migrate.ckpt";

  stream::CameraStream<double> golden(cfg);
  gpusim::Device gdev;
  stream::FrameOutput<double> golden_last;
  for (int i = 0; i < frames; ++i) golden_last = golden.step(gdev);

  stream::CameraStream<double> first(cfg);
  gpusim::Device devA;
  for (int i = 0; i < half; ++i) first.step(devA);
  if (!first.checkpoint_to(path)) return false;
  auto resumed = stream::CameraStream<double>::resume_from(cfg, path);
  std::remove(path.c_str());
  if (!resumed) return false;
  gpusim::Device devB;
  stream::FrameOutput<double> migrated_last;
  for (int i = half; i < frames; ++i) migrated_last = resumed->step(devB);

  const auto& r0 = golden.rpca().window().r(gdev);
  const auto& r1 = resumed->rpca().window().r(devB);
  if (r0.rows() != r1.rows() || r0.cols() != r1.cols()) return false;
  for (idx j = 0; j < r0.cols(); ++j) {
    if (std::memcmp(r0.view().col(j), r1.view().col(j),
                    sizeof(double) * static_cast<std::size_t>(r0.rows()))) {
      return false;
    }
  }
  for (idx j = 0; j < golden_last.low_rank.cols(); ++j) {
    if (std::memcmp(golden_last.low_rank.view().col(j),
                    migrated_last.low_rank.view().col(j),
                    sizeof(double) *
                        static_cast<std::size_t>(golden_last.low_rank.rows())))
      return false;
    if (std::memcmp(golden_last.sparse.view().col(j),
                    migrated_last.sparse.view().col(j),
                    sizeof(double) *
                        static_cast<std::size_t>(golden_last.sparse.rows())))
      return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const bool quick = args.get_bool("quick", false);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(args.get_int("seed", 20260809));
  const int streams = quick ? 16 : 64;
  const int rounds = quick ? 10 : 20;

  prof::reset();

  const UpdateResult up = run_update_study();
  std::printf(
      "Window update, %lld x %lld (A100 ModelOnly):\n"
      "  amortized %.3e s/frame  refactor %.3e s/frame  speedup %.1fx "
      "(gate >= 5x)\n",
      static_cast<long long>(up.window_rows),
      static_cast<long long>(up.cols), up.amortized_seconds,
      up.refactor_seconds, up.speedup);

  const ServeResult sv = run_serve_study(streams, rounds, seed);
  std::printf(
      "Serve, %d streams x %d rounds on %d A100 workers @ %.0f fps:\n"
      "  done=%lld expired=%lld shed=%lld  worst frame %.3e s, worst "
      "device-round %.3e s (period %.3e s)  starved_rounds=%lld  %s\n",
      sv.streams, sv.rounds, sv.workers, sv.fps, sv.done, sv.expired,
      sv.shed, sv.max_frame_sim_seconds, sv.worst_device_round_seconds,
      1.0 / sv.fps, sv.starved_rounds,
      sv.sustained ? "sustained" : "NOT SUSTAINED");

  const bool migration_ok = run_migration_study(seed ^ 0x5EEDULL);
  std::printf("Migration (functional, checkpoint at half): %s\n",
              migration_ok ? "bit-identical" : "MISMATCH");

  const bool speedup_ok = up.speedup >= 5.0;
  const bool pass = speedup_ok && sv.sustained && migration_ok;

  json::Writer w = bench::begin_artifact();
  w.field("mode", quick ? "quick" : "full").field("model", "a100");
  w.key("update").begin_object().field("window_rows", up.window_rows);
  w.field("cols", up.cols).field("frames", up.frames);
  w.field("amortized_seconds", up.amortized_seconds);
  w.field("refactor_seconds", up.refactor_seconds);
  w.field("speedup", up.speedup).field("factors", up.factors);
  w.field("combines", up.combines).field("flips", up.flips).end_object();
  w.key("serve").begin_object().field("streams", sv.streams);
  w.field("workers", sv.workers).field("rounds", sv.rounds);
  w.field("fps", sv.fps).field("done", sv.done).field("expired", sv.expired);
  w.field("shed", sv.shed).field("rejected", sv.rejected);
  w.field("max_frame_sim_seconds", sv.max_frame_sim_seconds);
  w.field("worst_device_round_seconds", sv.worst_device_round_seconds);
  w.field("starved_rounds", sv.starved_rounds);
  w.field("sustained", sv.sustained).key("per_stream").begin_array();
  for (const StreamRow& r : sv.per_stream) {
    w.begin_object().field("id", r.id).field("weight", r.weight);
    w.field("frames", r.frames).field("p50_ns", r.p50_ns);
    w.field("p95_ns", r.p95_ns).field("p99_ns", r.p99_ns);
    w.field("sim_seconds", r.sim_seconds).field("starved", r.starved);
    w.end_object();
  }
  w.end_array().end_object();
  w.key("migration").begin_object();
  w.field("bit_identical", migration_ok).end_object();
  w.key("acceptance").begin_object().field("update_speedup_min", 5.0);
  w.field("update_speedup", up.speedup);
  w.field("update_speedup_ok", speedup_ok);
  w.field("streams_required", streams);
  w.field("streams_sustained", sv.sustained);
  w.field("migration_bit_identical", migration_ok);
  w.field("pass", pass).end_object();
  bench::write_artifact("BENCH_stream_serve.json", w);

  std::printf("update %.1fx %s, %d streams %s, migration %s\n%s\n",
              up.speedup, speedup_ok ? "pass" : "FAIL", streams,
              sv.sustained ? "sustained" : "FAIL",
              migration_ok ? "pass" : "FAIL",
              pass ? "STREAM SERVE PASS" : "STREAM SERVE FAIL");
  return pass ? 0 : 1;
}
