// E7 — Reduction-tree shape ablation (§II.B / §IV.C).
//
// The paper chooses a quad-tree on the GPU (a binomial tree was best on
// multicore): the 64 x 16 block geometry reduces the panel height by 4x per
// level, and fewer levels mean fewer kernel launches and fewer latency-bound
// top-of-tree steps. This bench sweeps the tree arity for TSQR panels of
// several heights and reports simulated time and the level count, plus the
// flat-tree extreme (single combine of all leaves).

#include <cstdio>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "gpusim/device.hpp"
#include "tsqr/tsqr.hpp"

namespace {

using namespace caqr;

struct Run {
  double ms = 0;
  std::size_t levels = 0;
};

Run run_tsqr(idx m, idx w, idx arity) {
  gpusim::Device dev(gpusim::GpuMachineModel::c2050(),
                     gpusim::ExecMode::ModelOnly);
  auto panel = Matrix<float>::shape_only(m, w);
  tsqr::TsqrOptions opt;
  opt.block_rows = 64;
  opt.arity = arity;
  auto f = tsqr::tsqr_factor(dev, gpusim::kDefaultStream, panel.view(), opt);
  return {dev.elapsed_seconds() * 1e3,
          static_cast<std::size_t>(f.num_levels())};
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const idx w = args.get_int("width", 16);
  const std::vector<idx> heights = {16384, 131072, 1048576};
  const std::vector<idx> arities = {2, 3, 4, 8, 16, 1 << 20 /* flat */};

  std::printf("E7: TSQR reduction-tree shape ablation (64-row blocks, "
              "width %lld, C2050 model)\n",
              static_cast<long long>(w));
  std::printf("Paper: quad-tree (arity = block_rows / width = 4) chosen for "
              "the GPU\n\n");

  TextTable table({"panel height", "arity", "levels", "time (ms)",
                   "vs arity-4"});
  for (const idx m : heights) {
    const Run quad = run_tsqr(m, w, 4);
    for (const idx arity : arities) {
      const Run r = run_tsqr(m, w, arity);
      table.cell(std::to_string(m))
          .cell(arity >= (1 << 20) ? std::string("flat")
                                   : std::to_string(arity))
          .cell(static_cast<long long>(r.levels))
          .cell(r.ms, 3)
          .cell(r.ms / quad.ms, 2)
          .end_row();
    }
  }
  table.print();
  std::printf("\nExpected shape: arity 4 at or near the minimum; binary pays "
              "extra levels (launch overhead + latency-bound top), very wide "
              "trees pay large serial combines.\n");
  return 0;
}
