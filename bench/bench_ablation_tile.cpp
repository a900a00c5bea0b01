// Design-choice ablation: trailing-matrix tile width (the grid's column
// granularity for apply_qt_h / apply_qt_tree).
//
// Narrow tiles expose more blocks (better load balance, less work per
// launch) but re-read the panel's U once per tile; wide tiles amortize the
// U loads but reduce parallelism and enlarge the per-block working set.
// The paper fixes tiles at the panel width (16); this sweep shows why that
// is a reasonable choice and where wider tiles would start to pay off.

#include <cstdio>
#include <string>
#include <vector>

#include "caqr/caqr.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"

namespace {

using namespace caqr;

double caqr_ms(idx m, idx n, idx tile) {
  gpusim::Device dev(gpusim::GpuMachineModel::c2050(),
                     gpusim::ExecMode::ModelOnly);
  CaqrOptions opt;
  opt.panel_width = 16;
  // panel_tsqr() pins tile_cols to the panel width; sweep via a custom
  // option set instead.
  tsqr::TsqrOptions topt = opt.tsqr;
  topt.tile_cols = tile;
  // Drive the panels manually so the tile width is honored.
  auto a = Matrix<float>::shape_only(m, n);
  for (idx c0 = 0; c0 < std::min(m, n); c0 += opt.panel_width) {
    const idx w = std::min<idx>(opt.panel_width, std::min(m, n) - c0);
    const idx len = m - c0;
    auto panel = Matrix<float>::shape_only(len, w);
    auto f =
        tsqr::tsqr_factor(dev, gpusim::kDefaultStream, panel.view(), topt);
    const idx trailing = n - c0 - w;
    if (trailing > 0) {
      auto t = Matrix<float>::shape_only(len, trailing);
      tsqr::tsqr_apply(dev, gpusim::kDefaultStream, panel.view(), f, t.view(),
                       topt, /*transpose_q=*/true);
    }
  }
  return dev.elapsed_seconds() * 1e3;
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const std::vector<idx> tiles = {4, 8, 16, 32, 64, 128};
  const std::vector<std::pair<idx, idx>> shapes = {
      {100000, 192}, {8192, 1024}, {8192, 4096}};

  std::printf("Ablation: trailing-tile width for the CAQR update kernels "
              "(C2050 model; paper uses tile = panel width = 16)\n\n");
  TextTable table({"matrix", "tile", "time (ms)", "vs tile 16"});
  for (const auto& [m, n] : shapes) {
    const double base = caqr_ms(m, n, 16);
    for (const idx tile : tiles) {
      const double ms = caqr_ms(m, n, tile);
      table.cell(std::to_string(m) + " x " + std::to_string(n))
          .cell(std::to_string(tile))
          .cell(ms, 2)
          .cell(ms / base, 2)
          .end_row();
    }
  }
  table.print();
  std::printf("\nExpected shape: a broad optimum around 16-64; very narrow "
              "tiles pay repeated U traffic, very wide tiles lose block "
              "parallelism at the fringe.\n");
  return 0;
}
