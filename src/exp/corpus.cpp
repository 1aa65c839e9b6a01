#include "exp/corpus.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/env.hpp"
#include "util/hash.hpp"

namespace wise {

namespace {

/// Applies the global size multiplier. The argument is a row count or a
/// stencil grid side, so the floor must stay below the smallest base value
/// used anywhere (stencil sides go down to 8).
index_t scaled(index_t base_rows) {
  const double s = experiment_scale();
  return std::max<index_t>(
      8, static_cast<index_t>(std::llround(static_cast<double>(base_rows) * s)));
}

MatrixSpec sci(MatrixSpec spec) {
  spec.family = "sci";
  spec.seed = fnv1a(spec.id);  // stable per-id seed
  return spec;
}

MatrixSpec stencil2d_spec(index_t nx, index_t ny, int points) {
  MatrixSpec s;
  s.kind = MatrixSpec::Kind::kStencil2d;
  s.id = "st2d" + std::to_string(points) + "-" + std::to_string(nx) + "x" +
         std::to_string(ny);
  s.n = nx;
  s.n2 = ny;
  s.points = points;
  return sci(s);
}

MatrixSpec stencil3d_spec(index_t side, int points) {
  MatrixSpec s;
  s.kind = MatrixSpec::Kind::kStencil3d;
  s.id = "st3d" + std::to_string(points) + "-" + std::to_string(side);
  s.n = s.n2 = s.n3 = side;
  s.points = points;
  return sci(s);
}

MatrixSpec banded_spec(index_t n, index_t half_bw, double density) {
  MatrixSpec s;
  s.kind = MatrixSpec::Kind::kBanded;
  s.id = "band-" + std::to_string(n) + "-hb" + std::to_string(half_bw) +
         "-d" + std::to_string(static_cast<int>(density * 100));
  s.n = n;
  s.half_bw = half_bw;
  s.density = density;
  return sci(s);
}

MatrixSpec blockdiag_spec(index_t n, index_t block, double density) {
  MatrixSpec s;
  s.kind = MatrixSpec::Kind::kBlockDiag;
  s.id = "blkdiag-" + std::to_string(n) + "-b" + std::to_string(block) +
         "-d" + std::to_string(static_cast<int>(density * 100));
  s.n = n;
  s.block = block;
  s.density = density;
  return sci(s);
}

MatrixSpec road_spec(index_t n) {
  MatrixSpec s;
  s.kind = MatrixSpec::Kind::kRoadLike;
  s.id = "road-" + std::to_string(n);
  s.n = n;
  return sci(s);
}

MatrixSpec sci_rgg(index_t n, double degree) {
  MatrixSpec s = rgg_spec(n, degree, 0);
  s.id = "sci-" + s.id;
  return sci(s);
}

MatrixSpec sci_rmat(RmatClass cls, index_t n, double degree) {
  MatrixSpec s = rmat_spec(cls, n, degree, 0);
  s.id = "sci-" + s.id;
  return sci(s);
}

}  // namespace

std::vector<MatrixSpec> sci_corpus() {
  std::vector<MatrixSpec> specs;

  // 2-D stencils: square and 2:1 grids (12 + 6 = 18).
  for (index_t nx : {32, 48, 64, 96, 128, 192, 256, 384}) {
    specs.push_back(stencil2d_spec(scaled(nx), scaled(nx), 5));
  }
  for (index_t nx : {64, 128, 256, 512}) {
    specs.push_back(stencil2d_spec(scaled(nx), scaled(nx / 2), 5));
  }
  for (index_t nx : {32, 64, 128, 256}) {
    specs.push_back(stencil2d_spec(scaled(nx), scaled(nx), 9));
  }
  for (index_t nx : {128, 256}) {
    specs.push_back(stencil2d_spec(scaled(nx), scaled(nx / 2), 9));
  }
  // Long, skinny grids (narrow-band structure, like 1-D PDE chains) (6).
  specs.push_back(stencil2d_spec(scaled(1024), scaled(64), 5));
  specs.push_back(stencil2d_spec(scaled(2048), scaled(32), 5));
  specs.push_back(stencil2d_spec(scaled(512), scaled(128), 5));
  specs.push_back(stencil2d_spec(scaled(640), scaled(160), 5));
  specs.push_back(stencil2d_spec(scaled(800), scaled(200), 5));
  specs.push_back(stencil2d_spec(scaled(256), scaled(64), 9));

  // 3-D stencils (6 + 4 = 10).
  for (index_t side : {8, 12, 16, 24, 32, 40}) {
    specs.push_back(stencil3d_spec(scaled(side), 7));
  }
  for (index_t side : {8, 12, 16, 24}) {
    specs.push_back(stencil3d_spec(scaled(side), 27));
  }

  // Banded systems (15 + 5 + 4 = 24).
  for (index_t n : {1024, 2048, 4096, 8192, 16384}) {
    for (index_t hb : {4, 16, 64}) {
      specs.push_back(banded_spec(scaled(n), hb, 0.5));
    }
  }
  for (index_t n : {1024, 2048, 4096, 8192, 16384}) {
    specs.push_back(banded_spec(scaled(n), 16, 0.9));
  }
  for (index_t n : {32768, 65536}) {
    for (index_t hb : {4, 16}) {
      specs.push_back(banded_spec(scaled(n), hb, 0.5));
    }
  }

  // Block-diagonal (9 + 3 + 2 = 14).
  for (index_t n : {1024, 4096, 16384}) {
    for (index_t blk : {16, 64, 256}) {
      specs.push_back(blockdiag_spec(scaled(n), blk, 0.3));
    }
  }
  for (index_t n : {1024, 4096, 16384}) {
    specs.push_back(blockdiag_spec(scaled(n), 64, 0.7));
  }
  specs.push_back(blockdiag_spec(scaled(65536), 64, 0.2));
  specs.push_back(blockdiag_spec(scaled(65536), 256, 0.2));

  // Road-like meshes (10).
  for (index_t n : {1024, 2048, 4096, 8192, 16384, 32768, 65536, 9216, 25600,
                    43264}) {
    specs.push_back(road_spec(scaled(n)));
  }

  // Spatial RGG (15 + 6 = 21).
  for (index_t n : {1024, 2048, 4096, 8192, 16384}) {
    for (double deg : {8.0, 16.0, 32.0}) {
      specs.push_back(sci_rgg(scaled(n), deg));
    }
  }
  for (index_t n : {32768, 65536}) {
    for (double deg : {8.0, 16.0, 32.0}) {
      specs.push_back(sci_rgg(scaled(n), deg));
    }
  }

  // The few web/social-like and low-skew graph matrices SuiteSparse does
  // contain (6 + 9 + 9 + 9 = 33).
  for (index_t n : {1024, 4096, 16384}) {
    for (double deg : {8.0, 16.0}) {
      specs.push_back(sci_rmat(RmatClass::kHighSkew, scaled(n), deg));
    }
  }
  for (RmatClass cls :
       {RmatClass::kLowSkew, RmatClass::kMedLoc, RmatClass::kHighLoc}) {
    for (index_t n : {1024, 4096, 16384}) {
      for (double deg : {4.0, 8.0, 16.0}) {
        specs.push_back(sci_rmat(cls, scaled(n), deg));
      }
    }
  }

  if (specs.size() != 136) {
    throw std::logic_error("sci_corpus: expected 136 specs, have " +
                           std::to_string(specs.size()));
  }
  return specs;
}

std::vector<MatrixSpec> random_corpus() {
  std::vector<MatrixSpec> specs;
  // Power-of-two sizes plus half-power sizes, mirroring the paper's use of
  // fractional scales (2^24.58 etc.) to densify the size axis.
  const std::vector<index_t> rows = {1024, 1448, 2048, 2896, 4096,
                                     5792, 8192, 11585, 16384, 23170};
  const std::vector<double> degrees = {4, 8, 16, 32, 64};

  for (RmatClass cls : {RmatClass::kHighSkew, RmatClass::kMedSkew,
                        RmatClass::kLowSkew, RmatClass::kLowLoc,
                        RmatClass::kMedLoc, RmatClass::kHighLoc}) {
    for (index_t n : rows) {
      for (double deg : degrees) {
        auto s = rmat_spec(cls, scaled(n), deg, 0);
        s.seed = fnv1a(s.id);
        specs.push_back(std::move(s));
      }
    }
  }
  for (index_t n : rows) {
    for (double deg : degrees) {
      auto s = rgg_spec(scaled(n), deg, 0);
      s.seed = fnv1a(s.id);
      specs.push_back(std::move(s));
    }
  }
  return specs;  // 6*50 + 50 = 350
}

std::vector<MatrixSpec> full_corpus() {
  std::vector<MatrixSpec> specs = sci_corpus();
  auto rnd = random_corpus();
  specs.insert(specs.end(), rnd.begin(), rnd.end());
  return specs;
}

std::vector<index_t> sweep_rows() {
  return {1024, 2048, 4096, 8192, 16384, 32768};
}

std::vector<double> sweep_degrees() { return {4, 8, 16, 32, 64, 128}; }

std::vector<MatrixSpec> sweep_grid(RmatClass cls) {
  std::vector<MatrixSpec> specs;
  for (index_t n : sweep_rows()) {
    for (double deg : sweep_degrees()) {
      auto s = rmat_spec(cls, scaled(n), deg, 0);
      s.id = "sweep-" + s.id;
      s.seed = fnv1a(s.id);
      specs.push_back(std::move(s));
    }
  }
  return specs;
}

}  // namespace wise
