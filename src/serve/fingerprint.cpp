#include "serve/fingerprint.hpp"

#include <cstdio>

#include "obs/metrics.hpp"
#include "util/hash.hpp"

namespace wise::serve {

std::string Fingerprint::hex() const {
  char buf[64];
  if (has_values) {
    std::snprintf(buf, sizeof buf, "s:%016llx/v:%016llx",
                  static_cast<unsigned long long>(structure),
                  static_cast<unsigned long long>(values));
  } else {
    std::snprintf(buf, sizeof buf, "s:%016llx",
                  static_cast<unsigned long long>(structure));
  }
  return buf;
}

Fingerprint fingerprint_matrix(const CsrMatrix& m, bool include_values) {
  obs::ScopedTimer span("serve.fingerprint");
  Fingerprint fp;
  const std::int64_t dims[2] = {m.nrows(), m.ncols()};
  std::uint64_t h = fnv1a(dims, sizeof dims);
  const auto row_ptr = m.row_ptr();
  h = fnv1a(row_ptr.data(), row_ptr.size_bytes(), h);
  const auto col_idx = m.col_idx();
  h = fnv1a(col_idx.data(), col_idx.size_bytes(), h);
  fp.structure = h;
  if (include_values) {
    const auto vals = m.vals();
    fp.values = fnv1a(vals.data(), vals.size_bytes());
    fp.has_values = true;
  }
  return fp;
}

}  // namespace wise::serve
