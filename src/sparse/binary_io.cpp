#include "sparse/binary_io.hpp"

#include <cstring>
#include <fstream>
#include <limits>
#include <vector>

#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/hash.hpp"

namespace wise {

namespace {

constexpr char kMagic[8] = {'W', 'I', 'S', 'E', 'C', 'S', 'R', '1'};

[[noreturn]] void fail(ErrorCategory cat, const std::string& path,
                       std::size_t offset, const std::string& what) {
  ErrorContext ctx;
  ctx.file = path;
  ctx.offset = offset;
  ctx.stage = stage::kParse;
  throw Error(cat, "read_csr_binary: " + what, std::move(ctx));
}

/// Tracks the byte offset so truncation errors can say where the stream
/// ended relative to what the header promised.
struct Reader {
  std::istream& in;
  const std::string& path;
  std::uint64_t sum = kFnv1aSeed;  ///< running FNV-1a over the payload
  std::size_t offset = 0;

  void read(void* data, std::size_t bytes, const char* what) {
    in.read(static_cast<char*>(data), static_cast<std::streamsize>(bytes));
    const auto got = static_cast<std::size_t>(in.gcount());
    if (got != bytes) {
      fail(ErrorCategory::kParse, path, offset + got,
           std::string("truncated ") + what + ": expected " +
               std::to_string(bytes) + " bytes, got " + std::to_string(got));
    }
    sum = fnv1a(data, bytes, sum);
    offset += bytes;
  }
};

/// Bytes left in a seekable stream, or -1 when the stream cannot tell.
std::int64_t bytes_remaining(std::istream& in) {
  const auto pos = in.tellg();
  if (pos == std::istream::pos_type(-1)) return -1;
  in.seekg(0, std::ios::end);
  const auto end = in.tellg();
  in.seekg(pos);
  if (end == std::istream::pos_type(-1)) return -1;
  return static_cast<std::int64_t>(end - pos);
}

void write_raw(std::ostream& out, std::uint64_t& sum, const void* data,
               std::size_t bytes) {
  out.write(static_cast<const char*>(data),
            static_cast<std::streamsize>(bytes));
  sum = fnv1a(data, bytes, sum);
}

CsrMatrix read_impl(std::istream& in, const std::string& path) {
  FaultInjector::global().maybe_throw(stage::kParse, ErrorCategory::kParse);

  char magic[8];
  in.read(magic, sizeof magic);
  if (static_cast<std::size_t>(in.gcount()) != sizeof magic ||
      std::memcmp(magic, kMagic, sizeof magic) != 0) {
    fail(ErrorCategory::kParse, path, 0, "bad magic");
  }

  Reader r{in, path};
  r.offset = sizeof magic;
  std::int64_t dims[3];
  r.read(dims, sizeof dims, "header");
  constexpr auto kMaxIndex =
      static_cast<std::int64_t>(std::numeric_limits<index_t>::max());
  if (dims[0] < 0 || dims[1] < 0 || dims[2] < 0) {
    fail(ErrorCategory::kValidation, path, r.offset, "negative dimensions");
  }
  if (dims[0] > kMaxIndex || dims[1] > kMaxIndex) {
    fail(ErrorCategory::kValidation, path, r.offset,
         "dimension overflow: " + std::to_string(dims[0]) + " x " +
             std::to_string(dims[1]) + " exceeds 32-bit index range");
  }
  const auto nrows = static_cast<index_t>(dims[0]);
  const auto ncols = static_cast<index_t>(dims[1]);
  const auto nnz = dims[2];
  if (nnz > dims[0] * dims[1]) {
    fail(ErrorCategory::kValidation, path, r.offset,
         "nnz " + std::to_string(nnz) + " exceeds rows*cols");
  }

  // Compare the header's implied payload size against the stream before
  // allocating: a corrupt header cannot trigger a multi-gigabyte allocation
  // or return partially-filled arrays.
  const std::int64_t expected =
      static_cast<std::int64_t>(dims[0] + 1) * sizeof(nnz_t) +
      nnz * static_cast<std::int64_t>(sizeof(index_t) + sizeof(value_t)) +
      static_cast<std::int64_t>(sizeof(std::uint64_t));
  const std::int64_t remaining = bytes_remaining(in);
  if (remaining >= 0 && remaining != expected) {
    fail(ErrorCategory::kValidation, path, r.offset,
         "payload size mismatch: header implies " + std::to_string(expected) +
             " bytes, stream has " + std::to_string(remaining));
  }

  std::vector<nnz_t> row_ptr(static_cast<std::size_t>(nrows) + 1);
  aligned_vector<index_t> col_idx(static_cast<std::size_t>(nnz));
  aligned_vector<value_t> vals(static_cast<std::size_t>(nnz));
  r.read(row_ptr.data(), row_ptr.size() * sizeof(nnz_t), "row_ptr");
  r.read(col_idx.data(), col_idx.size() * sizeof(index_t), "col_idx");
  r.read(vals.data(), vals.size() * sizeof(value_t), "vals");

  std::uint64_t stored = 0;
  in.read(reinterpret_cast<char*>(&stored), sizeof stored);
  if (static_cast<std::size_t>(in.gcount()) != sizeof stored) {
    fail(ErrorCategory::kParse, path, r.offset, "truncated checksum");
  }
  if (stored != r.sum) {
    fail(ErrorCategory::kValidation, path, r.offset, "checksum mismatch");
  }
  // The CsrMatrix constructor validates structure (monotone row_ptr, sorted
  // in-range columns, finite values), so a corrupted-but-checksum-colliding
  // file still cannot produce an invalid matrix.
  return CsrMatrix(nrows, ncols, std::move(row_ptr), std::move(col_idx),
                   std::move(vals));
}

}  // namespace

void write_csr_binary(std::ostream& out, const CsrMatrix& m) {
  std::uint64_t sum = kFnv1aSeed;
  out.write(kMagic, sizeof kMagic);

  const std::int64_t dims[3] = {m.nrows(), m.ncols(), m.nnz()};
  write_raw(out, sum, dims, sizeof dims);
  write_raw(out, sum, m.row_ptr().data(),
            m.row_ptr().size() * sizeof(nnz_t));
  write_raw(out, sum, m.col_idx().data(),
            m.col_idx().size() * sizeof(index_t));
  write_raw(out, sum, m.vals().data(), m.vals().size() * sizeof(value_t));

  out.write(reinterpret_cast<const char*>(&sum), sizeof sum);
  if (!out) {
    throw Error(ErrorCategory::kResource, "write_csr_binary: write failed");
  }
}

CsrMatrix read_csr_binary(std::istream& in) { return read_impl(in, ""); }

void write_csr_binary_file(const std::string& path, const CsrMatrix& m) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    throw Error(ErrorCategory::kResource, "cannot create: " + path,
                {.file = path});
  }
  write_csr_binary(out, m);
}

CsrMatrix read_csr_binary_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw Error(ErrorCategory::kResource, "cannot open: " + path,
                {.file = path});
  }
  return read_impl(in, path);
}

}  // namespace wise
