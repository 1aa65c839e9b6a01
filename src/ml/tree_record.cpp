#include "ml/tree_record.hpp"

#include <cstdio>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>

#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/hash.hpp"

namespace wise {

namespace {

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

void write_tree_record(std::ostream& out, const std::string& name,
                       const DecisionTree& tree) {
  std::ostringstream payload;
  tree.save(payload);
  const std::string bytes = payload.str();
  out << name << '\n';
  out << "tree " << bytes.size() << ' ' << hex64(fnv1a(bytes)) << '\n';
  out << bytes;
}

void read_tree_records(
    std::istream& in, std::size_t n, const std::string& path,
    const std::string& who,
    const std::function<void(const std::string&, DecisionTree)>& keep,
    std::vector<std::string>& warnings) {
  const auto fail = [&](const std::string& what) {
    throw Error(ErrorCategory::kModelBank, who + ": " + what,
                {.file = path, .stage = stage::kModelBank});
  };
  // Trees are hundreds of bytes; anything near this cap is corruption.
  constexpr std::size_t kMaxTreeBytes = std::size_t{1} << 30;
  std::size_t kept = 0;
  std::size_t skipped = 0;
  for (std::size_t c = 0; c < n; ++c) {
    std::string name;
    if (!std::getline(in, name)) {
      fail("truncated at configuration " + std::to_string(c));
    }
    std::string tag;
    std::size_t len = 0;
    std::string checksum_hex;
    in >> tag >> len >> checksum_hex;
    if (!in || tag != "tree" || len == 0 || len > kMaxTreeBytes) {
      // The length field frames the payload; without it the stream cannot
      // be resynchronized, so this is fatal rather than skippable.
      fail("malformed tree record for '" + name + "'");
    }
    in.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
    std::string payload(len, '\0');
    in.read(payload.data(), static_cast<std::streamsize>(len));
    if (static_cast<std::size_t>(in.gcount()) != len) {
      fail("truncated tree payload for '" + name + "'");
    }

    std::string why;
    if (hex64(fnv1a(payload)) != checksum_hex) {
      why = "checksum mismatch";
    } else {
      try {
        std::istringstream tree_in(payload);
        keep(name, DecisionTree::load(tree_in));
        ++kept;
        continue;
      } catch (const std::exception& e) {
        why = e.what();
      }
    }
    const std::string warning = "skipping model for '" + name + "': " + why;
    std::fprintf(stderr, "%s: %s\n", who.c_str(), warning.c_str());
    warnings.push_back(warning);
    ++skipped;
  }
  if (kept == 0) {
    fail("no usable trees (" + std::to_string(skipped) + " skipped)");
  }
}

}  // namespace wise
