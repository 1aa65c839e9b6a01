#pragma once
// The checksummed tree record every TreeBank file persists its trees as
// (wise/tree_bank.hpp: models.txt v2+, spmm_models.txt v1):
//
//   <config name>
//   tree <payload bytes> <fnv1a checksum, hex>
//   <payload: serialized DecisionTree, exactly that many bytes>
//
// The length frames the payload and the checksum guards it, so a reader
// can skip one damaged tree and keep the rest (degrade, don't die).

#include <cstddef>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "ml/decision_tree.hpp"

namespace wise {

void write_tree_record(std::ostream& out, const std::string& name,
                       const DecisionTree& tree);

/// Reads `n` records. Each intact one goes to `keep(name, tree)`; a record
/// whose checksum, tree payload or keep() fails is skipped, with the
/// warning "skipping model for '<name>': <why>" printed to stderr and
/// appended to `warnings`. Throws wise::Error (kModelBank, message prefixed
/// "<who>: ") on framing damage — a bad length or tag, a truncated payload
/// — since the stream cannot be resynchronized, and when no record
/// survives.
void read_tree_records(
    std::istream& in, std::size_t n, const std::string& path,
    const std::string& who,
    const std::function<void(const std::string&, DecisionTree)>& keep,
    std::vector<std::string>& warnings);

}  // namespace wise
