#pragma once
// The SpMV bank of per-configuration performance models (paper Fig 8,
// step 2): one speedup-class tree per {method, parameter} configuration,
// keyed by MethodConfig::name() — a TreeBank<MethodConfig>
// (wise/tree_bank.hpp), saved to and loaded from a directory so a trained
// WISE ships with the library.
//
// Persistence format (<dir>/models.txt), version 3 or 4:
//
//   wise-model-bank v3|v4
//   features <feature dim>
//   <#configs>
//   <checksummed tree records, ml/tree_record.hpp>
//   prep <#configs>                               v4: the prep head
//   <checksummed prep-head tree records>          (wise/tree_bank.hpp)
//
// The feature-dim record is what makes hardware-conditioned banks
// possible: a bank trained on 67 + 5 machine-feature columns
// (src/hw/probe.hpp) declares 72 here, and Wise::choose() appends
// hw::machine_features() to every extracted vector before inference.
// Version 2 files (no feature-dim record) load with a counted warning and
// are pinned to the 67 matrix features; version 1 files (no checksums
// either) still load, strictly.

#include <string>

#include "spmv/method.hpp"
#include "wise/tree_bank.hpp"

namespace wise {

template <>
struct BankTraits<MethodConfig> {
  static constexpr BankFile kFile{.who = "ModelBank",
                                  .name = "models.txt",
                                  .magic = "wise-model-bank",
                                  .version = 3,
                                  .oldest_version = 1,
                                  .checksums_since = 2,
                                  .features_since = 3,
                                  .prep_since = 4};
  static MethodConfig parse(const std::string& name) {
    return parse_method_config(name);
  }
};

using ModelBank = TreeBank<MethodConfig>;

}  // namespace wise
