#pragma once
// Convenience bridge from measured records to a trained WISE model bank.

#include <vector>

#include "exp/measure.hpp"
#include "wise/model_bank.hpp"

namespace wise {

/// Trains one decision tree per configuration from measured records: the
/// speed head from rel_time and, when every record carries per-config prep
/// times (measure_matrix fills them), the prep head from them.
ModelBank train_model_bank(const std::vector<MatrixRecord>& records,
                           const TreeParams& params = {});

/// Same, but appends this machine's probe features (src/hw/probe.hpp) to
/// every record's feature vector before training, producing a
/// hardware-conditioned bank: feature_dim() = 67 + 5 and save() persists
/// the wider dimension (ModelBank v3/v4). Wise::choose() completes
/// inference vectors with the serving machine's own probe, so a bank
/// trained across machines (concatenated record sets, each extended on its
/// home machine) can split on hardware columns. Honors WISE_HW_PROBE.
ModelBank train_model_bank_conditioned(
    const std::vector<MatrixRecord>& records, const TreeParams& params = {});

}  // namespace wise
