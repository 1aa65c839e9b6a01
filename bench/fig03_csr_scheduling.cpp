// Fig 3 reproduction: speedup (always <= 1) of CSR with each scheduling
// policy, and of the MKL stand-in, over the best CSR scheduling per matrix
// — plus the paper's count of which policy wins how many matrices.
//
// CSR runs over nnz-balanced execution plans (src/spmv/plan.hpp), and with
// plans CSR/St and CSR/StCont run identical blocks: one contiguous run per
// thread. The paper's §2.1 round-robin St (K rows at a time, dealt
// cyclically) is not reproduced, so the St and StCont columns differ only
// by timing noise and their win counts split between them.

#include <cstdio>
#include <map>

#include "bench_common.hpp"

using namespace wise;
using namespace wise::bench;

int main() {
  std::printf("== Fig 3: CSR scheduling policies vs best CSR (sci corpus) ==\n");
  const auto records = load_records(sci_corpus());
  const auto configs = all_method_configs();

  // Locate the three CSR configurations.
  std::map<Schedule, std::size_t> csr_index;
  for (std::size_t c = 0; c < configs.size(); ++c) {
    if (configs[c].kind == MethodKind::kCsr) csr_index[configs[c].sched] = c;
  }

  std::printf("%-22s %8s %8s %8s %8s %8s\n", "matrix", "Dyn", "St", "StCont",
              "MKL", "best");
  std::map<Schedule, int> wins;
  double worst_slowdown = 1.0;
  for (const auto& rec : records) {
    const double best = rec.best_csr_seconds();
    Schedule best_sched = Schedule::kDyn;
    double best_seconds = rec.config_seconds[csr_index[Schedule::kDyn]];
    std::printf("%-22s", rec.id.c_str());
    for (Schedule s : {Schedule::kDyn, Schedule::kSt, Schedule::kStCont}) {
      const double secs = rec.config_seconds[csr_index[s]];
      std::printf(" %8.3f", best / secs);
      worst_slowdown = std::min(worst_slowdown, best / secs);
      if (secs < best_seconds) {
        best_seconds = secs;
        best_sched = s;
      }
    }
    std::printf(" %8.3f %8s\n", best / rec.mkl_seconds,
                schedule_name(best_sched));
    ++wins[best_sched];
  }

  std::printf("\nBest-schedule counts (paper: Dyn 28, St 16, StCont 92):\n");
  for (Schedule s : {Schedule::kDyn, Schedule::kSt, Schedule::kStCont}) {
    std::printf("  %-8s %d\n", schedule_name(s), wins[s]);
  }
  std::printf("Worst scheduling slowdown observed: %.3fx of best CSR\n",
              worst_slowdown);
  return 0;
}
