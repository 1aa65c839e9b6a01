// wise_e2e — the end-to-end benchmark harness.
//
//   wise_e2e --workload oneshot|longrun|serve-mix --seed N --seconds S
//            --trace 0|1 [--bank DIR] [--out DIR] [--git-sha SHA]
//   wise_e2e --make-bank DIR [--seed N]
//
// Prints a run stamp line and then, as the last stdout line, one JSON
// object {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end set, with --trace 1 the per-layer set (and the
// spans go to <out>/trace-<workload>-seed<N>.json). Exits non-zero without
// a result line on any error.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "common.hpp"
#include "hw/probe.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "wise_e2e: %s\nusage: wise_e2e --workload "
               "oneshot|longrun|serve-mix --seed N --seconds S --trace 0|1 "
               "[--bank DIR] [--out DIR] [--git-sha SHA]\n"
               "       wise_e2e --make-bank DIR [--seed N]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Options o;
  std::string make_bank_dir;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    if (a == "--workload") o.workload = v;
    else if (a == "--seed") o.seed = std::stoull(v);
    else if (a == "--seconds") o.seconds = std::stod(v);
    else if (a == "--trace") o.trace = v == "1";
    else if (a == "--bank") o.bank_dir = v;
    else if (a == "--out") o.out_dir = v;
    else if (a == "--git-sha") o.git_sha = v;
    else if (a == "--make-bank") make_bank_dir = v;
    else usage(("unknown option " + a).c_str());
  }

  try {
    if (!make_bank_dir.empty()) return e2e::make_bank(make_bank_dir, o.seed);

    std::filesystem::create_directories(o.out_dir);
    e2e::Result r;
    int workers = 1;
    if (o.workload == "oneshot") {
      r = e2e::run_oneshot(o);
    } else if (o.workload == "longrun") {
      r = e2e::run_longrun(o);
    } else if (o.workload == "serve-mix") {
      r = e2e::run_serve_mix(o);
      workers = e2e::serve_worker_count();
    } else {
      usage("unknown workload");
    }
    const auto stream = r.values.find("hw.stream_gbps");
    const double gbps = stream != r.values.end()
                            ? stream->second
                            : wise::hw::run_probe().stream_triad_gbs;
    std::printf("stamp %s\n", e2e::stamp_json(o, workers, gbps).c_str());
    e2e::print_result(o, r);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wise_e2e: %s\n", e.what());
    return 1;
  }
  return 0;
}
