// Tests for the online learning loop (learn/online.hpp) and its serving
// integration (serve/server.hpp): drift-triggered retrain + validated
// hot-swap, the rollback guardrail, fault-stage degradation, WAL recovery
// into the learner, the server's sampling of RUN, SPMM and SOLVE, and
// bit-stable predictions across concurrent bank swaps.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "features/extractor.hpp"
#include "gen/generators.hpp"
#include "learn/online.hpp"
#include "serve/server.hpp"
#include "spmm/model.hpp"
#include "spmv/method.hpp"
#include "test_util.hpp"
#include "util/fault.hpp"
#include "util/prng.hpp"
#include "wise/model_bank.hpp"

namespace wise::learn {
namespace {

namespace fs = std::filesystem;
using wise::testing::random_csr;

/// Bank over the full registry with constant per-config relative times:
/// `winner` trains at `winner_rel`, everything else at `other_rel`. Each
/// tree is a single leaf, so predictions are the same for any feature
/// vector — the drift/rollback choreography becomes deterministic. With
/// `prep_head` the bank also carries a constant prep head.
ModelBank make_bank(std::size_t winner, double winner_rel, double other_rel,
                    bool prep_head = false) {
  const auto configs = all_method_configs();
  std::vector<std::vector<double>> features;
  std::vector<std::vector<double>> rel_times;
  std::vector<std::vector<double>> prep_iters;
  Xoshiro256 rng(7);
  for (int i = 0; i < 12; ++i) {
    std::vector<double> f(feature_count());
    for (auto& v : f) v = rng.next_double() * 100.0;
    features.push_back(std::move(f));
    std::vector<double> rel(configs.size(), other_rel);
    rel[winner] = winner_rel;
    rel_times.push_back(std::move(rel));
    std::vector<double> prep(configs.size());
    for (std::size_t c = 0; c < configs.size(); ++c) {
      prep[c] = 4.0 * static_cast<double>(c % 7);
    }
    prep_iters.push_back(std::move(prep));
  }
  ModelBank bank;
  bank.train(configs, features, rel_times, {.max_depth = 3});
  if (prep_head) bank.train_prep(features, prep_iters, {.max_depth = 3});
  return bank;
}

std::string slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// The prep section of `bank`'s saved models.txt: from "prep" to the end.
std::string saved_prep_section(const ModelBank& bank, const std::string& tag) {
  const fs::path dir = fs::temp_directory_path() / ("wise_online_bank_" + tag);
  fs::remove_all(dir);
  bank.save(dir.string());
  const std::string text = slurp(dir / "models.txt");
  fs::remove_all(dir);
  const auto at = text.find("\nprep ");
  return at == std::string::npos ? std::string() : text.substr(at);
}

std::size_t first_config_of_kind(MethodKind kind) {
  const auto configs = all_method_configs();
  for (std::size_t i = 0; i < configs.size(); ++i) {
    if (configs[i].kind == kind) return i;
  }
  ADD_FAILURE() << "registry lacks the requested method kind";
  return 0;
}

std::string fresh_log_path(const std::string& name) {
  const fs::path p = fs::temp_directory_path() / ("wise_online_" + name);
  fs::remove(p);
  return p.string();
}

LearnOptions fast_opts(const std::string& log_name) {
  LearnOptions o;
  o.enabled = true;
  o.log_path = fresh_log_path(log_name);
  o.sample_rate = 1.0;
  o.window = 64;
  o.min_samples = 8;
  o.drift_threshold = 0.5;
  o.min_config_samples = 4;
  o.holdout = 0.25;
  o.swap_margin = 0.02;
  o.guard_min_samples = 4;
  o.rollback_margin = 0.3;
  o.tree_params = {.max_depth = 3};
  return o;
}

/// Synthetic labeled observation against config `ci` of the registry.
Sample synthetic_sample(std::size_t ci, std::uint64_t bank_version,
                        int predicted, int observed, std::uint64_t seed) {
  Sample s;
  s.fingerprint = 0xfeed0000u + seed;
  s.bank_version = bank_version;
  s.predicted_class = predicted;
  s.observed_class = observed;
  s.rel_time = 1.0;
  s.config_name = all_method_configs()[ci].name();
  Xoshiro256 rng(seed + 1);
  s.features.resize(feature_names().size());
  for (auto& v : s.features) v = rng.next_double() * 50.0;
  return s;
}

bool wait_until(const std::function<bool()>& pred,
                std::chrono::milliseconds timeout =
                    std::chrono::milliseconds(15'000)) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

std::shared_ptr<const CsrMatrix> shared_matrix(index_t n, std::uint64_t seed) {
  return std::make_shared<const CsrMatrix>(random_csr(n, n, 6.0, seed));
}

serve::Request run_request(std::shared_ptr<const CsrMatrix> m, std::string id,
                           int iters = 10) {
  serve::Request req;
  req.kind = serve::RequestKind::kRun;
  req.matrix = std::move(m);
  req.id = std::move(id);
  req.iters = iters;
  return req;
}

// -------------------------------------------------- standalone learner ----

TEST(OnlineLearner, DriftTriggersValidatedRetrainAndSwap) {
  const std::size_t winner = first_config_of_kind(MethodKind::kCsr);
  // The live bank predicts class 6 for the winner; reality (the samples)
  // says class 1 — every observation is a ±1-tolerance misprediction.
  auto live = std::make_shared<const Wise>(make_bank(winner, 0.5, 1.0));

  OnlineLearner learner(fast_opts("drift_swap.wal"));
  std::mutex pub_mutex;
  std::vector<std::shared_ptr<const Wise>> published;
  std::uint64_t next_version = 2;
  learner.bind(
      [&](std::shared_ptr<const Wise> w) {
        std::lock_guard<std::mutex> g(pub_mutex);
        published.push_back(std::move(w));
        return next_version++;
      },
      live, 1);
  learner.start();

  for (std::uint64_t i = 0; i < 12; ++i) {
    learner.observe(synthetic_sample(winner, 1, 6, 1, i));
  }
  ASSERT_TRUE(wait_until([&] { return learner.stats().swaps >= 1; }))
      << "drift must trigger a retrain that validates and swaps";

  const LearnStats ls = learner.stats();
  EXPECT_GE(ls.drift_events, 1u);
  EXPECT_GE(ls.retrains, 1u);
  EXPECT_EQ(ls.swaps, 1u);
  EXPECT_EQ(ls.bank_version, 2u);
  EXPECT_EQ(ls.rollbacks, 0u);
  EXPECT_GT(ls.last_candidate_accuracy, ls.last_live_accuracy)
      << "only a candidate beating the live bank may publish";
  EXPECT_GT(ls.samples_logged, 0u);

  // The published candidate actually learned the observed class.
  std::shared_ptr<const Wise> cand;
  {
    std::lock_guard<std::mutex> g(pub_mutex);
    ASSERT_EQ(published.size(), 1u);
    cand = published.front();
  }
  const Sample probe = synthetic_sample(winner, 2, 0, 0, 999);
  const int relearned = cand->bank().predict_class(winner, probe.features);
  EXPECT_FALSE(DriftDetector::mispredicted(relearned, 1))
      << "refit tree predicts " << relearned << ", expected ~1";

  // Healthy post-swap traffic resolves the guardrail without a rollback.
  for (std::uint64_t i = 0; i < 6; ++i) {
    learner.observe(synthetic_sample(winner, 2, relearned, relearned,
                                     100 + i));
  }
  learner.stop();
  EXPECT_EQ(learner.stats().rollbacks, 0u);
  fs::remove(learner.options().log_path);
}

TEST(OnlineLearner, APublishKeepsThePrepSectionByteIdentical) {
  // Samples label only the speed head: a refit candidate carries the live
  // prep head over unchanged, byte for byte on save.
  const std::size_t winner = first_config_of_kind(MethodKind::kCsr);
  auto live =
      std::make_shared<const Wise>(make_bank(winner, 0.5, 1.0, true));
  ASSERT_TRUE(live->bank().has_prep_head());

  OnlineLearner learner(fast_opts("prep_section.wal"));
  std::mutex pub_mutex;
  std::shared_ptr<const Wise> published;
  learner.bind(
      [&](std::shared_ptr<const Wise> w) {
        std::lock_guard<std::mutex> g(pub_mutex);
        published = std::move(w);
        return std::uint64_t{2};
      },
      live, 1);
  learner.start();
  for (std::uint64_t i = 0; i < 12; ++i) {
    learner.observe(synthetic_sample(winner, 1, 6, 1, i));
  }
  ASSERT_TRUE(wait_until([&] { return learner.stats().swaps >= 1; }));
  learner.stop();

  std::lock_guard<std::mutex> g(pub_mutex);
  ASSERT_NE(published, nullptr);
  EXPECT_TRUE(published->bank().has_prep_head());
  const std::string live_prep = saved_prep_section(live->bank(), "live");
  EXPECT_FALSE(live_prep.empty());
  EXPECT_EQ(saved_prep_section(published->bank(), "candidate"), live_prep);
  EXPECT_NE(published->bank().trees()[winner].predict(
                synthetic_sample(winner, 2, 0, 0, 999).features),
            live->bank().trees()[winner].predict(
                synthetic_sample(winner, 2, 0, 0, 999).features))
      << "the speed head was refit";
  fs::remove(learner.options().log_path);
}

TEST(OnlineLearner, RetrainFaultDegradesToContinuedServing) {
  LearnOptions opts = fast_opts("retrain_fault.wal");
  opts.min_samples = 2;
  opts.drift_threshold = 2.0;  // unreachable: only poke() retrains
  const std::size_t winner = first_config_of_kind(MethodKind::kCsr);
  auto live = std::make_shared<const Wise>(make_bank(winner, 0.5, 1.0));

  OnlineLearner learner(opts);
  std::atomic<int> publishes{0};
  learner.bind(
      [&](std::shared_ptr<const Wise>) {
        ++publishes;
        return std::uint64_t{2};
      },
      live, 1);
  learner.start();
  for (std::uint64_t i = 0; i < 4; ++i) {
    learner.observe(synthetic_sample(winner, 1, 6, 1, i));
  }

  FaultInjector::global().arm(stage::kRetrain, 1.0);
  learner.poke();
  ASSERT_TRUE(
      wait_until([&] { return learner.stats().retrain_failures >= 1; }));
  FaultInjector::global().disarm(stage::kRetrain);

  const LearnStats ls = learner.stats();
  EXPECT_GE(ls.retrains, 1u);
  EXPECT_EQ(ls.swaps, 0u);
  EXPECT_EQ(publishes.load(), 0);
  EXPECT_EQ(ls.bank_version, 1u) << "a failed retrain must not swap";

  // The learner is still alive: with enough samples to survive the
  // holdout split (min_config_samples must hold on the TRAIN slice), a
  // healthy poke retrains and swaps.
  for (std::uint64_t i = 4; i < 8; ++i) {
    learner.observe(synthetic_sample(winner, 1, 6, 1, i));
  }
  learner.poke();
  EXPECT_TRUE(wait_until([&] { return learner.stats().swaps >= 1; }));
  learner.stop();
  fs::remove(learner.options().log_path);
}

TEST(OnlineLearner, SwapFaultDegradesAndRecovers) {
  LearnOptions opts = fast_opts("swap_fault.wal");
  const std::size_t winner = first_config_of_kind(MethodKind::kCsr);
  auto live = std::make_shared<const Wise>(make_bank(winner, 1.0, 1.2));

  OnlineLearner learner(opts);
  std::uint64_t next_version = 2;
  learner.bind(
      [&](std::shared_ptr<const Wise>) { return next_version++; }, live, 1);
  learner.start();

  FaultInjector::global().arm(stage::kSwap, 1.0);
  EXPECT_FALSE(
      learner.publish_candidate(make_bank(winner, 0.5, 1.0), false));
  FaultInjector::global().disarm(stage::kSwap);
  LearnStats ls = learner.stats();
  EXPECT_EQ(ls.swap_failures, 1u);
  EXPECT_EQ(ls.swaps, 0u);
  EXPECT_EQ(ls.bank_version, 1u);

  EXPECT_TRUE(
      learner.publish_candidate(make_bank(winner, 0.5, 1.0), false));
  ls = learner.stats();
  EXPECT_EQ(ls.swaps, 1u);
  EXPECT_EQ(ls.bank_version, 2u);
  learner.stop();
  fs::remove(learner.options().log_path);
}

TEST(OnlineLearner, WalSamplesSurviveRestartIntoANewLearner) {
  LearnOptions opts = fast_opts("restart.wal");
  opts.min_samples = 1000;  // no retrain in this test
  const std::size_t winner = first_config_of_kind(MethodKind::kCsr);
  auto live = std::make_shared<const Wise>(make_bank(winner, 1.0, 1.2));
  {
    OnlineLearner learner(opts);
    learner.bind([](std::shared_ptr<const Wise>) { return std::uint64_t{2}; },
                 live, 1);
    learner.start();
    for (std::uint64_t i = 0; i < 5; ++i) {
      learner.observe(synthetic_sample(winner, 1, 1, 1, i));
    }
    EXPECT_EQ(learner.stats().samples_logged, 5u);
    learner.stop();
  }
  OnlineLearner reborn(opts);
  reborn.bind([](std::shared_ptr<const Wise>) { return std::uint64_t{2}; },
              live, 1);
  reborn.start();
  const LearnStats ls = reborn.stats();
  EXPECT_EQ(ls.samples_recovered, 5u);
  EXPECT_EQ(ls.wal_corrupt_skipped, 0u);
  reborn.stop();
  fs::remove(opts.log_path);
}

TEST(OnlineLearner, ForeignWorkloadClassesAreLoggedButNeverDriveDrift) {
  // An SpMV learner receiving SpMM and session samples must persist them
  // (the WAL is the shared corpus) while keeping its drift window, and
  // therefore its retrain triggers, scoped to its own class — mispredicted
  // SpMM traffic must not retrain the SpMV bank.
  LearnOptions opts = fast_opts("foreign.wal");
  const std::size_t winner = first_config_of_kind(MethodKind::kCsr);
  auto live = std::make_shared<const Wise>(make_bank(winner, 0.5, 1.0));

  OnlineLearner learner(opts);
  std::atomic<int> publishes{0};
  learner.bind(
      [&](std::shared_ptr<const Wise>) {
        ++publishes;
        return std::uint64_t{2};
      },
      live, 1);
  learner.start();

  // Mispredicting foreign traffic, enough to trip drift were it counted.
  for (std::uint64_t i = 0; i < 24; ++i) {
    Sample s = synthetic_sample(winner, 1, 6, 1, i);
    s.workload_class = static_cast<std::uint8_t>(
        i % 2 == 0 ? WorkloadClass::kSpmm : WorkloadClass::kSession);
    learner.observe(s);
  }
  LearnStats ls = learner.stats();
  EXPECT_EQ(ls.samples_logged, 24u) << "foreign samples still hit the WAL";
  EXPECT_EQ(ls.samples_foreign_class, 24u);
  EXPECT_EQ(ls.window_samples, 0u) << "drift window admits only own-class";
  EXPECT_EQ(ls.drift_events, 0u);
  EXPECT_EQ(ls.retrains, 0u);
  EXPECT_EQ(publishes.load(), 0);

  // Own-class mispredictions still drive the loop as before.
  for (std::uint64_t i = 0; i < 12; ++i) {
    learner.observe(synthetic_sample(winner, 1, 6, 1, 100 + i));
  }
  ASSERT_TRUE(wait_until([&] { return learner.stats().drift_events >= 1; }));
  learner.stop();
  fs::remove(opts.log_path);
}

// ------------------------------------------------- serving integration ----

TEST(ServerLearn, OnlineLoopLowersServedMispredictRate) {
  // E2E: a mistrained bank (predicts class 6 for the default CSR config,
  // whose true relative time is ~1.0) serves real traffic. Drift must fire,
  // a retrain must produce a validated candidate, the candidate must
  // hot-swap in, and the served misprediction rate must drop below the
  // pre-swap baseline — all with zero failed requests.
  const std::size_t winner = first_config_of_kind(MethodKind::kCsr);
  serve::Server server(
      std::make_shared<const Wise>(make_bank(winner, 0.5, 1.0)),
      {.workers = 4});

  LearnOptions opts = fast_opts("served_e2e.wal");
  opts.min_samples = 10;
  opts.guard_min_samples = 6;
  opts.rollback_margin = 1.0;  // pre-swap rate ~1.0: never roll back here
  server.attach_learner(std::make_shared<OnlineLearner>(opts));
  auto learner = server.learner();
  ASSERT_NE(learner, nullptr);

  std::vector<std::shared_ptr<const CsrMatrix>> matrices;
  for (int i = 0; i < 6; ++i) matrices.push_back(shared_matrix(128, 900 + i));

  const auto drive_round = [&](int round) {
    for (std::size_t i = 0; i < matrices.size(); ++i) {
      const serve::Response rsp = server.call(run_request(
          matrices[i], "m" + std::to_string(i) + "r" + std::to_string(round)));
      ASSERT_TRUE(rsp.ok) << rsp.error;
    }
  };

  int round = 0;
  drive_round(round++);  // cold pass: every entry prepared + sampled
  ASSERT_TRUE(wait_until([&] {
    if (learner->stats().swaps >= 1) return true;
    drive_round(round++);
    return learner->stats().swaps >= 1;
  })) << "drift never produced a published candidate; rate="
      << learner->stats().mispredict_rate
      << " drift_events=" << learner->stats().drift_events
      << " retrains=" << learner->stats().retrains << " rejected="
      << learner->stats().candidates_rejected;

  // Post-swap traffic: the relearned bank serves and is re-measured.
  // Like the swap wait above, each poll drives one more round, so a window
  // still short of guard_min_samples after these rounds keeps filling.
  for (int r = 0; r < 4; ++r) drive_round(round++);
  const auto window_full = [&] {
    return learner->stats().window_samples >= opts.guard_min_samples;
  };
  ASSERT_TRUE(wait_until([&] {
    if (window_full()) return true;
    drive_round(round++);
    return window_full();
  }));

  const LearnStats ls = learner->stats();
  const serve::ServerStats st = server.stats();
  EXPECT_EQ(st.failed, 0u) << "the loop must never fail a request";
  EXPECT_GT(st.sampled, 0u);
  EXPECT_GE(ls.drift_events, 1u);
  EXPECT_GE(ls.retrains, 1u);
  EXPECT_GE(ls.swaps, 1u);
  EXPECT_GE(ls.bank_version, 2u);
  EXPECT_GE(server.bank_version(), 2u);
  EXPECT_GT(ls.baseline_mispredict_rate, opts.drift_threshold)
      << "the pre-swap window must have been drifting";
  EXPECT_LT(ls.mispredict_rate, ls.baseline_mispredict_rate)
      << "the swap must measurably reduce served mispredictions";
  EXPECT_GT(ls.samples_logged, 0u);
  EXPECT_GT(ls.wal_bytes, 0u);
  fs::remove(opts.log_path);
}

TEST(ServerLearn, RunSpmmAndSolveEachLogOneClassedSample) {
  // Every sampled request kind goes through the server's one sampling
  // path: it times its own workload's baseline and lands in the WAL tagged
  // with its class. Only the SpMV sample is the learner's own class; the
  // SpMM and session samples are logged as foreign.
  const std::size_t winner = first_config_of_kind(MethodKind::kCsr);
  serve::Server server(
      std::make_shared<const Wise>(make_bank(winner, 1.0, 1.2)),
      {.workers = 2});
  std::vector<CsrMatrix> corpus;
  for (std::uint64_t s = 1; s <= 4; ++s) {
    corpus.push_back(random_csr(64, 64, 5.0, 300 + s));
  }
  spmm::SpmmTrainOptions topts;
  topts.k = 4;
  topts.iters = 1;
  server.set_spmm_bank(std::make_shared<const spmm::SpmmBank>(
      spmm::train_spmm_bank(corpus, topts)));
  const LearnOptions opts = fast_opts("three_kinds.wal");
  server.attach_learner(std::make_shared<OnlineLearner>(opts));
  auto learner = server.learner();

  const serve::Response run =
      server.call(run_request(shared_matrix(96, 41), "run", 4));
  serve::Request spmm_req;
  spmm_req.kind = serve::RequestKind::kSpmm;
  spmm_req.matrix = shared_matrix(96, 42);
  spmm_req.id = "spmm";
  spmm_req.rhs_cols = 4;
  spmm_req.iters = 2;
  const serve::Response spmm = server.call(std::move(spmm_req));
  CooMatrix coo = generate_stencil2d(10, 10, 5);
  for (auto& e : coo.entries()) {
    if (e.row == e.col) e.val += 0.1;  // SPD, so CG converges
  }
  coo.canonicalize();
  serve::Request solve_req;
  solve_req.kind = serve::RequestKind::kSolve;
  solve_req.matrix = std::make_shared<const CsrMatrix>(CsrMatrix::from_coo(coo));
  solve_req.id = "solve";
  solve_req.iters = 50;
  const serve::Response solve = server.call(std::move(solve_req));
  const std::vector<const serve::Response*> rsps = {&run, &spmm, &solve};
  for (const serve::Response* rsp : rsps) ASSERT_TRUE(rsp->ok) << rsp->error;
  EXPECT_FALSE(solve.prepared_cache_hit) << "the SOLVE under test is cold";

  EXPECT_EQ(server.stats().sampled, 3u);
  const LearnStats ls = learner->stats();
  EXPECT_EQ(ls.samples_logged, 3u);
  EXPECT_EQ(ls.samples_foreign_class, 2u);
  EXPECT_EQ(ls.window_samples, 1u);
  learner->stop();

  SampleLog log(opts.log_path);
  log.open();
  const std::vector<Sample>& samples = log.samples();
  ASSERT_EQ(samples.size(), 3u);
  const WorkloadClass classes[] = {WorkloadClass::kSpmv, WorkloadClass::kSpmm,
                                   WorkloadClass::kSession};
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    EXPECT_EQ(s.workload_class, static_cast<std::uint8_t>(classes[i])) << i;
    EXPECT_EQ(s.config_name, rsps[i]->config_name) << i;
    EXPECT_EQ(s.fingerprint, rsps[i]->fingerprint.structure) << i;
    EXPECT_EQ(s.predicted_class, rsps[i]->choice.predicted_class) << i;
    EXPECT_EQ(s.bank_version, 1u) << i;
    EXPECT_GT(s.rel_time, 0.0) << i;
    EXPECT_EQ(s.features.size(), feature_count()) << i;
  }
  EXPECT_NO_THROW(parse_method_config(samples[0].config_name));
  EXPECT_EQ(samples[1].config_name.rfind("SpMM/", 0), 0u)
      << samples[1].config_name;
  EXPECT_NO_THROW(parse_method_config(samples[2].config_name));
  fs::remove(opts.log_path);
}

TEST(ServerLearn, SubsetBankSamplesLogTheFullFeatureVector) {
  // The pinned benchmark banks read no column-presence feature, so RUN and
  // SPMM extract a subset for inference. What the WAL stores must still be
  // the full vector — a retrain may split on any feature — bit for bit:
  // a RUN completes its cached choice's vector once per prepared entry,
  // and a sampled SPMM extracts the full vector in the first place.
  const std::string bank_dir =
      (fs::path(WISE_TEST_DATA_DIR) / ".." / ".." / "e2ebench" / "bank")
          .string();
  auto wise = std::make_shared<const Wise>(ModelBank::load(bank_dir));
  auto spmm_bank = std::make_shared<const spmm::SpmmBank>(
      spmm::SpmmBank::load(bank_dir));
  ASSERT_TRUE((wise->bank().read_features() & column_presence_features())
                  .none());
  ASSERT_TRUE((spmm_bank->read_features() & column_presence_features())
                  .none());
  serve::Server server(wise, {.workers = 2});
  server.set_spmm_bank(spmm_bank);
  const auto spmm_m = shared_matrix(600, 52);
  auto spmm_request = [&] {
    serve::Request req;
    req.kind = serve::RequestKind::kSpmm;
    req.matrix = spmm_m;
    req.id = "spmm";
    req.rhs_cols = 4;
    req.iters = 2;
    return req;
  };
  // Unsampled (no learner yet): the SPMM choice carries only the subset.
  const serve::Response unsampled = server.call(spmm_request());
  ASSERT_TRUE(unsampled.ok) << unsampled.error;
  EXPECT_FALSE(unsampled.choice.features_complete);

  const LearnOptions opts = fast_opts("subset_bank.wal");
  server.attach_learner(std::make_shared<OnlineLearner>(opts));
  auto learner = server.learner();

  const auto run_m = shared_matrix(700, 51);
  const serve::Response run = server.call(run_request(run_m, "run", 2));
  const serve::Response spmm = server.call(spmm_request());
  const serve::Response warm_run = server.call(run_request(run_m, "run2", 2));
  ASSERT_TRUE(run.ok) << run.error;
  ASSERT_TRUE(spmm.ok) << spmm.error;
  ASSERT_TRUE(warm_run.ok) << warm_run.error;
  EXPECT_FALSE(run.choice.features_complete);
  EXPECT_TRUE(spmm.choice.features_complete);
  EXPECT_TRUE(warm_run.prepared_cache_hit);
  learner->stop();

  SampleLog log(opts.log_path);
  log.open();
  const std::vector<Sample>& samples = log.samples();
  ASSERT_EQ(samples.size(), 3u);
  const CsrMatrix* matrices[] = {run_m.get(), spmm_m.get(), run_m.get()};
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const std::vector<double> want = extract_features(*matrices[i]).values;
    const std::vector<double>& got = samples[i].features;
    ASSERT_EQ(got.size(), want.size()) << i;
    EXPECT_EQ(
        std::memcmp(got.data(), want.data(), want.size() * sizeof(double)), 0)
        << i;
    for (double v : got) EXPECT_TRUE(std::isfinite(v)) << i;
  }
  fs::remove(opts.log_path);
}

TEST(ServerLearn, GuardrailRollsBackAForcedRegression) {
  // A healthy bank serves accurately; a regressing candidate is forced in
  // past validation. The post-swap guardrail must detect the live
  // regression and automatically publish the previous bank back.
  const std::size_t winner = first_config_of_kind(MethodKind::kCsr);
  serve::Server server(
      std::make_shared<const Wise>(make_bank(winner, 1.0, 1.2)),
      {.workers = 4});

  LearnOptions opts = fast_opts("rollback_e2e.wal");
  opts.drift_threshold = 0.95;  // guard, not drift, is under test
  opts.guard_min_samples = 6;
  opts.rollback_margin = 0.3;
  server.attach_learner(std::make_shared<OnlineLearner>(opts));
  auto learner = server.learner();

  std::vector<std::shared_ptr<const CsrMatrix>> matrices;
  for (int i = 0; i < 4; ++i) matrices.push_back(shared_matrix(128, 700 + i));
  int seq = 0;
  const auto drive_round = [&] {
    for (std::size_t i = 0; i < matrices.size(); ++i) {
      const serve::Response rsp = server.call(
          run_request(matrices[i], "rb" + std::to_string(seq++)));
      ASSERT_TRUE(rsp.ok) << rsp.error;
    }
  };
  // Pre-swap window: served RUNs go through the server's sampling path,
  // but measured labels of tiny matrices are timing noise — all eight can
  // land far from C1, which fires drift and swaps in a retrained bank. So
  // accurate labeled observations come first and dominate the window: its
  // rate, which drift and the guardrail read, stays at or below 8 / 32.
  for (std::size_t i = 0; i < 24; ++i) {
    learner->observe(synthetic_sample(winner, 1, 1, 1, 800 + i));
  }
  for (int r = 0; r < 2; ++r) drive_round();

  // Validation rejects the regressing candidate (it loses on the WAL)…
  EXPECT_FALSE(learner->publish_candidate(make_bank(winner, 0.5, 1.0), true));
  EXPECT_GE(learner->stats().candidates_rejected, 1u);
  EXPECT_EQ(server.bank_version(), 1u);

  // …so force it in without validation: the guardrail is the only defence.
  ASSERT_TRUE(learner->publish_candidate(make_bank(winner, 0.5, 1.0), false));
  EXPECT_EQ(server.bank_version(), 2u);
  EXPECT_EQ(learner->stats().swaps, 1u);

  // The regressing bank predicts C6 for the winner, which runs at parity
  // (C1): the guardrail is fed that regression as labeled observations
  // against the live version, so its verdict is deterministic.
  for (std::size_t i = 0; i < opts.guard_min_samples; ++i) {
    learner->observe(synthetic_sample(winner, 2, 6, 1, 900 + i));
  }
  ASSERT_TRUE(wait_until([&] { return learner->stats().rollbacks >= 1; }))
      << "live regression must trigger an automatic rollback";

  const LearnStats ls = learner->stats();
  EXPECT_EQ(ls.rollbacks, 1u);
  EXPECT_EQ(ls.bank_version, 3u) << "rollback republishes the previous bank";
  EXPECT_EQ(server.bank_version(), 3u);
  EXPECT_EQ(server.stats().failed, 0u);

  // The rolled-back server predicts with the healthy bank again.
  serve::Request predict;
  predict.kind = serve::RequestKind::kPredict;
  predict.matrix = matrices[0];
  predict.id = "post-rollback";
  const serve::Response p = server.call(std::move(predict));
  ASSERT_TRUE(p.ok) << p.error;
  EXPECT_EQ(p.choice.predicted_class, 1);
  EXPECT_EQ(p.bank_version, 3u);
  fs::remove(opts.log_path);
}

TEST(ServerLearn, ConcurrentHotSwapKeepsPredictionsBitStable) {
  // 8 client threads hammer warm RUNs while the main thread repeatedly
  // hot-swaps (clones of) the bank. Every response must be bit-identical
  // to the cold reference and none may fail — the epoch-protected swap is
  // invisible to in-flight requests.
  const std::size_t winner = first_config_of_kind(MethodKind::kSellpack);
  serve::Server server(
      std::make_shared<const Wise>(make_bank(winner, 0.5, 1.0)),
      {.workers = 8, .queue_capacity = 0});

  constexpr int kMatrices = 6;
  constexpr int kThreads = 8;
  constexpr int kRounds = 24;
  std::vector<std::shared_ptr<const CsrMatrix>> matrices;
  std::vector<double> cold_checksums;
  for (int i = 0; i < kMatrices; ++i) {
    matrices.push_back(shared_matrix(96, 400 + i));
    const serve::Response cold = server.call(
        run_request(matrices.back(), "cold" + std::to_string(i), 2));
    ASSERT_TRUE(cold.ok) << cold.error;
    cold_checksums.push_back(cold.checksum);
  }

  std::atomic<int> bad{0};
  std::atomic<int> failed{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r) {
        const int mi = (t + r) % kMatrices;
        const serve::Response rsp = server.call(run_request(
            matrices[static_cast<std::size_t>(mi)], "t" + std::to_string(t),
            2));
        if (!rsp.ok) {
          ++failed;
        } else if (rsp.checksum !=
                   cold_checksums[static_cast<std::size_t>(mi)]) {
          ++bad;
        }
      }
    });
  }
  constexpr int kSwaps = 4;
  for (int i = 0; i < kSwaps; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
    server.publish_bank(std::make_shared<const Wise>(
        ModelBank(server.predictor()->bank())));
  }
  for (auto& c : clients) c.join();

  EXPECT_EQ(failed.load(), 0);
  EXPECT_EQ(bad.load(), 0)
      << "a mid-swap response differed bit-for-bit from the cold run";
  EXPECT_EQ(server.bank_version(), static_cast<std::uint64_t>(1 + kSwaps));
  EXPECT_EQ(server.stats().failed, 0u);
}

TEST(ServerLearn, PublishBankBumpsVersionAndClearsCaches) {
  const std::size_t winner = first_config_of_kind(MethodKind::kSellpack);
  serve::Server server(
      std::make_shared<const Wise>(make_bank(winner, 0.5, 1.0)),
      {.workers = 1});
  EXPECT_EQ(server.bank_version(), 1u);
  EXPECT_THROW(server.publish_bank(nullptr), std::invalid_argument);

  const auto m = shared_matrix(96, 55);
  const serve::Response cold = server.call(run_request(m, "cold", 2));
  ASSERT_TRUE(cold.ok) << cold.error;
  EXPECT_EQ(cold.bank_version, 1u);
  const serve::Response warm = server.call(run_request(m, "warm", 2));
  ASSERT_TRUE(warm.ok);
  EXPECT_TRUE(warm.prepared_cache_hit);

  const std::uint64_t v = server.publish_bank(
      std::make_shared<const Wise>(ModelBank(server.predictor()->bank())));
  EXPECT_EQ(v, 2u);
  EXPECT_EQ(server.bank_version(), 2u);

  const serve::Response fresh = server.call(run_request(m, "fresh", 2));
  ASSERT_TRUE(fresh.ok);
  EXPECT_FALSE(fresh.prepared_cache_hit)
      << "publish must clear the prepared tier (entries embed old choices)";
  EXPECT_EQ(fresh.bank_version, 2u);
  EXPECT_EQ(fresh.checksum, cold.checksum)
      << "an identical bank must reproduce identical results";
}

}  // namespace
}  // namespace wise::learn
