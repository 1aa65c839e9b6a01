#include "util/fault.hpp"

#include <cstdio>
#include <cstdlib>
#include <set>

#include "util/env.hpp"
#include "util/hash.hpp"

namespace wise {

FaultInjector FaultInjector::from_env() {
  FaultInjector inj(static_cast<std::uint64_t>(env_int("WISE_FAULT_SEED", 0)));
  const std::string spec = env_string("WISE_FAULT_STAGES", "");
  std::set<std::string, std::less<>> seen;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t end = spec.find(',', pos);
    if (end == std::string::npos) end = spec.size();
    std::string item = spec.substr(pos, end - pos);
    pos = end + 1;
    if (item.empty()) continue;
    double rate = 1.0;
    const std::size_t colon = item.find(':');
    if (colon != std::string::npos) {
      const std::string rate_s = item.substr(colon + 1);
      char* parse_end = nullptr;
      rate = std::strtod(rate_s.c_str(), &parse_end);
      if (parse_end == rate_s.c_str() || *parse_end != '\0') {
        throw Error(ErrorCategory::kValidation,
                    "WISE_FAULT_STAGES: bad rate in '" + item + "'");
      }
      item.resize(colon);
    }
    if (item.empty()) {
      throw Error(ErrorCategory::kValidation,
                  "WISE_FAULT_STAGES: empty stage name in '" + spec + "'");
    }
    // A repeated stage name is almost always a typo'd rate edit. arm() is
    // insert_or_assign (last wins), which would silently drop the earlier
    // rate — keep the FIRST armed rate and warn instead.
    if (!seen.insert(item).second) {
      std::fprintf(stderr,
                   "FaultInjector: WISE_FAULT_STAGES names stage '%s' more "
                   "than once; keeping the first rate\n",
                   item.c_str());
      continue;
    }
    inj.arm(item, rate);
  }
  return inj;
}

FaultInjector& FaultInjector::global() {
  static FaultInjector instance = from_env();
  return instance;
}

void FaultInjector::arm(std::string_view stg, double rate) {
  rate = rate < 0.0 ? 0.0 : (rate > 1.0 ? 1.0 : rate);
  StageState state;
  state.rate = rate;
  // FNV-1a over the stage name: each stage gets an independent PRNG stream
  // derived from one seed.
  state.rng = SplitMix64(seed_ ^ fnv1a(stg));
  std::lock_guard<std::mutex> lock(mutex_);
  stages_.insert_or_assign(std::string(stg), state);
}

void FaultInjector::disarm(std::string_view stg) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = stages_.find(stg);
  if (it != stages_.end()) stages_.erase(it);
}

void FaultInjector::disarm_all() {
  std::lock_guard<std::mutex> lock(mutex_);
  stages_.clear();
}

bool FaultInjector::armed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, state] : stages_) {
    if (state.rate > 0.0) return true;
  }
  return false;
}

std::uint64_t FaultInjector::next_trip(std::string_view stg) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = stages_.find(stg);
  if (it == stages_.end()) return 0;
  StageState& state = it->second;
  if (state.rate <= 0.0) return 0;
  // Draw even when rate == 1 so lowering the rate later continues the same
  // deterministic stream.
  const double u =
      static_cast<double>(state.rng.next() >> 11) * 0x1.0p-53;
  const bool fail = state.rate >= 1.0 || u < state.rate;
  if (!fail) return 0;
  return ++state.trips;
}

bool FaultInjector::should_fail(std::string_view stg) {
  return next_trip(stg) != 0;
}

void FaultInjector::maybe_throw(std::string_view stg, ErrorCategory category) {
  const std::uint64_t trip = next_trip(stg);
  if (trip == 0) return;
  ErrorContext ctx;
  ctx.stage = std::string(stg);
  throw Error(category, "injected fault (trip #" + std::to_string(trip) + ")",
              std::move(ctx));
}

std::uint64_t FaultInjector::trip_count(std::string_view stg) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = stages_.find(stg);
  return it == stages_.end() ? 0 : it->second.trips;
}

}  // namespace wise
