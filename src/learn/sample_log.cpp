#include "learn/sample_log.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <filesystem>
#include <system_error>
#include <unistd.h>
#include <utility>

#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/hash.hpp"

namespace wise::learn {

namespace {

// A record is a feature vector (~67 doubles) plus a config name; anything
// near this cap means the length field itself is damaged, in which case
// framing is lost and the rest of the file is unrecoverable.
constexpr std::size_t kMaxRecordBytes = std::size_t{1} << 20;
constexpr std::size_t kFrameHeader = sizeof(std::uint32_t) +
                                     sizeof(std::uint64_t);

template <typename T>
void put(std::string& out, T v) {
  char buf[sizeof(T)];
  std::memcpy(buf, &v, sizeof(T));
  out.append(buf, sizeof(T));
}

template <typename T>
T take(std::string_view payload, std::size_t& off) {
  if (off + sizeof(T) > payload.size()) {
    throw Error(ErrorCategory::kParse, "sample payload truncated",
                {.offset = off});
  }
  T v;
  std::memcpy(&v, payload.data() + off, sizeof(T));
  off += sizeof(T);
  return v;
}

std::string frame_record(const Sample& s) {
  const std::string payload = encode_sample(s);
  std::string frame;
  frame.reserve(kFrameHeader + payload.size());
  put(frame, static_cast<std::uint32_t>(payload.size()));
  put(frame, fnv1a(payload));
  frame += payload;
  return frame;
}

}  // namespace

std::uint64_t wal_checksum(std::string_view payload) {
  return fnv1a(payload);
}

const char* workload_class_name(WorkloadClass c) {
  switch (c) {
    case WorkloadClass::kSpmv: return "spmv";
    case WorkloadClass::kSpmm: return "spmm";
    case WorkloadClass::kSession: return "session";
  }
  return "unknown";
}

std::string encode_sample(const Sample& s) {
  std::string out;
  put(out, s.fingerprint);
  put(out, s.bank_version);
  put(out, s.predicted_class);
  put(out, s.observed_class);
  put(out, s.rel_time);
  put(out, static_cast<std::uint32_t>(s.config_name.size()));
  out += s.config_name;
  put(out, static_cast<std::uint32_t>(s.features.size()));
  for (double f : s.features) put(out, f);
  // v2: workload class rides at the end so a v1 reader's fields all stay
  // at their old offsets.
  put(out, s.workload_class);
  return out;
}

Sample decode_sample(std::string_view payload, bool* legacy) {
  std::size_t off = 0;
  Sample s;
  s.fingerprint = take<std::uint64_t>(payload, off);
  s.bank_version = take<std::uint64_t>(payload, off);
  s.predicted_class = take<std::int32_t>(payload, off);
  s.observed_class = take<std::int32_t>(payload, off);
  s.rel_time = take<double>(payload, off);
  const auto name_len = take<std::uint32_t>(payload, off);
  if (off + name_len > payload.size()) {
    throw Error(ErrorCategory::kParse, "sample config name truncated",
                {.offset = off});
  }
  s.config_name.assign(payload.data() + off, name_len);
  off += name_len;
  const auto feat_count = take<std::uint32_t>(payload, off);
  if (off + std::size_t{feat_count} * sizeof(double) > payload.size()) {
    throw Error(ErrorCategory::kParse, "sample feature vector truncated",
                {.offset = off});
  }
  s.features.resize(feat_count);
  for (auto& f : s.features) f = take<double>(payload, off);
  if (off == payload.size()) {
    // v1 payload: no workload byte. Those logs predate SpMM/session
    // serving, so every record is an SpMV sample.
    s.workload_class = static_cast<std::uint8_t>(WorkloadClass::kSpmv);
    if (legacy) *legacy = true;
    return s;
  }
  s.workload_class = take<std::uint8_t>(payload, off);
  if (legacy) *legacy = false;
  if (off != payload.size()) {
    throw Error(ErrorCategory::kParse, "sample payload has trailing bytes",
                {.offset = off});
  }
  return s;
}

SampleLog::SampleLog(std::string path, std::size_t max_records)
    : path_(std::move(path)),
      max_records_(max_records < 2 ? 2 : max_records) {}

RecoveryStats SampleLog::open() {
  RecoveryStats stats;
  samples_.clear();
  out_.close();

  {
    // First open in a fresh data dir: make the parent exist.
    const auto parent = std::filesystem::path(path_).parent_path();
    if (!parent.empty()) {
      std::error_code ignored;
      std::filesystem::create_directories(parent, ignored);
    }
  }

  std::string data;
  {
    std::ifstream in(path_, std::ios::binary);
    if (in) {
      data.assign(std::istreambuf_iterator<char>(in),
                  std::istreambuf_iterator<char>());
    }
  }

  // v1 and v2 headers are the same length and frame records identically,
  // so an old log reads in place; its records just lack the workload byte.
  static_assert(kMagic.size() == kMagicV1.size());
  const auto header = std::string_view(data).substr(
      0, std::min(data.size(), kMagic.size()));
  bool rewrite = false;
  std::size_t good_end = 0;
  if (data.empty()) {
    rewrite = true;  // new (or empty) log: write the header
  } else if (header != kMagic && header != kMagicV1) {
    stats.header_rewritten = true;
    rewrite = true;
  } else {
    std::size_t off = kMagic.size();
    good_end = off;
    while (off < data.size()) {
      if (off + kFrameHeader > data.size()) break;  // torn frame header
      std::size_t cursor = off;
      const auto len = take<std::uint32_t>(data, cursor);
      if (len == 0 || len > kMaxRecordBytes) break;  // length damaged: torn
      const auto checksum = take<std::uint64_t>(data, cursor);
      if (cursor + len > data.size()) break;  // torn payload
      const std::string_view payload(data.data() + cursor, len);
      off = cursor + len;
      if (fnv1a(payload) != checksum) {
        ++stats.corrupt_skipped;  // framing intact: skip just this record
        good_end = off;
        continue;
      }
      try {
        bool legacy = false;
        samples_.push_back(decode_sample(payload, &legacy));
        ++stats.records;
        if (legacy) ++stats.legacy_records;
      } catch (const Error&) {
        ++stats.corrupt_skipped;
      }
      good_end = off;
    }
    stats.torn_tail_bytes = data.size() - good_end;
    if (stats.legacy_records > 0) {
      std::fprintf(stderr,
                   "SampleLog: %zu v1 record(s) in %s read as spmv "
                   "(no workload byte)\n",
                   stats.legacy_records, path_.c_str());
    }
  }

  if (rewrite) {
    std::ofstream fresh(path_, std::ios::binary | std::ios::trunc);
    if (!fresh) {
      throw Error(ErrorCategory::kResource,
                  "SampleLog: cannot create " + path_, {.file = path_});
    }
    fresh.write(kMagic.data(),
                static_cast<std::streamsize>(kMagic.size()));
    fresh.flush();
    bytes_ = kMagic.size();
  } else if (stats.torn_tail_bytes > 0) {
    // Physically drop the torn tail so the next append starts a clean
    // frame instead of extending garbage.
    std::error_code ec;
    std::filesystem::resize_file(path_, good_end, ec);
    if (ec) {
      throw Error(ErrorCategory::kResource,
                  "SampleLog: cannot truncate torn tail of " + path_,
                  {.file = path_});
    }
    bytes_ = good_end;
  } else {
    bytes_ = data.size();
  }

  out_.open(path_, std::ios::binary | std::ios::app);
  if (!out_) {
    throw Error(ErrorCategory::kResource,
                "SampleLog: cannot open " + path_ + " for append",
                {.file = path_});
  }
  return stats;
}

void SampleLog::append(const Sample& s) {
  FaultInjector::global().maybe_throw(stage::kSampleLog,
                                      ErrorCategory::kResource);
  if (!out_.is_open()) {
    throw Error(ErrorCategory::kResource,
                "SampleLog: append before open()", {.file = path_});
  }
  out_.clear();  // a previous failed append must not poison this one
  const std::string frame = frame_record(s);
  out_.write(frame.data(), static_cast<std::streamsize>(frame.size()));
  out_.flush();
  if (!out_) {
    throw Error(ErrorCategory::kResource,
                "SampleLog: write failed for " + path_, {.file = path_});
  }
  bytes_ += frame.size();
  samples_.push_back(s);
  if (samples_.size() > max_records_) rotate();
}

void SampleLog::rotate() {
  // Compact to the newest half. Temp + atomic rename (the exp/cache.cpp
  // pattern): a crash mid-rotation leaves a stale *.tmp, never a log with
  // half its records.
  const std::size_t keep = max_records_ / 2;
  std::vector<Sample> kept(samples_.end() - static_cast<std::ptrdiff_t>(keep),
                           samples_.end());
  const std::string tmp = path_ + ".tmp." + std::to_string(::getpid());
  std::size_t new_bytes = kMagic.size();
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw Error(ErrorCategory::kResource,
                  "SampleLog: cannot create " + tmp, {.file = tmp});
    }
    out.write(kMagic.data(), static_cast<std::streamsize>(kMagic.size()));
    for (const Sample& s : kept) {
      const std::string frame = frame_record(s);
      out.write(frame.data(), static_cast<std::streamsize>(frame.size()));
      new_bytes += frame.size();
    }
    out.flush();
    if (!out) {
      std::error_code ignored;
      std::filesystem::remove(tmp, ignored);
      throw Error(ErrorCategory::kResource,
                  "SampleLog: rotation write failed for " + tmp,
                  {.file = tmp});
    }
  }
  out_.close();
  std::error_code ec;
  std::filesystem::rename(tmp, path_, ec);
  if (ec) {
    std::error_code ignored;
    std::filesystem::remove(tmp, ignored);
    throw Error(ErrorCategory::kResource,
                "SampleLog: rotation rename failed: " + ec.message(),
                {.file = path_});
  }
  out_.open(path_, std::ios::binary | std::ios::app);
  if (!out_) {
    throw Error(ErrorCategory::kResource,
                "SampleLog: cannot reopen " + path_ + " after rotation",
                {.file = path_});
  }
  samples_ = std::move(kept);
  bytes_ = new_bytes;
  ++rotations_;
}

}  // namespace wise::learn
