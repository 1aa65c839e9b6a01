#pragma once
// Crash-safe write-ahead log of served-prediction samples — the durable
// half of the online-learning loop (docs/LEARNING.md).
//
// Every RUN the server executes yields one labeled sample: the cached
// feature vector, the configuration the bank chose, the class it predicted,
// and the class actually observed (measured runtime of the chosen config
// relative to the CSR baseline). Those samples are the retraining corpus,
// so they must survive a crash mid-append.
//
// On-disk format (single file, platform-native byte order — a local log,
// like serve fingerprints, not an interchange format):
//
//   "wise-sample-log v2\n"                    header (magic)
//   [u32 payload bytes][u64 FNV-1a of payload][payload] ...   records
//
// v2 appends one workload-class byte (SpMV / SpMM / solver session) to the
// payload so multi-workload deployments can keep their drift windows
// separate. The bump is compatible both ways: open() accepts a v1 header
// unchanged (same length, records decode normally), and a v1 payload —
// one byte short — decodes as SpMV with the record counted in
// RecoveryStats::legacy_records and warned about once, the same
// skip-and-warn posture corrupt records get.
//
// The payload is the Sample encoded by encode_sample(). The length field
// frames the record; the checksum detects payload corruption independently
// of framing. Recovery on open() distinguishes the two:
//   * a record whose frame extends past EOF is a TORN TAIL — the crash hit
//     mid-append. The tail is truncated (physically, so the next append
//     starts a clean frame) and the bytes are counted.
//   * a fully framed record whose checksum (or decode) fails is CORRUPT —
//     bit rot or a foreign write. It is skipped with a counted warning and
//     recovery continues at the next frame, exactly the ModelBank v2
//     skip-and-warn posture.
//   * a missing or garbled header abandons the file: recovery reports it
//     and open() rewrites a fresh log (the samples were unreadable anyway).
//
// Rotation: the log is capped at `max_records`; crossing the cap compacts
// to the newest half via temp-file + atomic rename (the exp/cache.cpp
// crash-safety pattern — a kill mid-rotation leaves a stale *.tmp, never a
// half-written log).
//
// Fault injection: append() consults the `sample_log` stage
// (WISE_FAULT_STAGES=sample_log), so tests can prove a WAL write error
// degrades to continued serving.
//
// Not internally synchronized: the OnlineLearner serializes access.

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

namespace wise::learn {

/// Which operation class produced a sample. Values are stable — they are
/// the WAL's on-disk workload byte. The OnlineLearner tracks only SpMV
/// samples in its drift window; samples of other classes are still
/// WAL-appended (they are valid training material for their own bank) but
/// never pollute the SpMV window.
enum class WorkloadClass : std::uint8_t {
  kSpmv = 0,     ///< single-vector RUN requests
  kSpmm = 1,     ///< multi-vector SpMM requests (src/spmm/)
  kSession = 2,  ///< iterative SOLVE sessions
};

/// Stable lowercase name ("spmv", "spmm", "session").
const char* workload_class_name(WorkloadClass c);

/// One labeled observation of a served RUN.
struct Sample {
  std::uint64_t fingerprint = 0;   ///< structural matrix fingerprint
  std::uint64_t bank_version = 0;  ///< bank that made the prediction
  std::int32_t predicted_class = 0;
  std::int32_t observed_class = 0;
  double rel_time = 0;  ///< measured t_chosen / t_csr_baseline
  std::string config_name;
  std::vector<double> features;
  /// On-disk workload byte; v1 records decode as kSpmv.
  std::uint8_t workload_class =
      static_cast<std::uint8_t>(WorkloadClass::kSpmv);

  friend bool operator==(const Sample&, const Sample&) = default;
};

/// Serializes a sample to the WAL payload encoding (exposed for tests that
/// craft corrupt fixtures byte-by-byte).
std::string encode_sample(const Sample& s);

/// Inverse of encode_sample. Throws wise::Error (kParse) on malformed
/// payloads. A v1 payload (no workload byte) decodes as kSpmv and sets
/// *legacy when the caller asks.
Sample decode_sample(std::string_view payload, bool* legacy = nullptr);

/// The checksum the WAL frames carry (FNV-1a over the payload bytes).
std::uint64_t wal_checksum(std::string_view payload);

/// What open() found on disk.
struct RecoveryStats {
  std::size_t records = 0;          ///< samples recovered intact
  std::size_t corrupt_skipped = 0;  ///< framed records with bad checksum/body
  std::size_t torn_tail_bytes = 0;  ///< trailing bytes truncated
  std::size_t legacy_records = 0;   ///< v1 records read as SpMV (warned)
  bool header_rewritten = false;    ///< header unusable; started fresh
};

class SampleLog {
 public:
  static constexpr std::string_view kMagic = "wise-sample-log v2\n";
  /// Still accepted by open(); same length, so records read identically.
  static constexpr std::string_view kMagicV1 = "wise-sample-log v1\n";

  /// `max_records` caps the log; crossing it compacts to the newest half.
  explicit SampleLog(std::string path, std::size_t max_records = 4096);

  /// Recovers the on-disk log (see file comment), truncates any torn tail,
  /// and opens for appending. Throws wise::Error (kResource) only when the
  /// file cannot be created at all.
  RecoveryStats open();

  /// Appends one record (write + flush). Throws wise::Error (kResource) on
  /// I/O failure and on an injected `sample_log` fault; the in-memory
  /// sample set is unchanged when it throws.
  void append(const Sample& s);

  /// Every sample currently in the log (recovered + appended), oldest
  /// first.
  const std::vector<Sample>& samples() const { return samples_; }

  /// Current on-disk size of the log in bytes.
  std::size_t bytes() const { return bytes_; }

  /// Compactions performed by this instance.
  std::uint64_t rotations() const { return rotations_; }

  const std::string& path() const { return path_; }
  std::size_t max_records() const { return max_records_; }

 private:
  void rotate();  ///< compact to the newest half via temp + rename

  std::string path_;
  std::size_t max_records_;
  std::vector<Sample> samples_;
  std::ofstream out_;
  std::size_t bytes_ = 0;
  std::uint64_t rotations_ = 0;
};

}  // namespace wise::learn
