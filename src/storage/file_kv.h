// Persistent log-structured KV store (bitcask-style): an append-only record
// log with CRC32C-checksummed records, an in-memory table of live entries,
// periodic compaction into a fresh segment, and full crash recovery by log
// replay. This is the durable medium standing in for the managed cloud
// store's backing storage.

#ifndef AODB_STORAGE_FILE_KV_H_
#define AODB_STORAGE_FILE_KV_H_

#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "storage/kv_store.h"

namespace aodb {

/// Tuning knobs for the log-structured store.
struct FileKvOptions {
  /// Compaction is triggered when the live data is smaller than
  /// `garbage_ratio` times the log bytes written since the last compaction.
  double garbage_ratio = 0.5;
  /// Minimum log bytes before compaction is considered.
  int64_t min_compaction_bytes = 4 << 20;
  /// fsync after every batch (slow; off by default, matching the paper's
  /// "grain storage write rate is a tunable durability decision").
  bool sync_writes = false;
};

/// Single-directory persistent store. Thread-safe.
///
/// On-disk layout: numbered segment files `<dir>/seg-N.log` containing
/// records `[crc32c(4)][len(4)][payload]` where the payload encodes either
/// a Put(key, value) or a Delete(key), or a batch thereof. Open() replays
/// all segments in order, dropping any trailing torn record.
class FileKvStore final : public KvStore {
 public:
  /// Largest record payload the log accepts. Replay treats a longer length
  /// field as a torn header, so writes over it are refused and compaction
  /// splits the live table into records under it.
  static constexpr uint32_t kMaxRecordBytes = 64u << 20;

  ~FileKvStore() override;

  /// Opens (creating if needed) the store in `dir`.
  static Result<std::unique_ptr<FileKvStore>> Open(
      const std::string& dir, const FileKvOptions& options = {});

  Status Put(const std::string& key, const std::string& value) override;
  Result<std::string> Get(const std::string& key) override;
  Status Delete(const std::string& key) override;
  Result<std::vector<std::pair<std::string, std::string>>> List(
      const std::string& prefix) override;
  Status Apply(const WriteBatch& batch) override;
  Result<int64_t> Count() override;

  /// Forces a compaction (rewrite of live data into a fresh segment).
  Status Compact();

  /// Closes the active segment file; further writes fail. Called by the
  /// destructor.
  void Close();

  /// Log bytes appended since open (for tests/benchmarks).
  int64_t BytesAppended() const;
  /// Number of compactions run.
  int64_t Compactions() const;

 private:
  FileKvStore(std::string dir, FileKvOptions options);

  Status ReplaySegments();
  Status OpenActiveSegment(int64_t seq);
  Status AppendRecord(const std::string& payload);
  Status MaybeCompactLocked();
  static std::string EncodeBatch(const WriteBatch& batch);
  Status ApplyLocked(const WriteBatch& batch);

  const std::string dir_;
  const FileKvOptions options_;

  mutable std::mutex mu_;
  std::map<std::string, std::string> table_;
  std::FILE* active_ = nullptr;
  int64_t active_seq_ = 0;
  int64_t bytes_appended_ = 0;
  int64_t bytes_since_compaction_ = 0;
  int64_t live_bytes_ = 0;
  int64_t compactions_ = 0;
  bool closed_ = false;
};

}  // namespace aodb

#endif  // AODB_STORAGE_FILE_KV_H_
