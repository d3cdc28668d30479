#include "storage/file_kv.h"

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <vector>

#include "common/codec.h"
#include "common/logging.h"

namespace fs = std::filesystem;

namespace aodb {

namespace {

constexpr char kSegPrefix[] = "seg-";
constexpr char kSegSuffix[] = ".log";

std::string SegPath(const std::string& dir, int64_t seq) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%s%08lld%s", kSegPrefix,
                static_cast<long long>(seq), kSegSuffix);
  return dir + "/" + buf;
}

/// Parses "seg-N.log" into N; returns -1 if not a segment file name.
int64_t ParseSegSeq(const std::string& name) {
  if (name.size() <= sizeof(kSegPrefix) - 1 + sizeof(kSegSuffix) - 1)
    return -1;
  if (name.compare(0, 4, kSegPrefix) != 0) return -1;
  if (name.compare(name.size() - 4, 4, kSegSuffix) != 0) return -1;
  std::string digits = name.substr(4, name.size() - 8);
  for (char c : digits) {
    if (c < '0' || c > '9') return -1;
  }
  return std::strtoll(digits.c_str(), nullptr, 10);
}

}  // namespace

FileKvStore::FileKvStore(std::string dir, FileKvOptions options)
    : dir_(std::move(dir)), options_(options) {}

FileKvStore::~FileKvStore() { Close(); }

Result<std::unique_ptr<FileKvStore>> FileKvStore::Open(
    const std::string& dir, const FileKvOptions& options) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) return Status::IoError("cannot create dir " + dir);
  std::unique_ptr<FileKvStore> store(new FileKvStore(dir, options));
  Status st = store->ReplaySegments();
  if (!st.ok()) return st;
  return store;
}

Status FileKvStore::ReplaySegments() {
  std::vector<int64_t> seqs;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    int64_t seq = ParseSegSeq(entry.path().filename().string());
    if (seq >= 0) seqs.push_back(seq);
  }
  std::sort(seqs.begin(), seqs.end());
  for (int64_t seq : seqs) {
    std::FILE* f = std::fopen(SegPath(dir_, seq).c_str(), "rb");
    if (f == nullptr) return Status::IoError("cannot open segment");
    for (;;) {
      uint8_t header[8];
      size_t n = std::fread(header, 1, 8, f);
      if (n < 8) break;  // Clean EOF or torn header: stop replay here.
      uint32_t crc, len;
      std::memcpy(&crc, header, 4);
      std::memcpy(&len, header + 4, 4);
      if (len > kMaxRecordBytes) {
        AODB_LOG(Warn, "segment %lld: implausible record length, truncating",
                 static_cast<long long>(seq));
        break;
      }
      std::string payload(len, '\0');
      if (std::fread(payload.data(), 1, len, f) < len) break;  // Torn tail.
      if (Crc32c(payload) != crc) {
        AODB_LOG(Warn, "segment %lld: CRC mismatch, truncating replay",
                 static_cast<long long>(seq));
        break;
      }
      // Decode a batch of ops.
      BufReader r(payload);
      uint64_t count = 0;
      if (!r.GetVarint(&count).ok()) break;
      bool bad = false;
      for (uint64_t i = 0; i < count && !bad; ++i) {
        uint8_t is_delete = 0;
        std::string key, value;
        if (!r.GetU8(&is_delete).ok() || !r.GetString(&key).ok()) {
          bad = true;
          break;
        }
        if (is_delete == 0 && !r.GetString(&value).ok()) {
          bad = true;
          break;
        }
        if (is_delete != 0) {
          auto it = table_.find(key);
          if (it != table_.end()) {
            live_bytes_ -=
                static_cast<int64_t>(it->first.size() + it->second.size());
            table_.erase(it);
          }
        } else {
          auto it = table_.find(key);
          if (it != table_.end()) {
            live_bytes_ -= static_cast<int64_t>(it->second.size());
            it->second = std::move(value);
            live_bytes_ += static_cast<int64_t>(it->second.size());
          } else {
            live_bytes_ += static_cast<int64_t>(key.size() + value.size());
            table_.emplace(std::move(key), std::move(value));
          }
        }
      }
      if (bad) break;
    }
    std::fclose(f);
  }
  int64_t next_seq = seqs.empty() ? 0 : seqs.back() + 1;
  return OpenActiveSegment(next_seq);
}

Status FileKvStore::OpenActiveSegment(int64_t seq) {
  active_ = std::fopen(SegPath(dir_, seq).c_str(), "ab");
  if (active_ == nullptr) return Status::IoError("cannot open active segment");
  active_seq_ = seq;
  return Status::OK();
}

std::string FileKvStore::EncodeBatch(const WriteBatch& batch) {
  BufWriter w;
  w.PutVarint(batch.ops.size());
  for (const auto& op : batch.ops) {
    w.PutU8(op.is_delete ? 1 : 0);
    w.PutString(op.key);
    if (!op.is_delete) w.PutString(op.value);
  }
  return w.Release();
}

Status FileKvStore::AppendRecord(const std::string& payload) {
  if (closed_ || active_ == nullptr) {
    return Status::FailedPrecondition("store is closed");
  }
  if (payload.size() > kMaxRecordBytes) {
    return Status::InvalidArgument("record of " +
                                   std::to_string(payload.size()) +
                                   " bytes exceeds the log's record limit");
  }
  uint32_t crc = Crc32c(payload);
  uint32_t len = static_cast<uint32_t>(payload.size());
  uint8_t header[8];
  std::memcpy(header, &crc, 4);
  std::memcpy(header + 4, &len, 4);
  if (std::fwrite(header, 1, 8, active_) < 8 ||
      std::fwrite(payload.data(), 1, payload.size(), active_) <
          payload.size()) {
    return Status::IoError("short write to segment");
  }
  if (std::fflush(active_) != 0) return Status::IoError("flush failed");
  if (options_.sync_writes) {
    // fileno+fsync: full durability when requested.
    if (fsync(fileno(active_)) != 0) return Status::IoError("fsync failed");
  }
  int64_t written = static_cast<int64_t>(8 + payload.size());
  bytes_appended_ += written;
  bytes_since_compaction_ += written;
  return Status::OK();
}

Status FileKvStore::ApplyLocked(const WriteBatch& batch) {
  AODB_RETURN_NOT_OK(AppendRecord(EncodeBatch(batch)));
  for (const auto& op : batch.ops) {
    if (op.is_delete) {
      auto it = table_.find(op.key);
      if (it != table_.end()) {
        live_bytes_ -=
            static_cast<int64_t>(it->first.size() + it->second.size());
        table_.erase(it);
      }
    } else {
      auto it = table_.find(op.key);
      if (it != table_.end()) {
        live_bytes_ -= static_cast<int64_t>(it->second.size());
        it->second = op.value;
        live_bytes_ += static_cast<int64_t>(op.value.size());
      } else {
        live_bytes_ += static_cast<int64_t>(op.key.size() + op.value.size());
        table_.emplace(op.key, op.value);
      }
    }
  }
  return MaybeCompactLocked();
}

Status FileKvStore::Put(const std::string& key, const std::string& value) {
  WriteBatch b;
  b.Put(key, value);
  return Apply(b);
}

Status FileKvStore::Delete(const std::string& key) {
  WriteBatch b;
  b.Delete(key);
  return Apply(b);
}

Status FileKvStore::Apply(const WriteBatch& batch) {
  std::lock_guard<std::mutex> lock(mu_);
  return ApplyLocked(batch);
}

Result<std::string> FileKvStore::Get(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = table_.find(key);
  if (it == table_.end()) return Status::NotFound("key: " + key);
  return it->second;
}

Result<std::vector<std::pair<std::string, std::string>>> FileKvStore::List(
    const std::string& prefix) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, std::string>> out;
  for (auto it = table_.lower_bound(prefix); it != table_.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    out.emplace_back(it->first, it->second);
  }
  return out;
}

Result<int64_t> FileKvStore::Count() {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(table_.size());
}

Status FileKvStore::MaybeCompactLocked() {
  if (bytes_since_compaction_ < options_.min_compaction_bytes) {
    return Status::OK();
  }
  if (static_cast<double>(live_bytes_) >
      options_.garbage_ratio * static_cast<double>(bytes_since_compaction_)) {
    return Status::OK();
  }
  // Rewrite live table into a fresh segment, then delete older segments.
  int64_t new_seq = active_seq_ + 1;
  std::FILE* old = active_;
  AODB_RETURN_NOT_OK(OpenActiveSegment(new_seq));
  std::fclose(old);
  bytes_since_compaction_ = 0;
  // The snapshot goes out as records under kMaxRecordBytes. A crash part
  // way through leaves the older segments in place, so replay still sees
  // every key. Per op: a flag byte, two length varints, key and value.
  constexpr size_t kVarintMax = 10;
  WriteBatch chunk;
  size_t chunk_bytes = kVarintMax;  // The op-count prefix.
  for (const auto& [k, v] : table_) {
    size_t op_bytes = 1 + 2 * kVarintMax + k.size() + v.size();
    if (!chunk.empty() && chunk_bytes + op_bytes > kMaxRecordBytes) {
      AODB_RETURN_NOT_OK(AppendRecord(EncodeBatch(chunk)));
      chunk.ops.clear();
      chunk_bytes = kVarintMax;
    }
    chunk.Put(k, v);
    chunk_bytes += op_bytes;
  }
  if (!chunk.empty()) AODB_RETURN_NOT_OK(AppendRecord(EncodeBatch(chunk)));
  // Snapshot bytes are not garbage; reset the counter after writing it.
  bytes_since_compaction_ = 0;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    int64_t seq = ParseSegSeq(entry.path().filename().string());
    if (seq >= 0 && seq < new_seq) {
      std::error_code ec;
      fs::remove(entry.path(), ec);
    }
  }
  ++compactions_;
  return Status::OK();
}

Status FileKvStore::Compact() {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t saved_min = bytes_since_compaction_;
  bytes_since_compaction_ =
      std::max<int64_t>(bytes_since_compaction_, options_.min_compaction_bytes);
  int64_t saved_live = live_bytes_;
  live_bytes_ = 0;  // Force the ratio check to pass.
  Status st = MaybeCompactLocked();
  live_bytes_ = saved_live;
  if (!st.ok()) bytes_since_compaction_ = saved_min;
  return st;
}

void FileKvStore::Close() {
  std::lock_guard<std::mutex> lock(mu_);
  if (closed_) return;
  closed_ = true;
  if (active_ != nullptr) {
    std::fclose(active_);
    active_ = nullptr;
  }
}

int64_t FileKvStore::BytesAppended() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_appended_;
}

int64_t FileKvStore::Compactions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return compactions_;
}

}  // namespace aodb
