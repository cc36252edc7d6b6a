#include "serve/manifest.hpp"

#include <cstring>
#include <utility>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "util/failpoint.hpp"
#include "util/wire.hpp"

namespace nfacount {
namespace serve {

namespace {

constexpr char kManifestMagic[4] = {'N', 'F', 'M', 'F'};
constexpr size_t kManifestHeaderBytes = 8;
constexpr uint8_t kRecordRegister = 1;
constexpr uint8_t kRecordUnregister = 2;
// Entry framing overhead: u32 body length up front, u64 FNV-1a trailer.
constexpr size_t kEntryOverheadBytes = 12;
// Sanity bound on a declared body length — a registration is name + NFA
// text + scalars, and NFA text is itself bounded by the wire payload cap.
constexpr uint32_t kMaxEntryBodyBytes = 128u << 20;

std::string HeaderBytes() {
  ByteWriter w;
  w.Bytes(kManifestMagic, sizeof(kManifestMagic));
  w.U32(kManifestVersion);
  return std::move(w.buffer());
}

// Builds one on-disk entry: u32 body length, body, u64 checksum.
std::string EncodeEntry(const std::string& body) {
  ByteWriter w;
  w.U32(static_cast<uint32_t>(body.size()));
  w.Bytes(body.data(), body.size());
  w.U64(Fnv1a64(body.data(), body.size()));
  return std::move(w.buffer());
}

std::string EncodeRegisterBody(const ManifestRecord& record) {
  ByteWriter w;
  w.U8(kRecordRegister);
  w.String(record.name);
  w.String(record.nfa_text);
  w.I32(record.horizon);
  w.U64(record.seed);
  w.F64(record.eps);
  w.F64(record.delta);
  w.U32(record.flags);
  return std::move(w.buffer());
}

std::string EncodeUnregisterBody(const std::string& name) {
  ByteWriter w;
  w.U8(kRecordUnregister);
  w.String(name);
  return std::move(w.buffer());
}

Status DecodeBody(const std::string& body,
                  std::map<std::string, ManifestRecord>* live) {
  ByteReader r(body.data(), body.size());
  uint8_t type = 0;
  NFA_RETURN_NOT_OK(r.U8(&type));
  if (type == kRecordRegister) {
    ManifestRecord record;
    NFA_RETURN_NOT_OK(r.String(&record.name, body.size()));
    NFA_RETURN_NOT_OK(r.String(&record.nfa_text, body.size()));
    NFA_RETURN_NOT_OK(r.I32(&record.horizon));
    NFA_RETURN_NOT_OK(r.U64(&record.seed));
    NFA_RETURN_NOT_OK(r.F64(&record.eps));
    NFA_RETURN_NOT_OK(r.F64(&record.delta));
    NFA_RETURN_NOT_OK(r.U32(&record.flags));
    if (r.remaining() != 0) {
      return Status::DataLoss("manifest: record has trailing bytes");
    }
    (*live)[record.name] = std::move(record);
    return Status::Ok();
  }
  if (type == kRecordUnregister) {
    std::string name;
    NFA_RETURN_NOT_OK(r.String(&name, body.size()));
    if (r.remaining() != 0) {
      return Status::DataLoss("manifest: record has trailing bytes");
    }
    live->erase(name);
    return Status::Ok();
  }
  return Status::DataLoss("manifest: unknown record type");
}

Status WriteFileSynced(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::Unavailable("manifest: cannot open for writing: " + path);
  }
  bool ok = std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  if (ok && std::fflush(f) != 0) ok = false;
#ifndef _WIN32
  if (ok && fsync(fileno(f)) != 0) ok = false;
#endif
  if (std::fclose(f) != 0) ok = false;
  if (!ok) {
    std::remove(path.c_str());
    return Status::Unavailable("manifest: short write: " + path);
  }
  return Status::Ok();
}

}  // namespace

ManifestJournal::ManifestJournal(ManifestJournal&& other) noexcept
    : dir_(std::move(other.dir_)),
      path_(std::move(other.path_)),
      file_(other.file_),
      good_size_(other.good_size_),
      tail_dirty_(other.tail_dirty_),
      live_(std::move(other.live_)),
      replayed_records_(other.replayed_records_),
      dropped_tail_bytes_(other.dropped_tail_bytes_) {
  other.file_ = nullptr;
}

ManifestJournal& ManifestJournal::operator=(ManifestJournal&& other) noexcept {
  if (this == &other) return *this;
  if (file_ != nullptr) std::fclose(file_);
  dir_ = std::move(other.dir_);
  path_ = std::move(other.path_);
  file_ = other.file_;
  good_size_ = other.good_size_;
  tail_dirty_ = other.tail_dirty_;
  live_ = std::move(other.live_);
  replayed_records_ = other.replayed_records_;
  dropped_tail_bytes_ = other.dropped_tail_bytes_;
  other.file_ = nullptr;
  return *this;
}

ManifestJournal::~ManifestJournal() {
  if (file_ != nullptr) std::fclose(file_);
}

Result<ManifestJournal> ManifestJournal::Open(const std::string& dir) {
  if (dir.empty()) {
    return Status::Invalid("manifest: spill directory is empty");
  }
  ManifestJournal journal;
  journal.dir_ = dir;
  journal.path_ = dir + "/MANIFEST";

  // A MANIFEST.tmp is a compaction the previous process never finished; the
  // rename never happened, so the real manifest is intact and the tmp is
  // garbage.
  std::remove((journal.path_ + ".tmp").c_str());

  std::string bytes;
  const FileRead read = ReadFileBytes(journal.path_, &bytes);
  if (read == FileRead::kReadError) {
    return Status::DataLoss("manifest: read error: " + journal.path_);
  }
  const bool exists = read == FileRead::kOk;  // unopenable: a fresh journal

  bool needs_compaction = false;
  if (!exists || bytes.empty()) {
    NFA_RETURN_NOT_OK(WriteFileSynced(journal.path_, HeaderBytes()));
    journal.good_size_ = static_cast<int64_t>(kManifestHeaderBytes);
  } else {
    if (bytes.size() < kManifestHeaderBytes ||
        std::memcmp(bytes.data(), kManifestMagic, sizeof(kManifestMagic)) !=
            0) {
      return Status::Invalid("manifest: not a registry manifest (bad magic): " +
                             journal.path_);
    }
    ByteReader header(bytes.data() + sizeof(kManifestMagic), 4);
    uint32_t version = 0;
    NFA_RETURN_NOT_OK(header.U32(&version));
    if (version != kManifestVersion) {
      return Status::Invalid("manifest: unsupported version " +
                             std::to_string(version) + ": " + journal.path_);
    }

    // Replay: consume entries until the bytes run out or an entry fails its
    // framing or checksum — a torn tail from a crash mid-append. Everything
    // before the tear is authoritative; the tear itself was never
    // acknowledged to any caller.
    size_t pos = kManifestHeaderBytes;
    int64_t unregisters = 0;
    int64_t overwrites = 0;
    while (pos < bytes.size()) {
      ByteReader r(bytes.data() + pos, bytes.size() - pos);
      uint32_t body_len = 0;
      if (!r.U32(&body_len).ok() || body_len > kMaxEntryBodyBytes ||
          r.remaining() < body_len + 8) {
        break;  // torn tail
      }
      const char* body_data = bytes.data() + pos + 4;
      ByteReader tail(body_data + body_len, 8);
      uint64_t stored_sum = 0;
      if (!tail.U64(&stored_sum).ok() ||
          Fnv1a64(body_data, body_len) != stored_sum) {
        break;  // torn or corrupt tail
      }
      std::string body(body_data, body_len);
      const bool was_unregister =
          !body.empty() && static_cast<uint8_t>(body[0]) == kRecordUnregister;
      // Track dead records so Open can decide whether compaction pays.
      const size_t live_before = journal.live_.size();
      if (!DecodeBody(body, &journal.live_).ok()) break;
      if (was_unregister) {
        unregisters++;
      } else if (journal.live_.size() == live_before) {
        overwrites++;  // re-Register of a live name (last record wins)
      }
      journal.replayed_records_++;
      pos += kEntryOverheadBytes + body_len;
    }
    journal.dropped_tail_bytes_ = static_cast<int64_t>(bytes.size() - pos);
    journal.good_size_ = static_cast<int64_t>(pos);
    needs_compaction =
        journal.dropped_tail_bytes_ > 0 || unregisters > 0 || overwrites > 0;
  }

  if (needs_compaction) {
    NFA_RETURN_NOT_OK(journal.Compact());
  }
  return journal;
}

Status ManifestJournal::OpenForAppend() {
  if (file_ != nullptr) return Status::Ok();
  // "r+b" rather than "ab": append-mode writes ignore seeks, but healing a
  // torn tail needs to truncate and position explicitly.
  file_ = std::fopen(path_.c_str(), "r+b");
  if (file_ == nullptr) {
    return Status::Unavailable("manifest: cannot open for appending: " +
                               path_);
  }
  return Status::Ok();
}

Status ManifestJournal::AppendEntry(const std::string& entry) {
  NFA_RETURN_NOT_OK(OpenForAppend());
  if (tail_dirty_) {
    // A previous append failed partway; cut the file back to the last valid
    // entry so the new entry lands on a clean boundary.
#ifndef _WIN32
    if (ftruncate(fileno(file_), static_cast<off_t>(good_size_)) != 0) {
      return Status::Unavailable("manifest: cannot heal torn tail: " + path_);
    }
#endif
    tail_dirty_ = false;
  }
  if (std::fseek(file_, static_cast<long>(good_size_), SEEK_SET) != 0) {
    return Status::Unavailable("manifest: seek failed: " + path_);
  }

  const failpoint::Eval fault = failpoint::Check("manifest.append");
  if (fault.action == failpoint::Action::kError) {
    return Status::Unavailable("failpoint manifest.append: injected failure");
  }
  size_t to_write = entry.size();
  if (fault.action == failpoint::Action::kShortWrite &&
      static_cast<size_t>(fault.arg) < to_write) {
    // Injected crash mid-append: the torn bytes reach the disk (that is the
    // point — replay must stop at them), the entry is not acknowledged, and
    // the next successful append heals the tail first.
    to_write = static_cast<size_t>(fault.arg);
  }

  bool ok = std::fwrite(entry.data(), 1, to_write, file_) == entry.size();
  if (std::fflush(file_) != 0) ok = false;
#ifndef _WIN32
  if (fsync(fileno(file_)) != 0) ok = false;
#endif
  if (!ok) {
    tail_dirty_ = true;
    if (fault.fires()) {
      return Status::DataLoss("manifest: torn append (injected fault): " +
                              path_);
    }
    return Status::Unavailable("manifest: append failed: " + path_);
  }
  good_size_ += static_cast<int64_t>(entry.size());
  return Status::Ok();
}

Status ManifestJournal::AppendRegister(const ManifestRecord& record) {
  NFA_RETURN_NOT_OK(AppendEntry(EncodeEntry(EncodeRegisterBody(record))));
  live_[record.name] = record;
  return Status::Ok();
}

Status ManifestJournal::AppendUnregister(const std::string& name) {
  NFA_RETURN_NOT_OK(AppendEntry(EncodeEntry(EncodeUnregisterBody(name))));
  live_.erase(name);
  return Status::Ok();
}

Status ManifestJournal::Compact() {
  std::string bytes = HeaderBytes();
  for (const auto& entry : live_) {
    bytes += EncodeEntry(EncodeRegisterBody(entry.second));
  }
  // The checkpoint discipline: complete tmp, fsync, atomic rename. A crash
  // anywhere leaves either the old manifest or the new one, never a mix.
  const std::string tmp_path = path_ + ".tmp";
  NFA_RETURN_NOT_OK(WriteFileSynced(tmp_path, bytes));
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  if (std::rename(tmp_path.c_str(), path_.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    return Status::Unavailable("manifest: cannot move compacted manifest: " +
                               path_);
  }
  good_size_ = static_cast<int64_t>(bytes.size());
  tail_dirty_ = false;
  return Status::Ok();
}

}  // namespace serve
}  // namespace nfacount
