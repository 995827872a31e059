#include "binlog/log_store.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <sstream>

namespace replidb::binlog {

namespace fs = std::filesystem;

uint64_t LogStore::ConsumeTornWrite(uint64_t size) {
  if (torn_keep_bytes_ < 0) return size;
  uint64_t keep = std::min<uint64_t>(static_cast<uint64_t>(torn_keep_bytes_),
                                     size);
  torn_keep_bytes_ = -1;
  return keep;
}

uint64_t LogStore::ConsumePartialSync() {
  if (partial_sync_drop_ < 0) return 0;
  uint64_t drop = static_cast<uint64_t>(partial_sync_drop_);
  partial_sync_drop_ = -1;
  return drop;
}

// ---------------------------------------------------------------------------
// MemLogStore
// ---------------------------------------------------------------------------

Status MemLogStore::Create(uint64_t segment) {
  if (segments_.count(segment)) {
    return Status::AlreadyExists("segment exists");
  }
  segments_[segment];
  return Status::OK();
}

Status MemLogStore::Append(uint64_t segment, std::string_view data) {
  if (fail_appends_) return Status::DiskFull("binlog store: appends failing");
  auto it = segments_.find(segment);
  if (it == segments_.end()) return Status::NotFound("no such segment");
  uint64_t keep = ConsumeTornWrite(data.size());
  it->second.data.append(data.data(), keep);
  return Status::OK();
}

Status MemLogStore::Sync(uint64_t segment) {
  auto it = segments_.find(segment);
  if (it == segments_.end()) return Status::NotFound("no such segment");
  uint64_t drop = ConsumePartialSync();
  size_t target = it->second.data.size();
  target -= std::min<size_t>(target, drop);
  it->second.synced_bytes = std::max(it->second.synced_bytes, target);
  return Status::OK();
}

Result<std::string> MemLogStore::Read(uint64_t segment, uint64_t offset,
                                      uint64_t max_bytes) const {
  auto it = segments_.find(segment);
  if (it == segments_.end()) return Status::NotFound("no such segment");
  const std::string& data = it->second.data;
  if (offset >= data.size()) return std::string();
  return data.substr(offset, max_bytes);
}

Status MemLogStore::Truncate(uint64_t segment, uint64_t size) {
  auto it = segments_.find(segment);
  if (it == segments_.end()) return Status::NotFound("no such segment");
  if (size < it->second.data.size()) {
    it->second.data.resize(size);
    it->second.synced_bytes = std::min<size_t>(it->second.synced_bytes, size);
  }
  return Status::OK();
}

Status MemLogStore::Delete(uint64_t segment) {
  if (segments_.erase(segment) == 0) return Status::NotFound("no such segment");
  return Status::OK();
}

std::vector<uint64_t> MemLogStore::List() const {
  std::vector<uint64_t> out;
  for (const auto& [seg, s] : segments_) {
    (void)s;
    out.push_back(seg);
  }
  return out;
}

Status MemLogStore::WriteMeta(const std::string& key, std::string_view value) {
  if (fail_appends_) return Status::DiskFull("binlog store: appends failing");
  meta_[key] = std::string(value);
  return Status::OK();
}

Result<std::string> MemLogStore::ReadMeta(const std::string& key) const {
  auto it = meta_.find(key);
  if (it == meta_.end()) return Status::NotFound("no such meta key");
  return it->second;
}

void MemLogStore::DropUnsynced() {
  for (auto& [seg, s] : segments_) {
    (void)seg;
    if (s.data.size() > s.synced_bytes) s.data.resize(s.synced_bytes);
  }
}

std::string MemLogStore::DebugSerialize() const {
  std::ostringstream out;
  for (const auto& [seg, s] : segments_) {
    out << "segment " << seg << " bytes=" << s.data.size() << " crc="
        << std::hex;
    // Cheap content fingerprint: FNV-1a over the bytes.
    uint64_t h = 1469598103934665603ull;
    for (char c : s.data) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
    out << h << std::dec << "\n";
  }
  for (const auto& [k, v] : meta_) out << "meta " << k << "=" << v << "\n";
  return out.str();
}

Status MemLogStore::CorruptAt(uint64_t segment, size_t offset, char value) {
  auto it = segments_.find(segment);
  if (it == segments_.end()) return Status::NotFound("no such segment");
  if (offset >= it->second.data.size()) {
    return Status::InvalidArgument("offset beyond segment");
  }
  it->second.data[offset] = value;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// FileLogStore
// ---------------------------------------------------------------------------

FileLogStore::FileLogStore(std::string directory)
    : directory_(std::move(directory)) {}

FileLogStore::~FileLogStore() {
  for (const auto& [seg, fd] : fds_) {
    (void)seg;
    if (fd >= 0) ::close(fd);
  }
}

std::string FileLogStore::SegmentPath(uint64_t segment) const {
  char name[32];
  std::snprintf(name, sizeof(name), "seg-%08llu.log",
                static_cast<unsigned long long>(segment));
  return directory_ + "/" + name;
}

Status FileLogStore::Open() {
  std::error_code ec;
  fs::create_directories(directory_, ec);
  if (ec) return Status::Internal("cannot create log dir: " + ec.message());
  for (const auto& entry : fs::directory_iterator(directory_, ec)) {
    std::string name = entry.path().filename().string();
    unsigned long long seg = 0;
    if (std::sscanf(name.c_str(), "seg-%8llu.log", &seg) == 1) {
      uint64_t size = static_cast<uint64_t>(fs::file_size(entry.path(), ec));
      synced_bytes_[seg] = ec ? 0 : size;
    }
  }
  if (ec) return Status::Internal("cannot scan log dir: " + ec.message());
  return Status::OK();
}

Status FileLogStore::Create(uint64_t segment) {
  if (synced_bytes_.count(segment)) {
    return Status::AlreadyExists("segment exists");
  }
  int fd = ::open(SegmentPath(segment).c_str(),
                  O_CREAT | O_EXCL | O_WRONLY | O_APPEND, 0644);
  if (fd < 0) return Status::Internal("open: " + std::string(strerror(errno)));
  fds_[segment] = fd;
  synced_bytes_[segment] = 0;
  return Status::OK();
}

Status FileLogStore::Append(uint64_t segment, std::string_view data) {
  if (fail_appends_) return Status::DiskFull("binlog store: appends failing");
  auto it = fds_.find(segment);
  if (it == fds_.end()) {
    if (!synced_bytes_.count(segment)) return Status::NotFound("no segment");
    int fd = ::open(SegmentPath(segment).c_str(), O_WRONLY | O_APPEND);
    if (fd < 0) {
      return Status::Internal("open: " + std::string(strerror(errno)));
    }
    it = fds_.emplace(segment, fd).first;
  }
  uint64_t keep = ConsumeTornWrite(data.size());
  size_t done = 0;
  while (done < keep) {
    ssize_t n = ::write(it->second, data.data() + done, keep - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal("write: " + std::string(strerror(errno)));
    }
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status FileLogStore::Sync(uint64_t segment) {
  auto it = fds_.find(segment);
  if (it == fds_.end()) return Status::NotFound("no open segment");
  if (::fsync(it->second) != 0) {
    return Status::Internal("fsync: " + std::string(strerror(errno)));
  }
  std::error_code ec;
  uint64_t size = static_cast<uint64_t>(fs::file_size(SegmentPath(segment), ec));
  if (ec) return Status::Internal("stat after fsync: " + ec.message());
  uint64_t drop = ConsumePartialSync();
  size -= std::min(size, drop);
  synced_bytes_[segment] = std::max(synced_bytes_[segment], size);
  return Status::OK();
}

Result<std::string> FileLogStore::Read(uint64_t segment, uint64_t offset,
                                       uint64_t max_bytes) const {
  std::FILE* f = std::fopen(SegmentPath(segment).c_str(), "rb");
  if (f == nullptr) return Status::NotFound("no such segment file");
  std::string data;
  if (std::fseek(f, static_cast<long>(offset), SEEK_SET) == 0) {
    char buf[1 << 16];
    size_t n = 0;
    while (data.size() < max_bytes &&
           (n = std::fread(buf, 1,
                           std::min<uint64_t>(sizeof(buf),
                                              max_bytes - data.size()),
                           f)) > 0) {
      data.append(buf, n);
    }
  }
  std::fclose(f);
  return data;
}

Status FileLogStore::Truncate(uint64_t segment, uint64_t size) {
  if (!synced_bytes_.count(segment)) return Status::NotFound("no segment");
  auto it = fds_.find(segment);
  if (it != fds_.end()) {
    ::close(it->second);
    fds_.erase(it);
  }
  if (::truncate(SegmentPath(segment).c_str(),
                 static_cast<off_t>(size)) != 0) {
    return Status::Internal("truncate: " + std::string(strerror(errno)));
  }
  synced_bytes_[segment] = std::min(synced_bytes_[segment], size);
  return Status::OK();
}

Status FileLogStore::Delete(uint64_t segment) {
  auto it = fds_.find(segment);
  if (it != fds_.end()) {
    ::close(it->second);
    fds_.erase(it);
  }
  if (synced_bytes_.erase(segment) == 0) {
    return Status::NotFound("no segment");
  }
  std::error_code ec;
  fs::remove(SegmentPath(segment), ec);
  if (ec) return Status::Internal("unlink: " + ec.message());
  return Status::OK();
}

std::vector<uint64_t> FileLogStore::List() const {
  std::vector<uint64_t> out;
  for (const auto& [seg, size] : synced_bytes_) {
    (void)size;
    out.push_back(seg);
  }
  return out;
}

Status FileLogStore::WriteMeta(const std::string& key, std::string_view value) {
  if (fail_appends_) return Status::DiskFull("binlog store: appends failing");
  std::string tmp = directory_ + "/meta-" + key + ".tmp";
  std::string final_path = directory_ + "/meta-" + key;
  int fd = ::open(tmp.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd < 0) return Status::Internal("open meta: " + std::string(strerror(errno)));
  size_t done = 0;
  while (done < value.size()) {
    ssize_t n = ::write(fd, value.data() + done, value.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return Status::Internal("write meta: " + std::string(strerror(errno)));
    }
    done += static_cast<size_t>(n);
  }
  ::fsync(fd);
  ::close(fd);
  // Atomic replace: readers see the old or the new value, never a tear.
  if (::rename(tmp.c_str(), final_path.c_str()) != 0) {
    return Status::Internal("rename meta: " + std::string(strerror(errno)));
  }
  return Status::OK();
}

Result<std::string> FileLogStore::ReadMeta(const std::string& key) const {
  std::FILE* f = std::fopen((directory_ + "/meta-" + key).c_str(), "rb");
  if (f == nullptr) return Status::NotFound("no such meta key");
  std::string data;
  char buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) data.append(buf, n);
  std::fclose(f);
  return data;
}

void FileLogStore::DropUnsynced() {
  for (auto& [seg, fd] : fds_) {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
  fds_.clear();
  for (const auto& [seg, synced] : synced_bytes_) {
    std::error_code ec;
    uint64_t size = static_cast<uint64_t>(fs::file_size(SegmentPath(seg), ec));
    if (!ec && size > synced) {
      (void)::truncate(SegmentPath(seg).c_str(), static_cast<off_t>(synced));
    }
  }
}

std::string FileLogStore::DebugSerialize() const {
  std::ostringstream out;
  for (const auto& [seg, synced] : synced_bytes_) {
    Result<std::string> data = Read(seg);
    size_t bytes = data.ok() ? data.value().size() : 0;
    out << "segment " << seg << " bytes=" << bytes << " synced=" << synced
        << "\n";
  }
  return out.str();
}

}  // namespace replidb::binlog
