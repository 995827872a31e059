#ifndef REPLIDB_BINLOG_LOG_STORE_H_
#define REPLIDB_BINLOG_LOG_STORE_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace replidb::binlog {

/// \brief Storage abstraction under the segmented binlog: numbered
/// append-only segments plus a tiny atomic key/value area for watermarks.
///
/// Two backends: MemLogStore is the simulator's default (deterministic,
/// survives a simulated process crash the way an fsynced disk does), and
/// FileLogStore talks to a real directory (used by tools/blinspect and the
/// file-backend tests). All raw file I/O in the repo lives behind this
/// interface — replicheck's `raw-io` rule enforces it.
///
/// Durability model: Append buffers bytes; Sync makes everything appended
/// so far durable. DropUnsynced simulates the process dying — bytes not
/// covered by a successful Sync vanish. The injectable faults model the
/// two classic lies a disk stack tells (torn write, partial fsync): both
/// are delivered on the *next* matching operation, then self-clear.
class LogStore {
 public:
  virtual ~LogStore() = default;

  virtual Status Create(uint64_t segment) = 0;
  virtual Status Append(uint64_t segment, std::string_view data) = 0;
  /// Makes all appended bytes durable. Reports success even when an
  /// injected partial-fsync fault silently dropped a tail — that is the
  /// point of the fault.
  virtual Status Sync(uint64_t segment) = 0;
  /// Up to `max_bytes` of the current contents (durable + not-yet-dropped
  /// unsynced bytes) starting at `offset`; empty when `offset` is at or
  /// past the end. Readers that resume or address one record pay for the
  /// bytes they need, not for the whole segment.
  virtual Result<std::string> Read(uint64_t segment, uint64_t offset,
                                   uint64_t max_bytes) const = 0;
  /// Full current contents.
  Result<std::string> Read(uint64_t segment) const {
    return Read(segment, 0, UINT64_MAX);
  }
  virtual Status Truncate(uint64_t segment, uint64_t size) = 0;
  virtual Status Delete(uint64_t segment) = 0;
  /// Existing segment numbers, ascending.
  virtual std::vector<uint64_t> List() const = 0;

  /// Atomic key/value slots (apply watermark, epoch tags). A write
  /// replaces the whole value or fails; no torn meta.
  virtual Status WriteMeta(const std::string& key, std::string_view value) = 0;
  /// NotFound when the key was never written.
  virtual Result<std::string> ReadMeta(const std::string& key) const = 0;

  /// Simulates the host dying: unsynced bytes vanish from every segment.
  virtual void DropUnsynced() = 0;

  /// Deterministic dump of durable state (segment numbers, sizes, bytes,
  /// meta) — the determinism harness byte-compares this across runs.
  virtual std::string DebugSerialize() const = 0;

  // --- Fault injection (consumed by the next matching operation) ---------

  /// The next Append persists only the first `keep_bytes` of its data and
  /// still reports success (torn write: the caller crashes before the
  /// rest lands).
  void InjectTornWrite(uint64_t keep_bytes) { torn_keep_bytes_ = static_cast<int64_t>(keep_bytes); }
  /// The next Sync leaves the last `drop_bytes` appended bytes unsynced
  /// while reporting success (partial fsync / lost flush).
  void InjectPartialSync(uint64_t drop_bytes) { partial_sync_drop_ = static_cast<int64_t>(drop_bytes); }
  /// All further Appends fail with DiskFull (write-path outage).
  void FailAppends(bool on) { fail_appends_ = on; }

  bool torn_write_armed() const { return torn_keep_bytes_ >= 0; }
  bool partial_sync_armed() const { return partial_sync_drop_ >= 0; }

 protected:
  /// Consumes an armed torn-write fault: returns how many bytes of `size`
  /// to persist (or `size` when no fault is armed).
  uint64_t ConsumeTornWrite(uint64_t size);
  /// Consumes an armed partial-sync fault: bytes to leave unsynced.
  uint64_t ConsumePartialSync();

  bool fail_appends_ = false;

 private:
  int64_t torn_keep_bytes_ = -1;
  int64_t partial_sync_drop_ = -1;
};

/// \brief Deterministic in-memory backend: the "disk" of a simulated node.
/// Contents survive ReplicaNode::Crash (the sim models the process dying,
/// not the machine losing its disk) minus whatever DropUnsynced takes.
class MemLogStore final : public LogStore {
 public:
  using LogStore::Read;
  Status Create(uint64_t segment) override;
  Status Append(uint64_t segment, std::string_view data) override;
  Status Sync(uint64_t segment) override;
  Result<std::string> Read(uint64_t segment, uint64_t offset,
                           uint64_t max_bytes) const override;
  Status Truncate(uint64_t segment, uint64_t size) override;
  Status Delete(uint64_t segment) override;
  std::vector<uint64_t> List() const override;
  Status WriteMeta(const std::string& key, std::string_view value) override;
  Result<std::string> ReadMeta(const std::string& key) const override;
  void DropUnsynced() override;
  std::string DebugSerialize() const override;

  /// Test access: overwrite raw bytes in place (corruption injection).
  Status CorruptAt(uint64_t segment, size_t offset, char value);

 private:
  struct Segment {
    std::string data;
    size_t synced_bytes = 0;
  };
  std::map<uint64_t, Segment> segments_;
  std::map<std::string, std::string> meta_;
};

/// \brief Real-filesystem backend: one `seg-<n>.log` file per segment and
/// `meta-<key>` files written via temp+rename, under a caller-owned
/// directory. Used by tools/blinspect and the file-backend tests; the
/// simulator default stays in memory.
class FileLogStore final : public LogStore {
 public:
  explicit FileLogStore(std::string directory);
  ~FileLogStore() override;

  /// Scans the directory; fails if it cannot be created/read.
  Status Open();

  using LogStore::Read;
  Status Create(uint64_t segment) override;
  Status Append(uint64_t segment, std::string_view data) override;
  Status Sync(uint64_t segment) override;
  Result<std::string> Read(uint64_t segment, uint64_t offset,
                           uint64_t max_bytes) const override;
  Status Truncate(uint64_t segment, uint64_t size) override;
  Status Delete(uint64_t segment) override;
  std::vector<uint64_t> List() const override;
  Status WriteMeta(const std::string& key, std::string_view value) override;
  Result<std::string> ReadMeta(const std::string& key) const override;
  void DropUnsynced() override;
  std::string DebugSerialize() const override;

  std::string SegmentPath(uint64_t segment) const;

 private:
  std::string directory_;
  /// Bytes synced per open segment: DropUnsynced truncates files back to
  /// this (emulating lost page-cache contents).
  std::map<uint64_t, uint64_t> synced_bytes_;
  std::map<uint64_t, int> fds_;  ///< Open append descriptors.
};

}  // namespace replidb::binlog

#endif  // REPLIDB_BINLOG_LOG_STORE_H_
