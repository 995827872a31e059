// blinspect — offline inspector for segmented binlog directories
// (src/binlog). Dumps and verifies the frames a replica's FileLogStore
// wrote, without mutating them: unlike SegmentedBinlog::Recover(), which
// repairs the log by truncating at the first bad frame, blinspect only
// reports what it finds.
//
// Usage:
//   blinspect dump <dir>     # every frame: segment, offset, type, version
//   blinspect verify <dir>   # CRC-scan; exit 1 if any frame is bad
//   blinspect --self-test    # round-trip + corruption checks in a temp dir
//
// Exit codes: 0 = ok / log clean, 1 = verification found damage,
// 2 = usage or I/O error.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "binlog/format.h"
#include "binlog/log_store.h"
#include "binlog/segmented_log.h"
#include "middleware/common.h"

namespace {

using replidb::Result;
using replidb::Status;
using replidb::binlog::CheckpointRecord;
using replidb::binlog::DecodeCheckpointPayload;
using replidb::binlog::DecodeEntryPayload;
using replidb::binlog::FileLogStore;
using replidb::binlog::ParseRecord;
using replidb::binlog::RecordType;
using replidb::binlog::RecordView;
using replidb::binlog::SegmentedBinlog;
using replidb::binlog::SegmentedLogOptions;
using replidb::middleware::GlobalVersion;
using replidb::middleware::ReplicationEntry;

struct ScanTotals {
  uint64_t segments = 0;
  uint64_t entries = 0;
  uint64_t checkpoints = 0;
  uint64_t bad_frames = 0;
  uint64_t valid_bytes = 0;
  uint64_t damaged_bytes = 0;
  GlobalVersion first_version = 0;
  GlobalVersion last_version = 0;
  GlobalVersion latest_checkpoint = 0;
};

/// Walks every frame of every segment. `verbose` prints one line per
/// frame; either way the totals report what a recovery scan would keep.
int Scan(const std::string& dir, bool verbose, ScanTotals* totals) {
  FileLogStore store(dir);
  Status open = store.Open();
  if (!open.ok()) {
    std::fprintf(stderr, "blinspect: cannot open %s: %s\n", dir.c_str(),
                 open.ToString().c_str());
    return 2;
  }
  std::vector<uint64_t> segments = store.List();
  ReplicationEntry entry;  // Each entry record decodes into this one.
  for (uint64_t seg : segments) {
    Result<std::string> data = store.Read(seg);
    if (!data.ok()) {
      std::fprintf(stderr, "segment %llu: unreadable: %s\n",
                   static_cast<unsigned long long>(seg),
                   data.status().ToString().c_str());
      ++totals->bad_frames;
      continue;
    }
    ++totals->segments;
    const std::string& bytes = data.value();
    uint64_t offset = 0;
    while (offset < bytes.size()) {
      RecordView view;
      Status s = ParseRecord(std::string_view(bytes).substr(offset), &view);
      if (!s.ok()) {
        ++totals->bad_frames;
        totals->damaged_bytes += bytes.size() - offset;
        std::printf("seg=%llu off=%llu BAD %s (%llu bytes to end)\n",
                    static_cast<unsigned long long>(seg),
                    static_cast<unsigned long long>(offset),
                    s.ToString().c_str(),
                    static_cast<unsigned long long>(bytes.size() - offset));
        break;  // Everything past the first bad frame is untrusted.
      }
      if (view.type == RecordType::kEntry) {
        Status decoded = DecodeEntryPayload(view.payload, &entry);
        if (!decoded.ok()) {
          ++totals->bad_frames;
          totals->damaged_bytes += bytes.size() - offset;
          std::printf("seg=%llu off=%llu BAD entry payload: %s\n",
                      static_cast<unsigned long long>(seg),
                      static_cast<unsigned long long>(offset),
                      decoded.ToString().c_str());
          break;
        }
        ++totals->entries;
        if (totals->first_version == 0) {
          totals->first_version = entry.version;
        }
        totals->last_version = entry.version;
        if (verbose) {
          std::printf("seg=%llu off=%llu entry v=%llu ops=%zu stmts=%zu "
                      "frame=%zuB%s\n",
                      static_cast<unsigned long long>(seg),
                      static_cast<unsigned long long>(offset),
                      static_cast<unsigned long long>(entry.version),
                      entry.writeset.ops.size(), entry.statements.size(),
                      view.frame_bytes,
                      entry.use_statements ? " [statements]" : "");
        }
      } else {
        Result<CheckpointRecord> cp = DecodeCheckpointPayload(view.payload);
        if (!cp.ok()) {
          ++totals->bad_frames;
          totals->damaged_bytes += bytes.size() - offset;
          std::printf("seg=%llu off=%llu BAD checkpoint payload: %s\n",
                      static_cast<unsigned long long>(seg),
                      static_cast<unsigned long long>(offset),
                      cp.status().ToString().c_str());
          break;
        }
        ++totals->checkpoints;
        totals->latest_checkpoint = cp.value().version;
        if (verbose) {
          std::printf("seg=%llu off=%llu checkpoint v=%llu tables=%zu "
                      "taken_at_us=%lld frame=%zuB\n",
                      static_cast<unsigned long long>(seg),
                      static_cast<unsigned long long>(offset),
                      static_cast<unsigned long long>(cp.value().version),
                      cp.value().digests.size(),
                      static_cast<long long>(cp.value().taken_at_us),
                      view.frame_bytes);
        }
      }
      totals->valid_bytes += view.frame_bytes;
      offset += view.frame_bytes;
    }
  }
  Result<std::string> wm = store.ReadMeta(SegmentedBinlog::kWatermarkKey);
  std::printf("segments=%llu entries=%llu checkpoints=%llu bad_frames=%llu "
              "valid_bytes=%llu damaged_bytes=%llu\n",
              static_cast<unsigned long long>(totals->segments),
              static_cast<unsigned long long>(totals->entries),
              static_cast<unsigned long long>(totals->checkpoints),
              static_cast<unsigned long long>(totals->bad_frames),
              static_cast<unsigned long long>(totals->valid_bytes),
              static_cast<unsigned long long>(totals->damaged_bytes));
  std::printf("versions=[%llu..%llu] latest_checkpoint=%llu watermark=%s\n",
              static_cast<unsigned long long>(totals->first_version),
              static_cast<unsigned long long>(totals->last_version),
              static_cast<unsigned long long>(totals->latest_checkpoint),
              wm.ok() ? wm.value().c_str() : "-");
  return totals->bad_frames == 0 ? 0 : 1;
}

ReplicationEntry TestEntry(GlobalVersion v) {
  ReplicationEntry e;
  e.version = v;
  e.statements = {"UPDATE t SET x = " + std::to_string(v)};
  e.use_statements = true;
  e.origin_commit_us = static_cast<int64_t>(1000 * v);
  return e;
}

#define ST_CHECK(cond)                                                     \
  do {                                                                     \
    if (!(cond)) {                                                         \
      std::fprintf(stderr, "self-test FAILED at %s:%d: %s\n", __FILE__,    \
                   __LINE__, #cond);                                       \
      return 1;                                                            \
    }                                                                      \
  } while (0)

int SelfTest() {
  char tmpl[] = "/tmp/blinspect-selftest-XXXXXX";
  char* dir = mkdtemp(tmpl);
  if (dir == nullptr) {
    std::fprintf(stderr, "self-test: mkdtemp failed\n");
    return 2;
  }
  std::string path(dir);

  // Round-trip: write a small log through the real file backend.
  {
    FileLogStore store(path);
    ST_CHECK(store.Open().ok());
    SegmentedLogOptions opts;
    opts.segment_max_bytes = 256;  // Force several rollovers.
    SegmentedBinlog log(&store, opts);
    for (GlobalVersion v = 1; v <= 20; ++v) {
      ST_CHECK(log.Append(TestEntry(v)).ok());
    }
    CheckpointRecord cp;
    cp.version = 20;
    cp.digests = {{"db.t", 0x1234}};
    cp.taken_at_us = 42;
    ST_CHECK(log.AppendCheckpoint(cp).ok());
    ST_CHECK(log.PersistWatermark(20).ok());
    ST_CHECK(log.segments().size() > 1);
  }

  // A clean log scans clean, and the totals match what was written.
  {
    ScanTotals t;
    ST_CHECK(Scan(path, /*verbose=*/false, &t) == 0);
    ST_CHECK(t.entries == 20);
    ST_CHECK(t.checkpoints == 1);
    ST_CHECK(t.bad_frames == 0);
    ST_CHECK(t.first_version == 1 && t.last_version == 20);
    ST_CHECK(t.latest_checkpoint == 20);
  }

  // Reopening through Recover() sees the same log.
  {
    FileLogStore store(path);
    ST_CHECK(store.Open().ok());
    SegmentedBinlog log(&store, SegmentedLogOptions{});
    Result<replidb::binlog::RecoveryInfo> info = log.Recover();
    ST_CHECK(info.ok());
    ST_CHECK(info.value().last_version == 20);
    ST_CHECK(info.value().have_checkpoint);
    ST_CHECK(info.value().checkpoint.version == 20);
    ST_CHECK(info.value().meta_watermark == 20);
  }

  // Flip one payload byte in the first segment: verify must flag it.
  {
    FileLogStore store(path);
    ST_CHECK(store.Open().ok());
    std::vector<uint64_t> segs = store.List();
    ST_CHECK(!segs.empty());
    Result<std::string> data = store.Read(segs.front());
    ST_CHECK(data.ok());
    std::string bytes = data.value();
    ST_CHECK(bytes.size() > replidb::binlog::kRecordHeaderBytes + 4);
    bytes[replidb::binlog::kRecordHeaderBytes + 3] ^= 0x40;
    ST_CHECK(store.Truncate(segs.front(), 0).ok());
    ST_CHECK(store.Append(segs.front(), bytes).ok());
    ST_CHECK(store.Sync(segs.front()).ok());
    ScanTotals t;
    ST_CHECK(Scan(path, /*verbose=*/false, &t) == 1);
    ST_CHECK(t.bad_frames > 0);
  }

  // Cleanup (best-effort).
  {
    FileLogStore store(path);
    (void)store.Open();
    for (uint64_t seg : store.List()) (void)store.Delete(seg);
  }
  std::remove((path + "/meta-" +
               std::string(SegmentedBinlog::kWatermarkKey)).c_str());
  std::remove(path.c_str());

  std::printf("blinspect self-test: OK\n");
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: blinspect dump <dir> | verify <dir> | --self-test\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--self-test") == 0) {
    return SelfTest();
  }
  if (argc != 3) return Usage();
  ScanTotals totals;
  if (std::strcmp(argv[1], "dump") == 0) {
    return Scan(argv[2], /*verbose=*/true, &totals);
  }
  if (std::strcmp(argv[1], "verify") == 0) {
    return Scan(argv[2], /*verbose=*/false, &totals);
  }
  return Usage();
}
