#include "binlog/segmented_log.h"

#include <algorithm>

#include "common/logging.h"

namespace replidb::binlog {

SegmentedBinlog::SegmentedBinlog(LogStore* store, SegmentedLogOptions options)
    : store_(store), options_(options) {}

Status SegmentedBinlog::RollOver() {
  uint64_t seg = next_segment_++;
  REPLIDB_RETURN_NOT_OK(store_->Create(seg));
  SegmentInfo info;
  info.segment = seg;
  segments_.push_back(info);
  return Status::OK();
}

Status SegmentedBinlog::WriteFrame(bool force_sync, LogPosition* pos_out) {
  if (segments_.empty() ||
      static_cast<int64_t>(segments_.back().bytes) >=
          options_.segment_max_bytes) {
    // Seal the previous active segment with a final sync so rollover is
    // also a durability point.
    if (!segments_.empty() && !options_.sync_every_append) {
      REPLIDB_RETURN_NOT_OK(store_->Sync(segments_.back().segment));
    }
    REPLIDB_RETURN_NOT_OK(RollOver());
  }
  SegmentInfo& active = segments_.back();
  if (pos_out != nullptr) {
    pos_out->segment = active.segment;
    pos_out->offset = active.bytes;
  }
  REPLIDB_RETURN_NOT_OK(store_->Append(active.segment, frame_));
  if (options_.sync_every_append || force_sync) {
    REPLIDB_RETURN_NOT_OK(store_->Sync(active.segment));
  }
  active.bytes += frame_.size();
  ++active.records;
  return Status::OK();
}

Status SegmentedBinlog::AppendEntryRecord(
    const middleware::ReplicationEntry& entry, LogPosition* pos_out) {
  // Encode the entry straight into the frame buffer behind a header
  // placeholder, as AppendCheckpoint does.
  frame_.clear();
  frame_.append(kRecordHeaderBytes, '\0');
  AppendEntryPayload(entry, &frame_);
  SealRecord(RecordType::kEntry, 0, &frame_);
  LogPosition pos;
  REPLIDB_RETURN_NOT_OK(WriteFrame(/*force_sync=*/false, &pos));
  SegmentInfo& active = segments_.back();
  if (active.base_version == 0) active.base_version = entry.version;
  active.last_version = std::max(active.last_version, entry.version);
  head_version_ = std::max(head_version_, entry.version);
  if (pos_out != nullptr) *pos_out = pos;
  return Status::OK();
}

Status SegmentedBinlog::Append(const middleware::ReplicationEntry& entry,
                               LogPosition* pos_out) {
  if (entry.version == 0) {
    return Status::InvalidArgument("binlog append: version 0");
  }
  if (entry.version <= head_version_) return Status::OK();  // Duplicate.
  return AppendEntryRecord(entry, pos_out);
}

Status SegmentedBinlog::AppendSuperseding(
    const middleware::ReplicationEntry& entry, LogPosition* pos_out) {
  if (entry.version == 0) {
    return Status::InvalidArgument("binlog append: version 0");
  }
  return AppendEntryRecord(entry, pos_out);
}

Status SegmentedBinlog::AppendCheckpoint(const CheckpointRecord& cp) {
  // Encode the image straight into the frame buffer behind a header
  // placeholder: no payload temporary, no copy into a frame.
  frame_.clear();
  frame_.append(kRecordHeaderBytes, '\0');
  AppendCheckpointPayload(cp, &frame_);
  SealRecord(RecordType::kCheckpoint, 0, &frame_);
  REPLIDB_RETURN_NOT_OK(WriteFrame(/*force_sync=*/true, nullptr));
  segments_.back().has_checkpoint = true;
  have_checkpoint_ = true;
  checkpoint_version_ = cp.version;
  checkpoint_at_us_ = cp.taken_at_us;
  return Status::OK();
}

Result<middleware::ReplicationEntry> SegmentedBinlog::ReadAt(
    const LogPosition& pos) const {
  // Read the header, then exactly the frame it announces.
  Result<std::string> data =
      store_->Read(pos.segment, pos.offset, kRecordHeaderBytes);
  REPLIDB_RETURN_NOT_OK(data.status());
  if (data.value().empty()) {
    return Status::InvalidArgument("binlog read: offset beyond segment");
  }
  size_t frame_bytes = RecordFrameBytes(data.value());
  if (frame_bytes > data.value().size()) {
    data = store_->Read(pos.segment, pos.offset, frame_bytes);
    REPLIDB_RETURN_NOT_OK(data.status());
  }
  RecordView view;
  REPLIDB_RETURN_NOT_OK(ParseRecord(data.value(), &view));
  if (view.type != RecordType::kEntry) {
    return Status::InvalidArgument("binlog read: not an entry record");
  }
  middleware::ReplicationEntry entry;
  REPLIDB_RETURN_NOT_OK(DecodeEntryPayload(view.payload, &entry));
  return entry;
}

Result<RecoveryInfo> SegmentedBinlog::Recover() {
  ++generation_;
  segments_.clear();
  head_version_ = 0;
  have_checkpoint_ = false;
  checkpoint_version_ = 0;
  checkpoint_at_us_ = -1;

  RecoveryInfo info;
  std::vector<uint64_t> listed = store_->List();
  next_segment_ = listed.empty() ? 0 : listed.back() + 1;
  bool log_ended = false;
  middleware::ReplicationEntry entry;  // Each record decodes into this one.
  for (uint64_t seg : listed) {
    if (log_ended) {
      // Everything after the first bad frame is unreachable history (a
      // later segment cannot be trusted once the chain broke): drop it.
      ++info.dropped_segments;
      (void)store_->Delete(seg);
      continue;
    }
    Result<std::string> data = store_->Read(seg);
    if (!data.ok()) {
      log_ended = true;
      ++info.dropped_segments;
      (void)store_->Delete(seg);
      continue;
    }
    const std::string& bytes = data.value();
    SegmentInfo si;
    si.segment = seg;
    uint64_t offset = 0;
    while (offset < bytes.size()) {
      RecordView view;
      Status s = ParseRecord(std::string_view(bytes).substr(offset), &view);
      if (!s.ok()) {
        // First bad frame: the valid log ends here. Truncate the tail so
        // a future reader never sees the garbage.
        info.truncated_bytes += bytes.size() - offset;
        (void)store_->Truncate(seg, offset);
        log_ended = true;
        break;
      }
      if (view.type == RecordType::kEntry) {
        if (!DecodeEntryPayload(view.payload, &entry).ok()) {
          info.truncated_bytes += bytes.size() - offset;
          (void)store_->Truncate(seg, offset);
          log_ended = true;
          break;
        }
        if (si.base_version == 0) si.base_version = entry.version;
        si.last_version = entry.version;
        head_version_ = std::max(head_version_, entry.version);
      } else {
        Result<CheckpointRecord> cp = DecodeCheckpointPayload(view.payload);
        if (!cp.ok()) {
          info.truncated_bytes += bytes.size() - offset;
          (void)store_->Truncate(seg, offset);
          log_ended = true;
          break;
        }
        si.has_checkpoint = true;
        have_checkpoint_ = true;
        checkpoint_version_ = cp.value().version;
        checkpoint_at_us_ = cp.value().taken_at_us;
        info.checkpoint = cp.TakeValue();
      }
      ++si.records;
      offset += view.frame_bytes;
    }
    si.bytes = offset;
    if (si.records > 0 || !log_ended) {
      segments_.push_back(si);
      info.records += si.records;
    } else {
      // Fully-invalid segment: nothing salvageable.
      (void)store_->Delete(seg);
    }
  }
  if (segments_.empty()) {
    REPLIDB_RETURN_NOT_OK(RollOver());
  }
  info.segments = segments_.size();
  info.last_version = head_version_;
  info.have_checkpoint = have_checkpoint_;
  Result<std::string> wm = store_->ReadMeta(kWatermarkKey);
  if (wm.ok()) {
    info.meta_watermark = 0;
    for (char c : wm.value()) {
      if (c < '0' || c > '9') break;
      info.meta_watermark = info.meta_watermark * 10 +
                            static_cast<middleware::GlobalVersion>(c - '0');
    }
  }
  return info;
}

size_t SegmentedBinlog::TruncateThrough(middleware::GlobalVersion version) {
  size_t dropped = 0;
  while (segments_.size() > 1) {
    const SegmentInfo& front = segments_.front();
    // Never drop the segment holding the latest checkpoint unless a later
    // segment has one: recovery must always find a base image.
    bool later_checkpoint = false;
    for (size_t i = 1; i < segments_.size(); ++i) {
      if (segments_[i].has_checkpoint) {
        later_checkpoint = true;
        break;
      }
    }
    if (front.has_checkpoint && !later_checkpoint) break;
    // A segment without entries spans no versions. It goes only when it
    // holds a superseded checkpoint (an image of at least a segment fills
    // one of its own); an empty one ends the walk.
    if (front.last_version == 0 ? !front.has_checkpoint
                                : front.last_version > version) {
      break;
    }
    dropped += front.records;
    (void)store_->Delete(front.segment);
    segments_.erase(segments_.begin());
  }
  truncate_watermark_ = std::max(truncate_watermark_, version);
  return dropped;
}

Status SegmentedBinlog::PersistWatermark(middleware::GlobalVersion version) {
  return store_->WriteMeta(kWatermarkKey, std::to_string(version));
}

BinlogStats SegmentedBinlog::Stats() const {
  BinlogStats st;
  st.segments = segments_.size();
  for (const SegmentInfo& s : segments_) {
    st.total_bytes += s.bytes;
    st.records += s.records;
  }
  if (!segments_.empty()) st.active_segment_bytes = segments_.back().bytes;
  st.last_version = head_version_;
  st.truncate_watermark = truncate_watermark_;
  if (have_checkpoint_) {
    st.checkpoint_version = checkpoint_version_;
    st.checkpoint_at_us = checkpoint_at_us_;
  }
  return st;
}

// ---------------------------------------------------------------------------
// LogCursor
// ---------------------------------------------------------------------------

LogCursor::LogCursor(const SegmentedBinlog* log,
                     middleware::GlobalVersion after)
    : log_(log), after_(after), highest_(after) {
  Seek();
}

void LogCursor::Seek() {
  generation_ = log_->generation_;
  buffer_.clear();
  const std::vector<SegmentInfo>& segments = log_->segments_;
  size_t i = 0;
  while (i + 1 < segments.size()) {
    const SegmentInfo& s = segments[i];
    if (s.last_version != 0 && s.last_version > after_) break;
    if (s.last_version == 0 && s.records == 0) break;  // Empty active tail.
    ++i;
  }
  // An empty log positions before segment 0; Locate() moves to whichever
  // segment the first append creates.
  position_ = LogPosition{segments.empty() ? 0 : segments[i].segment, 0};
}

const SegmentInfo* LogCursor::Locate() {
  const std::vector<SegmentInfo>& segments = log_->segments_;
  auto it = std::lower_bound(
      segments.begin(), segments.end(), position_.segment,
      [](const SegmentInfo& s, uint64_t seg) { return s.segment < seg; });
  if (it == segments.end()) return nullptr;
  if (it->segment != position_.segment) {
    // TruncateThrough deleted this segment: continue at the next one.
    position_ = LogPosition{it->segment, 0};
    buffer_.clear();
  }
  return &*it;
}

bool LogCursor::Next(middleware::ReplicationEntry* out) {
  status_ = Status::OK();
  if (generation_ != log_->generation_) {
    after_ = highest_;
    Seek();
  }
  while (const SegmentInfo* seg = Locate()) {
    while (position_.offset < seg->bytes) {
      // Unsigned: also true for a position below buffer_start_.
      if (position_.offset - buffer_start_ >= buffer_.size()) {
        // Read only what lies past the position: the bytes appended since
        // the last read, or the rest of a segment entered at a seek.
        Result<std::string> data = log_->store_->Read(
            seg->segment, position_.offset, seg->bytes - position_.offset);
        if (!data.ok()) {
          status_ = data.status();
          break;
        }
        buffer_ = std::move(data.value());
        buffer_start_ = position_.offset;
        // The in-memory index may be ahead of the durable bytes when the
        // store lost an unsynced tail: the segment ends here.
        if (buffer_.empty()) break;
      }
      RecordView view;
      Status s = ParseRecord(std::string_view(buffer_).substr(
                                 position_.offset - buffer_start_),
                             &view);
      if (!s.ok()) {
        status_ = s;
        break;
      }
      if (view.type != RecordType::kEntry) {
        position_.offset += view.frame_bytes;
        continue;
      }
      Status decoded = DecodeEntryPayload(view.payload, out);
      if (!decoded.ok()) {
        status_ = decoded;
        break;
      }
      position_.offset += view.frame_bytes;
      if (out->version <= after_) continue;
      highest_ = std::max(highest_, out->version);
      return true;
    }
    if (!status_.ok() || seg == &log_->segments_.back()) break;
    // Sealed (or cut short by a lost tail): go on to the next segment.
    position_ = LogPosition{(seg + 1)->segment, 0};
    buffer_.clear();
  }
  // Nothing buffered survives a false return, so the next call reads what
  // the store holds then.
  buffer_.clear();
  return false;
}

}  // namespace replidb::binlog
