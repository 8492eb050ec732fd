#ifndef SDBENC_STORAGE_RECORD_STORE_H_
#define SDBENC_STORAGE_RECORD_STORE_H_

#include "storage/storage_engine.h"

namespace sdbenc {

/// Identifier of a variable-length record inside a RecordStore. 0 means
/// "no record" so the layers above can use zero-initialised directories.
using RecordId = uint64_t;
inline constexpr RecordId kNoRecord = 0;

/// Variable-length records on top of fixed-size pages. A record is a byte
/// string spanning a chain of pages; each page carries
///
///   u64 next_page_id | u32 chunk_len | chunk bytes | zero padding
///
/// and the record id is (first page id + 1) so that 0 stays free as the
/// "no record" sentinel. Update() rewrites a record *in place*, reusing its
/// chain and growing/shrinking it as needed, so record ids handed out once
/// stay valid for the life of the record — the directories of the row store
/// and the index node pager depend on that stability.
class RecordStore {
 public:
  /// `engine` must outlive the store.
  explicit RecordStore(StorageEngine* engine) : engine_(engine) {}

  StorageEngine* engine() { return engine_; }

  /// Record bytes one page holds (page_size minus the 12-octet chain
  /// header): the largest record that costs a single page.
  size_t payload_size() const;

  /// Writes a new record; returns its stable id.
  StatusOr<RecordId> Put(BytesView record);

  /// Reads a whole record back.
  StatusOr<Bytes> Get(RecordId id);

  /// Replaces the record's content, keeping its id.
  Status Update(RecordId id, BytesView record);

  /// Releases every page of the record.
  Status Free(RecordId id);

 private:
  Status WriteChain(PageId first, BytesView record, bool fresh);

  StorageEngine* engine_;
};

}  // namespace sdbenc

#endif  // SDBENC_STORAGE_RECORD_STORE_H_
