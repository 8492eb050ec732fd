#ifndef SDBENC_STORAGE_BUFFER_POOL_H_
#define SDBENC_STORAGE_BUFFER_POOL_H_

#include <list>
#include <unordered_map>

#include "storage/page.h"
#include "util/bytes.h"
#include "util/statusor.h"

namespace sdbenc {

/// Fixed-capacity LRU cache of page frames for the FileStorageEngine.
/// Frames carry a dirty bit (page newer than disk), an unlogged bit (dirty
/// content the WAL has not seen) and a pin count (frame must not be
/// evicted while some caller reads/writes through it). The pool
/// itself never touches the disk: eviction hands the victim back to the
/// caller, which owns the writeback.
///
/// Not internally synchronised: the pool relies on *external* locking — the
/// owning engine holds its pool mutex across every call AND across any use
/// of a returned Frame* (Lookup promotes the frame in the LRU list, so even
/// "read-only" lookups mutate shared state). Frame pointers are stable only
/// while that lock is held; eviction invalidates them.
class BufferPool {
 public:
  struct Frame {
    PageId id = kInvalidPageId;
    Bytes data;
    bool dirty = false;
    uint32_t pins = 0;
    /// LSN of the last WAL record describing this frame's content; the
    /// engine forces the log durable past it before writing the frame back
    /// (write-ahead rule). 0 = no pending log record.
    uint64_t wal_lsn = 0;
    /// Dirty content written without a WAL record: the page holds nothing
    /// committed, so it is written back without waiting on the log, and
    /// the next durability point logs it (or syncs it if evicted).
    bool unlogged = false;
  };

  explicit BufferPool(size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  size_t capacity() const { return capacity_; }
  size_t size() const { return lru_.size(); }

  /// Returns the frame holding `id` (promoted to most-recently-used), or
  /// nullptr on a miss. Does not count hit/miss stats — the engine does,
  /// since only it knows whether a miss leads to disk I/O.
  Frame* Lookup(PageId id);

  /// True if inserting a new frame would require evicting one.
  bool Full() const { return lru_.size() >= capacity_; }

  /// Picks the least-recently-used unpinned frame, removes it from the pool
  /// and moves it into `victim`. Fails if every frame is pinned.
  Status Evict(Frame* victim);

  /// Inserts a frame for `id` (must not be resident; caller evicts first
  /// when Full()). Returns the resident frame, most-recently-used.
  StatusOr<Frame*> Insert(PageId id, Bytes data, bool dirty);

  /// All resident frames, LRU last; FlushAll in the engine walks this to
  /// write back dirty frames without evicting them.
  std::list<Frame>& frames() { return lru_; }

 private:
  size_t capacity_;
  std::list<Frame> lru_;  // front = most recently used
  std::unordered_map<PageId, std::list<Frame>::iterator> index_;
};

/// RAII pin: keeps a frame resident for the lifetime of the guard.
class PinGuard {
 public:
  explicit PinGuard(BufferPool::Frame* frame) : frame_(frame) {
    if (frame_ != nullptr) ++frame_->pins;
  }
  ~PinGuard() {
    if (frame_ != nullptr) --frame_->pins;
  }
  PinGuard(const PinGuard&) = delete;
  PinGuard& operator=(const PinGuard&) = delete;

 private:
  BufferPool::Frame* frame_;
};

}  // namespace sdbenc

#endif  // SDBENC_STORAGE_BUFFER_POOL_H_
