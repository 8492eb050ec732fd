#include "storage/buffer_pool.h"

#include <utility>

namespace sdbenc {

BufferPool::Frame* BufferPool::Lookup(PageId id) {
  auto it = index_.find(id);
  if (it == index_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second);  // promote; iterator stays valid
  return &*it->second;
}

Status BufferPool::Evict(Frame* victim) {
  if (lru_.empty()) {
    return InternalError("buffer pool empty: nothing to evict");
  }
  for (auto it = std::prev(lru_.end());; --it) {
    if (it->pins == 0) {
      *victim = std::move(*it);
      index_.erase(it->id);
      lru_.erase(it);
      return OkStatus();
    }
    if (it == lru_.begin()) break;
  }
  return InternalError("buffer pool exhausted: every frame is pinned");
}

StatusOr<BufferPool::Frame*> BufferPool::Insert(PageId id, Bytes data,
                                                bool dirty) {
  if (index_.count(id) != 0) {
    return InternalError("page " + std::to_string(id) + " already resident");
  }
  if (Full()) {
    return InternalError("buffer pool full; evict before inserting");
  }
  Frame frame;
  frame.id = id;
  frame.data = std::move(data);
  frame.dirty = dirty;
  lru_.push_front(std::move(frame));
  index_[id] = lru_.begin();
  return &lru_.front();
}

}  // namespace sdbenc
