#include "storage/record_store.h"

#include <cstring>

namespace sdbenc {

namespace {

constexpr size_t kPageHeaderLen = 8 + 4;  // next page id + chunk length

// The next-pointer is stored as (page id + 1) with 0 meaning "end of
// chain", so an allocated-but-never-written page (all zeros in the memory
// engine) reads as a one-page chain instead of linking to page 0.
void PutNext(uint8_t* out, PageId next) {
  PutUint64Be(out, next == kInvalidPageId ? 0 : next + 1);
}

PageId GetNext(const uint8_t* in) {
  const uint64_t raw = GetUint64Be(in);
  return raw == 0 ? kInvalidPageId : raw - 1;
}

}  // namespace

size_t RecordStore::payload_size() const {
  return engine_->page_size() - kPageHeaderLen;
}

StatusOr<RecordId> RecordStore::Put(BytesView record) {
  SDBENC_ASSIGN_OR_RETURN(PageId first, engine_->Allocate());
  SDBENC_RETURN_IF_ERROR(WriteChain(first, record, /*fresh=*/true));
  return first + 1;
}

Status RecordStore::Update(RecordId id, BytesView record) {
  if (id == kNoRecord) return InvalidArgumentError("no such record");
  return WriteChain(id - 1, record, /*fresh=*/false);
}

Status RecordStore::WriteChain(PageId page, BytesView record, bool fresh) {
  const size_t cap = payload_size();
  size_t off = 0;
  Bytes buf(engine_->page_size(), 0);
  // Walk/extend the chain, writing one chunk per page; pages are reused
  // from the old chain or freshly allocated when the record grew.
  while (true) {
    const size_t chunk = std::min(cap, record.size() - off);
    // Find out what the page currently links to before overwriting it, so a
    // shrinking record can release its tail. Fresh pages link nowhere and
    // need no read (which would miss the pool and fault from disk).
    PageId old_next = kInvalidPageId;
    if (!fresh) {
      Bytes current;
      if (engine_->Read(page, &current).ok() && current.size() >= 8) {
        old_next = GetNext(current.data());
      }
    }
    const bool last = off + chunk == record.size();
    PageId next = kInvalidPageId;
    bool next_fresh = false;
    if (!last) {
      if (old_next != kInvalidPageId) {
        next = old_next;  // reuse the existing chain
      } else {
        SDBENC_ASSIGN_OR_RETURN(next, engine_->Allocate());
        next_fresh = true;
      }
    }
    std::memset(buf.data(), 0, buf.size());
    PutNext(buf.data(), next);
    PutUint32Be(buf.data() + 8, static_cast<uint32_t>(chunk));
    if (chunk > 0) {
      std::memcpy(buf.data() + kPageHeaderLen, record.data() + off, chunk);
    }
    SDBENC_RETURN_IF_ERROR(engine_->Write(page, buf));
    off += chunk;
    if (last) {
      // Release any leftover tail of a previously longer record.
      PageId tail = old_next;
      uint64_t guard = engine_->num_pages() + 1;
      while (tail != kInvalidPageId && guard-- > 0) {
        Bytes tail_page;
        SDBENC_RETURN_IF_ERROR(engine_->Read(tail, &tail_page));
        const PageId after = GetNext(tail_page.data());
        SDBENC_RETURN_IF_ERROR(engine_->Free(tail));
        tail = after;
      }
      return OkStatus();
    }
    page = next;
    fresh = next_fresh;
  }
}

StatusOr<Bytes> RecordStore::Get(RecordId id) {
  if (id == kNoRecord) return InvalidArgumentError("no such record");
  Bytes out;
  PageId page = id - 1;
  // A chain can never be longer than the page count; anything longer is a
  // corrupt (or hostile) link cycle.
  uint64_t guard = engine_->num_pages() + 1;
  while (page != kInvalidPageId) {
    if (guard-- == 0) {
      return ParseError("record chain longer than the page file (cycle?)");
    }
    Bytes payload;
    SDBENC_RETURN_IF_ERROR(engine_->Read(page, &payload));
    if (payload.size() < kPageHeaderLen) {
      return ParseError("short page in record chain");
    }
    const PageId next = GetNext(payload.data());
    const uint32_t chunk = GetUint32Be(payload.data() + 8);
    if (chunk > payload.size() - kPageHeaderLen) {
      return ParseError("record chunk length exceeds page payload");
    }
    Append(out, BytesView(payload.data() + kPageHeaderLen, chunk));
    page = next;
  }
  return out;
}

Status RecordStore::Free(RecordId id) {
  if (id == kNoRecord) return InvalidArgumentError("no such record");
  PageId page = id - 1;
  uint64_t guard = engine_->num_pages() + 1;
  while (page != kInvalidPageId) {
    if (guard-- == 0) {
      return ParseError("record chain longer than the page file (cycle?)");
    }
    Bytes payload;
    SDBENC_RETURN_IF_ERROR(engine_->Read(page, &payload));
    const PageId next =
        payload.size() >= 8 ? GetNext(payload.data()) : kInvalidPageId;
    SDBENC_RETURN_IF_ERROR(engine_->Free(page));
    page = next;
  }
  return OkStatus();
}

}  // namespace sdbenc
