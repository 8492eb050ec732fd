#include "btree/bplus_tree.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "db/serialize.h"
#include "obs/metrics.h"

namespace sdbenc {

namespace {

// Registry mirrors of the per-tree atomic counters (DESIGN §8). The
// per-instance atomics stay authoritative for the attack benches, which
// compare counts across trees; the registry view aggregates all trees in
// the process.
obs::Counter* EntryEncodesMetric() {
  static obs::Counter* const c =
      obs::Registry().GetCounter("sdbenc_btree_entry_encodes_total");
  return c;
}

obs::Counter* EntryDecodesMetric() {
  static obs::Counter* const c =
      obs::Registry().GetCounter("sdbenc_btree_entry_decodes_total");
  return c;
}

obs::Counter* NodeSplitsMetric() {
  static obs::Counter* const c =
      obs::Registry().GetCounter("sdbenc_btree_node_splits_total");
  return c;
}

int CompareBytes(BytesView a, BytesView b) {
  const size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  if (a.size() == b.size()) return 0;
  return a.size() < b.size() ? -1 : 1;
}

/// Probe in composite (key, row) order. row_mode -1/+1 stands for a row
/// strictly below / above every real row, which makes duplicate keys easy to
/// handle: Find descends with (-inf) and stops past (+inf).
struct Probe {
  BytesView key;
  uint64_t row = 0;
  int row_mode = 0;  // -1: -inf, 0: exact, +1: +inf
};

/// <0 if entry < probe, 0 if equal, >0 if entry > probe.
int CompareEntryToProbe(const IndexEntryPlain& e, const Probe& p) {
  const int c = CompareBytes(e.key, p.key);
  if (c != 0) return c;
  if (p.row_mode < 0) return 1;
  if (p.row_mode > 0) return -1;
  if (e.table_row != p.row) return e.table_row < p.row ? -1 : 1;
  return 0;
}

/// Inner entries store the composite (key || be64(row)) in their key field
/// and 0 in table_row. This keeps separator ordering exact under codecs
/// that do not persist table_row for inner entries (eq. 4 of [3] encrypts
/// only V || r_I there).
IndexEntryPlain MakeSeparatorEntry(const Bytes& key, uint64_t row) {
  IndexEntryPlain sep;
  sep.key = Concat(key, EncodeUint64Be(row));
  sep.table_row = 0;
  return sep;
}

/// Splits a separator's composite key back into (key, row).
void SeparatorParts(const IndexEntryPlain& sep, Bytes* key, uint64_t* row) {
  *key = Bytes(sep.key.begin(), sep.key.end() - 8);
  *row = DecodeUint64Be(BytesView(sep.key).substr(sep.key.size() - 8));
}

int CompareSeparatorToProbe(const IndexEntryPlain& sep, const Probe& p) {
  Bytes key;
  uint64_t row;
  SeparatorParts(sep, &key, &row);
  IndexEntryPlain as_entry;
  as_entry.key = std::move(key);
  as_entry.table_row = row;
  return CompareEntryToProbe(as_entry, p);
}

}  // namespace

BPlusTree::BPlusTree(IndexEntryCodec* codec, uint64_t index_table_id,
                     uint64_t indexed_table_id, uint32_t indexed_column,
                     size_t order)
    : codec_(codec),
      index_table_id_(index_table_id),
      indexed_table_id_(indexed_table_id),
      indexed_column_(indexed_column),
      order_(order < 2 ? 2 : order) {
  root_ = pager_.Alloc();  // root starts as an empty leaf
}

IndexEntryContext BPlusTree::MakeContext(const BTreeNode& node,
                                         size_t slot) const {
  IndexEntryContext ctx;
  ctx.index_table_id = index_table_id_;
  ctx.indexed_table_id = indexed_table_id_;
  ctx.indexed_column = indexed_column_;
  ctx.entry_ref = node.refs[slot];
  ctx.is_leaf = node.leaf;
  if (node.leaf) {
    // Ref_I of a leaf entry: the right-sibling reference.
    ctx.ref_i = EncodeUint64Be(
        node.next < 0 ? 0 : static_cast<uint64_t>(node.next) + 1);
  } else {
    // Ref_I of an inner entry: left child / right child.
    ctx.ref_i = EncodeUint64Be(static_cast<uint64_t>(node.children[slot]) + 1);
    Append(ctx.ref_i, EncodeUint64Be(
                          static_cast<uint64_t>(node.children[slot + 1]) + 1));
  }
  return ctx;
}

StatusOr<IndexEntryPlain> BPlusTree::DecodeEntry(const BTreeNode& node,
                                                 size_t slot) const {
  decode_calls_.fetch_add(1, std::memory_order_relaxed);
  EntryDecodesMetric()->Increment();
  return codec_->Decode(node.stored[slot], MakeContext(node, slot));
}

BPlusTree::RefISnapshot BPlusTree::SnapshotRefI(const BTreeNode& node) const {
  RefISnapshot snapshot;
  for (size_t slot = 0; slot < node.refs.size(); ++slot) {
    snapshot[node.refs[slot]] = MakeContext(node, slot).ref_i;
  }
  return snapshot;
}

Status BPlusTree::WriteBack(int node_id,
                            const std::vector<IndexEntryPlain>& plains,
                            const RefISnapshot& old_refi) {
  SDBENC_ASSIGN_OR_RETURN(BTreeNode * node, pager_.Mut(node_id));
  for (size_t slot = 0; slot < plains.size(); ++slot) {
    const bool placeholder = node->stored[slot].empty();
    bool needs_encode = placeholder;
    if (!needs_encode && codec_->binds_structure()) {
      const IndexEntryContext ctx = MakeContext(*node, slot);
      auto it = old_refi.find(node->refs[slot]);
      needs_encode = (it == old_refi.end()) || !(BytesView(it->second) ==
                                                 BytesView(ctx.ref_i));
    }
    if (needs_encode) {
      encode_calls_.fetch_add(1, std::memory_order_relaxed);
      EntryEncodesMetric()->Increment();
      SDBENC_ASSIGN_OR_RETURN(
          Bytes stored, codec_->Encode(plains[slot], MakeContext(*node,
                                                                 slot)));
      node->stored[slot] = std::move(stored);
    }
  }
  return OkStatus();
}

StatusOr<BPlusTree::SplitResult> BPlusTree::InsertRec(int node_id,
                                                      BytesView key,
                                                      uint64_t table_row) {
  const Probe exact{key, table_row, 0};

  // Snapshot contexts, then decode the node once; mutation below works on
  // plaintext and WriteBack re-encodes only what changed. Node pointers are
  // stable across Alloc(), so holding `node` through the recursion is safe.
  SDBENC_ASSIGN_OR_RETURN(BTreeNode * node, pager_.Get(node_id));
  RefISnapshot snapshot = SnapshotRefI(*node);
  std::vector<IndexEntryPlain> plains;
  plains.reserve(node->stored.size() + 1);
  for (size_t i = 0; i < node->stored.size(); ++i) {
    SDBENC_ASSIGN_OR_RETURN(IndexEntryPlain e, DecodeEntry(*node, i));
    plains.push_back(std::move(e));
  }

  if (!node->leaf) {
    // Find the child covering (key, row): first separator > probe.
    size_t idx = 0;
    while (idx < plains.size() &&
           CompareSeparatorToProbe(plains[idx], exact) <= 0) {
      ++idx;
    }
    const int child = node->children[idx];
    SDBENC_ASSIGN_OR_RETURN(SplitResult child_split,
                            InsertRec(child, key, table_row));
    if (!child_split.split) return SplitResult{};

    // Insert the promoted separator and the new right child.
    SDBENC_ASSIGN_OR_RETURN(node, pager_.Mut(node_id));
    plains.insert(plains.begin() + idx,
                  MakeSeparatorEntry(child_split.separator,
                                     child_split.separator_row));
    node->refs.insert(node->refs.begin() + idx, next_entry_ref_++);
    node->stored.insert(node->stored.begin() + idx, Bytes());
    node->children.insert(node->children.begin() + idx + 1,
                          child_split.new_node);
    if (plains.size() <= order_) {
      SDBENC_RETURN_IF_ERROR(WriteBack(node_id, plains, snapshot));
      return SplitResult{};
    }

    // Split the inner node: the middle separator is promoted (removed).
    NodeSplitsMetric()->Increment();
    const size_t mid = plains.size() / 2;
    SplitResult result;
    result.split = true;
    SeparatorParts(plains[mid], &result.separator, &result.separator_row);

    const int right_id = pager_.Alloc();
    SDBENC_ASSIGN_OR_RETURN(BTreeNode * right, pager_.Mut(right_id));
    BTreeNode* left = node;
    right->leaf = false;
    right->refs.assign(left->refs.begin() + mid + 1, left->refs.end());
    right->stored.assign(left->stored.begin() + mid + 1, left->stored.end());
    right->children.assign(left->children.begin() + mid + 1,
                           left->children.end());
    std::vector<IndexEntryPlain> right_plains(plains.begin() + mid + 1,
                                              plains.end());
    left->refs.resize(mid);
    left->stored.resize(mid);
    left->children.resize(mid + 1);
    plains.resize(mid);
    SDBENC_RETURN_IF_ERROR(WriteBack(node_id, plains, snapshot));
    SDBENC_RETURN_IF_ERROR(WriteBack(right_id, right_plains, snapshot));
    result.new_node = right_id;
    return result;
  }

  // Leaf: insert in composite order.
  size_t pos = 0;
  while (pos < plains.size() && CompareEntryToProbe(plains[pos], exact) <= 0) {
    ++pos;
  }
  IndexEntryPlain fresh;
  fresh.key.assign(key.begin(), key.end());
  fresh.table_row = table_row;
  plains.insert(plains.begin() + pos, std::move(fresh));
  SDBENC_ASSIGN_OR_RETURN(node, pager_.Mut(node_id));
  node->refs.insert(node->refs.begin() + pos, next_entry_ref_++);
  node->stored.insert(node->stored.begin() + pos, Bytes());
  ++num_entries_;

  if (plains.size() <= order_) {
    SDBENC_RETURN_IF_ERROR(WriteBack(node_id, plains, snapshot));
    return SplitResult{};
  }

  // Split the leaf: the upper half moves to a new right sibling; the
  // separator is a copy of the right node's first composite key. The left
  // node's sibling pointer changes, so structure-binding codecs re-encrypt
  // both halves — exactly the maintenance cost the paper's schemes imply.
  NodeSplitsMetric()->Increment();
  const size_t mid = plains.size() / 2;
  const int right_id = pager_.Alloc();
  SDBENC_ASSIGN_OR_RETURN(BTreeNode * right, pager_.Mut(right_id));
  BTreeNode* left = node;
  right->leaf = true;
  right->next = left->next;
  left->next = right_id;
  right->refs.assign(left->refs.begin() + mid, left->refs.end());
  right->stored.assign(left->stored.begin() + mid, left->stored.end());
  std::vector<IndexEntryPlain> right_plains(plains.begin() + mid,
                                            plains.end());
  left->refs.resize(mid);
  left->stored.resize(mid);
  plains.resize(mid);

  SplitResult result;
  result.split = true;
  result.separator = right_plains.front().key;
  result.separator_row = right_plains.front().table_row;
  result.new_node = right_id;
  SDBENC_RETURN_IF_ERROR(WriteBack(node_id, plains, snapshot));
  SDBENC_RETURN_IF_ERROR(WriteBack(right_id, right_plains, snapshot));
  return result;
}

Status BPlusTree::BulkLoad(std::vector<std::pair<Bytes, uint64_t>> pairs,
                           const Parallelism& par,
                           BulkLoadTimings* timings) {
  if (num_entries_ != 0 || pager_.size() != 1) {
    return FailedPreconditionError("BulkLoad requires an empty tree");
  }
  if (pairs.empty()) return OkStatus();

  const auto ms_between = [](std::chrono::steady_clock::time_point a,
                             std::chrono::steady_clock::time_point b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
  };
  const auto sort_start = std::chrono::steady_clock::now();

  const auto less = [](const std::pair<Bytes, uint64_t>& a,
                       const std::pair<Bytes, uint64_t>& b) {
    const int c = CompareBytes(a.first, b.first);
    if (c != 0) return c < 0;
    return a.second < b.second;
  };
  const size_t workers = par.Resolve();
  if (workers > 1 && pairs.size() > 4096) {
    // Chunked parallel sort + serial pairwise merge. The comparator is a
    // total order over distinct elements (equal elements are bitwise
    // identical pairs), so the sorted sequence — and therefore the whole
    // tree — is the same at every thread count.
    const size_t chunk = (pairs.size() + workers - 1) / workers;
    SDBENC_RETURN_IF_ERROR(ParallelFor(
        workers, /*grain=*/1, par,
        [&](size_t begin, size_t end) -> Status {
          for (size_t w = begin; w < end; ++w) {
            const size_t lo = w * chunk;
            if (lo >= pairs.size()) continue;
            const size_t hi = std::min(lo + chunk, pairs.size());
            std::sort(pairs.begin() + lo, pairs.begin() + hi, less);
          }
          return OkStatus();
        }));
    for (size_t width = chunk; width < pairs.size(); width *= 2) {
      for (size_t lo = 0; lo + width < pairs.size(); lo += 2 * width) {
        const size_t hi = std::min(lo + 2 * width, pairs.size());
        std::inplace_merge(pairs.begin() + lo, pairs.begin() + width + lo,
                           pairs.begin() + hi, less);
      }
    }
  } else {
    std::sort(pairs.begin(), pairs.end(), less);
  }

  const auto build_start = std::chrono::steady_clock::now();
  if (timings != nullptr) {
    timings->sort_ms = ms_between(sort_start, build_start);
  }

  // Plaintext entries per node, written back (encoded) once the structure
  // is final. Parallel to the pager's slots.
  std::vector<std::vector<IndexEntryPlain>> plains_by_node;
  pager_.Reset();

  // ---- leaf level: parallel runs ----
  // The leaf partition is pure arithmetic over the sorted input — leaf i
  // holds entries [i*order, ...) with entry refs assigned contiguously
  // from the partition — so after a serial id/pointer pre-pass each run is
  // built independently. The serial path falls out of ParallelFor at 1.
  struct LevelNode {
    int id;
    Bytes min_key;  // composite minimum of the subtree
    uint64_t min_row;
  };
  std::vector<LevelNode> level;
  const size_t per_leaf = order_;
  const size_t leaf_count = (pairs.size() + per_leaf - 1) / per_leaf;
  std::vector<int> leaf_ids(leaf_count);
  std::vector<BTreeNode*> leaf_nodes(leaf_count);
  for (size_t i = 0; i < leaf_count; ++i) {
    leaf_ids[i] = pager_.Alloc();
    SDBENC_ASSIGN_OR_RETURN(leaf_nodes[i], pager_.Mut(leaf_ids[i]));
  }
  plains_by_node.resize(leaf_count);
  const uint64_t ref_base = next_entry_ref_;
  SDBENC_RETURN_IF_ERROR(ParallelFor(
      leaf_count, /*grain=*/1, par,
      [&](size_t begin, size_t end) -> Status {
        for (size_t li = begin; li < end; ++li) {
          const size_t off = li * per_leaf;
          const size_t n = std::min(per_leaf, pairs.size() - off);
          BTreeNode* node = leaf_nodes[li];
          node->leaf = true;
          node->next = li + 1 < leaf_count ? leaf_ids[li + 1] : -1;
          std::vector<IndexEntryPlain>& plains = plains_by_node[li];
          node->refs.reserve(n);
          node->stored.resize(n);
          plains.reserve(n);
          for (size_t i = 0; i < n; ++i) {
            IndexEntryPlain plain;
            plain.key = std::move(pairs[off + i].first);
            plain.table_row = pairs[off + i].second;
            node->refs.push_back(ref_base + off + i);
            plains.push_back(std::move(plain));
          }
        }
        return OkStatus();
      }));
  next_entry_ref_ = ref_base + pairs.size();
  level.reserve(leaf_count);
  for (size_t i = 0; i < leaf_count; ++i) {
    level.push_back(LevelNode{leaf_ids[i], plains_by_node[i].front().key,
                              plains_by_node[i].front().table_row});
  }
  num_entries_ = pairs.size();

  // ---- inner levels: serial stitch ----
  // Each level is a 1/order fraction of the one below, so the stitch is
  // cheap; keeping it serial keeps the borrow-one fixup (below) and the
  // separator ref assignment trivially deterministic.
  while (level.size() > 1) {
    std::vector<LevelNode> parent_level;
    const size_t per_inner = order_ + 1;  // children per inner node
    for (size_t off = 0; off < level.size(); off += per_inner) {
      size_t n = std::min(per_inner, level.size() - off);
      // Avoid a trailing single-child inner node: borrow one from the
      // previous group.
      if (n == 1 && !parent_level.empty()) {
        SDBENC_ASSIGN_OR_RETURN(BTreeNode * prev,
                                pager_.Mut(parent_level.back().id));
        const int moved = prev->children.back();
        prev->children.pop_back();
        prev->refs.pop_back();
        prev->stored.pop_back();
        std::vector<IndexEntryPlain>& prev_plains =
            plains_by_node[parent_level.back().id];
        IndexEntryPlain sep = std::move(prev_plains.back());
        prev_plains.pop_back();
        const int id = pager_.Alloc();
        SDBENC_ASSIGN_OR_RETURN(BTreeNode * node, pager_.Mut(id));
        node->leaf = false;
        node->children = {moved, level[off].id};
        node->refs = {next_entry_ref_++};
        node->stored = {Bytes()};
        Bytes sep_key;
        uint64_t sep_row;
        SeparatorParts(sep, &sep_key, &sep_row);
        std::vector<IndexEntryPlain> plains{
            MakeSeparatorEntry(level[off].min_key, level[off].min_row)};
        // The new node's minimum is the moved child's minimum = the
        // separator we took from the previous parent.
        parent_level.push_back(LevelNode{id, sep_key, sep_row});
        plains_by_node.push_back(std::move(plains));
        continue;
      }
      const int id = pager_.Alloc();
      SDBENC_ASSIGN_OR_RETURN(BTreeNode * node, pager_.Mut(id));
      node->leaf = false;
      std::vector<IndexEntryPlain> plains;
      for (size_t i = 0; i < n; ++i) {
        node->children.push_back(level[off + i].id);
        if (i > 0) {
          node->refs.push_back(next_entry_ref_++);
          node->stored.push_back(Bytes());
          plains.push_back(MakeSeparatorEntry(level[off + i].min_key,
                                              level[off + i].min_row));
        }
      }
      parent_level.push_back(
          LevelNode{id, level[off].min_key, level[off].min_row});
      plains_by_node.push_back(std::move(plains));
    }
    level = std::move(parent_level);
  }
  root_ = level.front().id;

  // ---- encode everything exactly once ----
  const auto encode_start = std::chrono::steady_clock::now();
  if (timings != nullptr) {
    timings->build_ms = ms_between(build_start, encode_start);
  }
  const auto record_encode_ms = [&] {
    if (timings != nullptr) {
      timings->encode_ms =
          ms_between(encode_start, std::chrono::steady_clock::now());
    }
  };
  if (par.Resolve() > 1 && codec_->supports_stateless_encode()) {
    // Serial pre-pass: pin each node and draw each entry's randomness in
    // exactly the order the serial WriteBack loop would consume it, so the
    // stored entries are byte-identical at every thread count. Node
    // pointers are stable across Alloc(), so the parallel pass below writes
    // through them without touching the pager.
    std::vector<BTreeNode*> nodes(pager_.size());
    std::vector<std::vector<Bytes>> nonces(pager_.size());
    size_t total_entries = 0;
    for (size_t id = 0; id < pager_.size(); ++id) {
      SDBENC_ASSIGN_OR_RETURN(nodes[id], pager_.Mut(static_cast<int>(id)));
      const size_t slots = plains_by_node[id].size();
      nonces[id].reserve(slots);
      for (size_t slot = 0; slot < slots; ++slot) {
        nonces[id].push_back(codec_->DrawEncodeNonce());
      }
      total_entries += slots;
    }
    // Node-parallel encode: each task owns whole nodes, so no two threads
    // ever write the same node; the codec's EncodeWithNonce is const.
    const IndexEntryCodec* codec = codec_;
    SDBENC_RETURN_IF_ERROR(ParallelFor(
        pager_.size(), /*grain=*/1, par,
        [&](size_t begin, size_t end) -> Status {
          for (size_t id = begin; id < end; ++id) {
            BTreeNode* node = nodes[id];
            const std::vector<IndexEntryPlain>& plains = plains_by_node[id];
            for (size_t slot = 0; slot < plains.size(); ++slot) {
              SDBENC_ASSIGN_OR_RETURN(
                  Bytes stored,
                  codec->EncodeWithNonce(plains[slot],
                                         MakeContext(*node, slot),
                                         ToView(nonces[id][slot])));
              node->stored[slot] = std::move(stored);
            }
          }
          return OkStatus();
        }));
    encode_calls_.fetch_add(total_entries, std::memory_order_relaxed);
    EntryEncodesMetric()->Add(total_entries);
    record_encode_ms();
    return OkStatus();
  }
  for (size_t id = 0; id < pager_.size(); ++id) {
    SDBENC_RETURN_IF_ERROR(WriteBack(static_cast<int>(id),
                                     plains_by_node[id], RefISnapshot{}));
  }
  record_encode_ms();
  return OkStatus();
}

Status BPlusTree::Insert(BytesView key, uint64_t table_row) {
  SDBENC_ASSIGN_OR_RETURN(SplitResult split, InsertRec(root_, key, table_row));
  if (!split.split) return OkStatus();

  // Grow a new root.
  const int new_root = pager_.Alloc();
  SDBENC_ASSIGN_OR_RETURN(BTreeNode * root, pager_.Mut(new_root));
  root->leaf = false;
  root->children = {root_, split.new_node};
  root->refs = {next_entry_ref_++};
  root->stored = {Bytes()};
  std::vector<IndexEntryPlain> plains{
      MakeSeparatorEntry(split.separator, split.separator_row)};
  root_ = new_root;
  return WriteBack(new_root, plains, RefISnapshot{});
}

StatusOr<std::vector<uint64_t>> BPlusTree::Find(BytesView key) const {
  Bytes key_copy(key.begin(), key.end());
  SDBENC_ASSIGN_OR_RETURN(std::vector<uint64_t> rows,
                          Range(key_copy, key_copy));
  return rows;
}

StatusOr<std::vector<uint64_t>> BPlusTree::Range(BytesView lo,
                                                 BytesView hi) const {
  const Bytes lo_copy(lo.begin(), lo.end());
  const Bytes hi_copy(hi.begin(), hi.end());
  return RangeBounded(&lo_copy, &hi_copy);
}

StatusOr<std::vector<uint64_t>> BPlusTree::RangeBounded(
    const Bytes* lo, const Bytes* hi) const {
  std::vector<uint64_t> rows;

  // Descend to the leftmost leaf that could contain `lo` (or the leftmost
  // leaf overall when unbounded below).
  int node_id = root_;
  SDBENC_ASSIGN_OR_RETURN(const BTreeNode* node, pager_.Get(node_id));
  while (!node->leaf) {
    size_t idx = 0;
    if (lo != nullptr) {
      const Probe lo_probe{BytesView(*lo), 0, -1};
      for (; idx < node->stored.size(); ++idx) {
        SDBENC_ASSIGN_OR_RETURN(IndexEntryPlain sep, DecodeEntry(*node, idx));
        if (CompareSeparatorToProbe(sep, lo_probe) > 0) break;
      }
    }
    node_id = node->children[idx];
    SDBENC_ASSIGN_OR_RETURN(node, pager_.Get(node_id));
  }

  // Walk the sibling chain collecting matching rows.
  while (node_id >= 0) {
    SDBENC_ASSIGN_OR_RETURN(node, pager_.Get(node_id));
    for (size_t i = 0; i < node->stored.size(); ++i) {
      SDBENC_ASSIGN_OR_RETURN(IndexEntryPlain e, DecodeEntry(*node, i));
      if (lo != nullptr) {
        const Probe lo_probe{BytesView(*lo), 0, -1};
        if (CompareEntryToProbe(e, lo_probe) < 0) continue;
      }
      if (hi != nullptr) {
        const Probe hi_probe{BytesView(*hi), 0, +1};
        if (CompareEntryToProbe(e, hi_probe) > 0) return rows;
      }
      rows.push_back(e.table_row);
    }
    node_id = node->next;
  }
  return rows;
}

Status BPlusTree::Remove(BytesView key, uint64_t table_row) {
  const Probe exact{key, table_row, 0};

  int node_id = root_;
  SDBENC_ASSIGN_OR_RETURN(const BTreeNode* node, pager_.Get(node_id));
  while (!node->leaf) {
    size_t idx = 0;
    for (; idx < node->stored.size(); ++idx) {
      SDBENC_ASSIGN_OR_RETURN(IndexEntryPlain sep, DecodeEntry(*node, idx));
      if (CompareSeparatorToProbe(sep, exact) > 0) break;
    }
    node_id = node->children[idx];
    SDBENC_ASSIGN_OR_RETURN(node, pager_.Get(node_id));
  }
  while (node_id >= 0) {
    SDBENC_ASSIGN_OR_RETURN(node, pager_.Get(node_id));
    for (size_t i = 0; i < node->stored.size(); ++i) {
      SDBENC_ASSIGN_OR_RETURN(IndexEntryPlain e, DecodeEntry(*node, i));
      const int cmp = CompareEntryToProbe(e, exact);
      if (cmp > 0) return NotFoundError("index entry not found");
      if (cmp == 0) {
        SDBENC_ASSIGN_OR_RETURN(BTreeNode * mut, pager_.Mut(node_id));
        mut->stored.erase(mut->stored.begin() + i);
        mut->refs.erase(mut->refs.begin() + i);
        --num_entries_;
        return OkStatus();
      }
    }
    node_id = node->next;
  }
  return NotFoundError("index entry not found");
}

size_t BPlusTree::num_nodes() const { return pager_.size(); }

size_t BPlusTree::height() const {
  size_t h = 1;
  int node_id = root_;
  while (true) {
    const StatusOr<BTreeNode*> node = pager_.Get(node_id);
    if (!node.ok() || (*node)->leaf) return h;
    node_id = (*node)->children.front();
    ++h;
  }
}

Status BPlusTree::CheckNode(int node_id, const Bytes* lo, const Bytes* hi,
                            size_t depth, size_t leaf_depth) const {
  SDBENC_ASSIGN_OR_RETURN(const BTreeNode* node, pager_.Get(node_id));
  if (node->stored.size() != node->refs.size()) {
    return InternalError("stored/ref count mismatch");
  }
  std::vector<IndexEntryPlain> plains;
  for (size_t i = 0; i < node->stored.size(); ++i) {
    SDBENC_ASSIGN_OR_RETURN(IndexEntryPlain e, DecodeEntry(*node, i));
    plains.push_back(std::move(e));
  }
  // Recover the plain key of each entry (inner entries hold the composite
  // key || row; leaves hold the key directly).
  std::vector<Bytes> keys(plains.size());
  for (size_t i = 0; i < plains.size(); ++i) {
    if (node->leaf) {
      keys[i] = plains[i].key;
    } else {
      uint64_t row;
      SeparatorParts(plains[i], &keys[i], &row);
    }
  }
  // Entries sorted by key within the node.
  for (size_t i = 1; i < keys.size(); ++i) {
    if (CompareBytes(keys[i], keys[i - 1]) < 0) {
      return InternalError("entries out of order in node " +
                           std::to_string(node_id));
    }
  }
  // Bounds from the parent separators (key component only; duplicates may
  // legitimately touch the bounds on either side).
  if (lo != nullptr && !keys.empty()) {
    if (CompareBytes(keys.front(), *lo) < 0) {
      return InternalError("entry below parent separator");
    }
  }
  if (hi != nullptr && !keys.empty()) {
    if (CompareBytes(keys.back(), *hi) > 0) {
      return InternalError("entry above parent separator");
    }
  }
  if (node->leaf) {
    if (depth != leaf_depth) {
      return InternalError("leaves at different depths");
    }
    return OkStatus();
  }
  if (node->children.size() != plains.size() + 1) {
    return InternalError("inner node child count mismatch");
  }
  for (size_t i = 0; i < node->children.size(); ++i) {
    const Bytes* child_lo = (i == 0) ? lo : &keys[i - 1];
    const Bytes* child_hi = (i == keys.size()) ? hi : &keys[i];
    SDBENC_RETURN_IF_ERROR(CheckNode(node->children[i], child_lo, child_hi,
                                     depth + 1, leaf_depth));
  }
  return OkStatus();
}

Status BPlusTree::CheckStructure() const {
  // Determine leaf depth from the leftmost path, then verify globally.
  size_t leaf_depth = 1;
  int node_id = root_;
  SDBENC_ASSIGN_OR_RETURN(const BTreeNode* node, pager_.Get(node_id));
  while (!node->leaf) {
    node_id = node->children.front();
    SDBENC_ASSIGN_OR_RETURN(node, pager_.Get(node_id));
    ++leaf_depth;
  }
  SDBENC_RETURN_IF_ERROR(CheckNode(root_, nullptr, nullptr, 1, leaf_depth));

  // Sibling chain covers all entries in globally sorted order.
  Bytes prev_key;
  uint64_t prev_row = 0;
  bool have_prev = false;
  size_t seen = 0;
  while (node_id >= 0) {
    SDBENC_ASSIGN_OR_RETURN(node, pager_.Get(node_id));
    for (size_t i = 0; i < node->stored.size(); ++i) {
      SDBENC_ASSIGN_OR_RETURN(IndexEntryPlain e, DecodeEntry(*node, i));
      if (have_prev) {
        const Probe prev{prev_key, prev_row, 0};
        if (CompareEntryToProbe(e, prev) < 0) {
          return InternalError("sibling chain out of order");
        }
      }
      prev_key = e.key;
      prev_row = e.table_row;
      have_prev = true;
      ++seen;
    }
    node_id = node->next;
  }
  if (seen != num_entries_) {
    return InternalError("sibling chain entry count mismatch");
  }
  return OkStatus();
}

std::vector<BPlusTree::StoredEntry> BPlusTree::DumpStoredEntries() const {
  std::vector<StoredEntry> out;
  for (size_t n = 0; n < pager_.size(); ++n) {
    const StatusOr<BTreeNode*> node = pager_.Get(static_cast<int>(n));
    if (!node.ok()) continue;  // unreadable node: nothing to dump
    for (size_t i = 0; i < (*node)->stored.size(); ++i) {
      out.push_back(
          StoredEntry{(*node)->refs[i], (*node)->leaf, (*node)->stored[i]});
    }
  }
  return out;
}

Bytes* BPlusTree::MutableStoredEntry(uint64_t entry_ref) {
  for (size_t n = 0; n < pager_.size(); ++n) {
    const StatusOr<BTreeNode*> node = pager_.Get(static_cast<int>(n));
    if (!node.ok()) continue;
    for (size_t i = 0; i < (*node)->refs.size(); ++i) {
      if ((*node)->refs[i] == entry_ref) {
        // Tampering counts as a write: the adversary's modification must
        // survive a flush, so the slot goes dirty like any other mutation.
        const StatusOr<BTreeNode*> mut = pager_.Mut(static_cast<int>(n));
        if (!mut.ok()) return nullptr;
        return &(*mut)->stored[i];
      }
    }
  }
  return nullptr;
}

StatusOr<BPlusTree::WalkNode> BPlusTree::GetWalkNode(int node_id) const {
  SDBENC_ASSIGN_OR_RETURN(const BTreeNode* node, pager_.Get(node_id));
  WalkNode walk;
  walk.leaf = node->leaf;
  walk.stored = node->stored;
  for (size_t i = 0; i < node->stored.size(); ++i) {
    walk.contexts.push_back(MakeContext(*node, i));
  }
  if (!node->leaf) walk.children = node->children;
  walk.next = node->next;
  return walk;
}

StatusOr<IndexEntryContext> BPlusTree::ContextOf(uint64_t entry_ref) const {
  for (size_t n = 0; n < pager_.size(); ++n) {
    SDBENC_ASSIGN_OR_RETURN(const BTreeNode* node,
                            pager_.Get(static_cast<int>(n)));
    for (size_t i = 0; i < node->refs.size(); ++i) {
      if (node->refs[i] == entry_ref) {
        return MakeContext(*node, i);
      }
    }
  }
  return NotFoundError("no entry with ref " + std::to_string(entry_ref));
}

Status BPlusTree::FlushDirty(RecordStore& store) {
  return pager_.FlushDirty(store);
}

void BPlusTree::WriteMetaTo(BinaryWriter& w,
                            const std::vector<uint64_t>& ids) const {
  w.PutU32(static_cast<uint32_t>(root_));
  w.PutU64(num_entries_);
  w.PutU64(next_entry_ref_);
  w.PutU32(static_cast<uint32_t>(ids.size()));
  for (const uint64_t id : ids) w.PutU64(id);
}

Status BPlusTree::SaveMeta(BinaryWriter& w) const {
  const std::vector<uint64_t> ids = pager_.record_ids();
  for (const uint64_t id : ids) {
    if (id == kNoRecord) {
      return FailedPreconditionError(
          "tree has unflushed nodes; FlushDirty before SaveMeta");
    }
  }
  WriteMetaTo(w, ids);
  return OkStatus();
}

Status BPlusTree::DumpTo(RecordStore& store, BinaryWriter* w) const {
  std::vector<uint64_t> ids;
  SDBENC_RETURN_IF_ERROR(pager_.DumpAllTo(store, &ids));
  WriteMetaTo(*w, ids);
  return OkStatus();
}

Status BPlusTree::LoadFrom(RecordStore* store, BinaryReader& r) {
  SDBENC_ASSIGN_OR_RETURN(const uint32_t root, r.GetU32());
  SDBENC_ASSIGN_OR_RETURN(const uint64_t num_entries, r.GetU64());
  SDBENC_ASSIGN_OR_RETURN(const uint64_t next_ref, r.GetU64());
  SDBENC_ASSIGN_OR_RETURN(const uint32_t nslots, r.GetU32());
  if (root >= nslots) return ParseError("tree root outside node directory");
  if (nslots > r.Remaining() / 8) {
    return ParseError("node directory exceeds tree metadata size");
  }
  std::vector<uint64_t> ids(nslots);
  for (uint32_t i = 0; i < nslots; ++i) {
    SDBENC_ASSIGN_OR_RETURN(ids[i], r.GetU64());
    if (ids[i] == kNoRecord) return ParseError("node without backing record");
  }
  pager_.AttachForLoad(store, std::move(ids));
  root_ = static_cast<int>(root);
  num_entries_ = static_cast<size_t>(num_entries);
  next_entry_ref_ = next_ref;
  return OkStatus();
}

Status BPlusTree::FreeStorage(RecordStore& store) {
  return pager_.FreeStorage(store);
}

}  // namespace sdbenc
