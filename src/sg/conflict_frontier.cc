#include "sg/conflict_frontier.h"

#include <iterator>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "sg/gc_watermark.h"

namespace ntsg {

namespace {

uint64_t HashOpRecord(const OpRecord& rec) {
  uint64_t h = HashMix64(static_cast<uint64_t>(rec.op));
  h = HashMix64(h ^ static_cast<uint64_t>(rec.arg));
  h = HashMix64(h ^ (rec.ret.is_ok() ? 0x517cc1b727220a95ull
                                     : static_cast<uint64_t>(rec.ret.AsInt())));
  // The all-ones key is the map's empty sentinel; fold it away.
  return h & 0x7FFFFFFFFFFFFFFFull;
}

}  // namespace

ObjectConflictFrontier::ObjectConflictFrontier(const SystemType& type,
                                               ConflictMode mode,
                                               ObjectId object)
    : type_(&type),
      mode_(mode),
      object_(object),
      otype_(type.object_type(object)) {
  NTSG_CHECK(mode != ConflictMode::kReadWrite ||
             otype_ == ObjectType::kReadWrite)
      << "kReadWrite conflict mode requires read/write objects";
}

bool ObjectConflictFrontier::ClassesConflict(const OpRecord& a,
                                             const OpRecord& b) const {
  if (mode_ == ConflictMode::kReadWrite) return RwAccessesConflict(a.op, b.op);
  return OperationsConflict(otype_, a, b);
}

uint32_t ObjectConflictFrontier::InternClass(const OpRecord& rec) {
  uint64_t h = HashOpRecord(rec);
  uint32_t* head = class_table_.FindOrInsert(h, kNoEntry);
  for (uint32_t c = *head; c != kNoEntry; c = classes_[c].chain_next) {
    const OpRecord& r = classes_[c].rec;
    if (r.op == rec.op && r.arg == rec.arg && r.ret == rec.ret) return c;
  }
  // New class: compute its conflict adjacency against every class seen so
  // far (self included) exactly once; these are the only OperationsConflict
  // evaluations the frontier ever performs.
  uint32_t id = static_cast<uint32_t>(classes_.size());
  classes_.push_back(ClassDef{rec, *head, {}});
  *head = id;
  ClassDef& me = classes_[id];
  for (uint32_t d = 0; d <= id; ++d) {
    ++stats_.class_pair_evals;
    if (!ClassesConflict(me.rec, classes_[d].rec)) continue;
    me.conflicts.push_back(d);
    if (d != id) classes_[d].conflicts.push_back(id);
  }
  return id;
}

void ObjectConflictFrontier::Emit(TxName parent, TxName from, TxName to,
                                  uint32_t from_class, uint32_t to_class,
                                  std::vector<SiblingEdge>* out) {
  ++stats_.hits;
  SiblingEdge e{parent, from, to};
  if (labels_enabled_) {
    // Classify this inducing pair by the observer/mutator split of its two
    // operation classes. Two pure observers never conflict under either
    // mode (reads commute; backward commutativity of two observers holds
    // because neither moves the state), so the fourth combination cannot
    // occur; map it to ww defensively.
    const bool from_mod = IsModifyingOp(classes_[from_class].rec.op);
    const bool to_mod = IsModifyingOp(classes_[to_class].rec.op);
    DepKind kind = !from_mod && to_mod ? DepKind::kReadWrite
                   : from_mod && !to_mod ? DepKind::kWriteRead
                                         : DepKind::kWriteWrite;
    label_bits_[e] |= static_cast<uint8_t>(kind);
  }
  out->push_back(e);
}

void ObjectConflictFrontier::AddOp(TxName access, const Value& v, uint64_t pos,
                                   std::vector<SiblingEdge>* new_edges) {
  const SystemType& type = *type_;
  NTSG_CHECK(type.IsAccess(access));
  const AccessSpec& spec = type.access(access);
  NTSG_CHECK_EQ(spec.object, object_);

  const bool in_order = !any_ops_ || pos > max_pos_;
  // In kReadWrite mode the conflict verdict ignores arguments and values, so
  // normalizing the class key to (op) alone keeps the table at two classes.
  OpRecord rec = mode_ == ConflictMode::kReadWrite
                     ? OpRecord{spec.op, 0, Value::Ok()}
                     : OpRecord{spec.op, spec.arg, v};
  const uint32_t cu = InternClass(rec);

  // Walk the ancestor chain; `child` is the child of `node` toward the
  // access. At the lca with any prior conflicting operation the two
  // to-children differ and an edge is emitted; above it they coincide and
  // the child-equality test skips the pair, exactly as from != to does in
  // the pair scan.
  TxName child = access;
  for (TxName node = type.parent(access);; child = node,
              node = type.parent(node)) {
    // Probe phase: edges against earlier (and, out of order, later)
    // operations of conflicting classes. Runs before this operation is
    // recorded so a self-conflicting class never pairs the op with itself.
    for (uint32_t d : classes_[cu].conflicts) {
      uint32_t list_idx =
          node_class_lists_.Find((uint64_t{node} << 32) | d);
      if (list_idx == FlatIndexMap::kNotFound) {
        ++stats_.misses;
        continue;
      }
      ClassList& list = lists_[list_idx];
      uint32_t* slot_idx = list.child_slots.FindOrInsert(
          child, static_cast<uint32_t>(list.slots.size()));
      if (*slot_idx == list.slots.size()) list.slots.push_back(ChildSlot{});
      ChildSlot& cs = list.slots[*slot_idx];
      if (in_order) {
        // Every existing entry has min_pos < pos; consume the unseen suffix
        // and advance the watermark so no (entry, observer) pair is scanned
        // twice across this child's operations.
        for (size_t i = cs.watermark; i < list.entries.size(); ++i) {
          const ChildStat& e = list.entries[i];
          if (e.child != child) Emit(node, e.child, child, d, cu, new_edges);
        }
        cs.watermark = static_cast<uint32_t>(list.entries.size());
      } else {
        // Deep reveal: the position falls inside history. Rescan in full,
        // both directions; the caller absorbs re-emission. Watermarks are
        // left alone — they only ever describe in-order consumption.
        for (const ChildStat& e : list.entries) {
          if (e.child == child) continue;
          if (e.min_pos < pos) Emit(node, e.child, child, d, cu, new_edges);
          if (e.max_pos > pos) Emit(node, child, e.child, cu, d, new_edges);
        }
      }
    }

    // Record phase: fold this operation into entries(node, cu). A fresh
    // list recycles a Retire-freed slot before growing the arena, so live
    // indices stay dense on a GC'd stream. A prospective index can never
    // collide with an existing mapping: freed indices have no keys pointing
    // at them and lists_.size() is out of range.
    uint32_t prospective = free_lists_.empty()
                               ? static_cast<uint32_t>(lists_.size())
                               : free_lists_.back();
    uint32_t* list_slot = node_class_lists_.FindOrInsert(
        (uint64_t{node} << 32) | cu, prospective);
    if (*list_slot == prospective) {
      if (free_lists_.empty()) {
        lists_.emplace_back();
      } else {
        free_lists_.pop_back();
      }
    }
    ClassList& mine = lists_[*list_slot];
    uint32_t* slot_idx = mine.child_slots.FindOrInsert(
        child, static_cast<uint32_t>(mine.slots.size()));
    if (*slot_idx == mine.slots.size()) mine.slots.push_back(ChildSlot{});
    ChildSlot& cs = mine.slots[*slot_idx];
    if (cs.entry == kNoEntry) {
      cs.entry = static_cast<uint32_t>(mine.entries.size());
      mine.entries.push_back(ChildStat{child, pos, pos});
    } else {
      ChildStat& e = mine.entries[cs.entry];
      if (pos < e.min_pos) e.min_pos = pos;
      if (pos > e.max_pos) e.max_pos = pos;
    }

    if (node == kT0) break;
  }

  if (!any_ops_ || pos > max_pos_) max_pos_ = pos;
  any_ops_ = true;
}

void ObjectConflictFrontier::Retire(
    const std::unordered_set<TxName>& retired_roots) {
  const SystemType& type = *type_;

  // Pass 1 over the key table: collect the lists to drop or filter (the
  // table cannot be mutated mid-walk). Interior nodes of a retired family
  // lose their whole (node, class) list; T0-level lists only lose the
  // entries of retired children.
  std::vector<std::pair<uint64_t, uint32_t>> drop, filter;
  node_class_lists_.ForEach([&](uint64_t key, uint32_t idx) {
    TxName node = static_cast<TxName>(key >> 32);
    if (node == kT0) {
      filter.emplace_back(key, idx);
    } else if (retired_roots.count(GcFamilyBook::RootOf(type, node)) != 0) {
      drop.emplace_back(key, idx);
    }
  });

  for (const auto& [key, idx] : drop) {
    lists_[idx] = ClassList{};
    free_lists_.push_back(idx);
    NTSG_CHECK(node_class_lists_.Erase(key));
  }

  for (const auto& [key, idx] : filter) {
    ClassList& list = lists_[idx];
    // removed_prefix[i] = retired entries among entries[0, i): the watermark
    // remap. Watermarks are prefix lengths of `entries`, so once retired
    // entries vanish, every consumed-prefix count shifts down by the number
    // removed below it.
    std::vector<uint32_t> removed_prefix(list.entries.size() + 1, 0);
    bool any_removed = false;
    for (size_t i = 0; i < list.entries.size(); ++i) {
      bool gone = retired_roots.count(list.entries[i].child) != 0;
      removed_prefix[i + 1] = removed_prefix[i] + (gone ? 1 : 0);
      any_removed |= gone;
    }
    if (!any_removed) continue;

    std::vector<ChildStat> kept;
    kept.reserve(list.entries.size() - removed_prefix.back());
    for (const ChildStat& e : list.entries) {
      if (retired_roots.count(e.child) == 0) kept.push_back(e);
    }

    if (kept.empty()) {
      // Nothing left to observe either way: surviving observers' watermarks
      // reset with the empty entry list when the slot is recreated.
      lists_[idx] = ClassList{};
      free_lists_.push_back(idx);
      NTSG_CHECK(node_class_lists_.Erase(key));
      continue;
    }

    // Rebuild the per-child slots keeping only live children, remapping
    // their entry indices and watermarks past the removed prefix.
    ClassList rebuilt;
    rebuilt.entries = std::move(kept);
    list.child_slots.ForEach([&](uint64_t child_key, uint32_t slot_idx) {
      TxName child = static_cast<TxName>(child_key);
      if (retired_roots.count(child) != 0) return;
      const ChildSlot& old_slot = list.slots[slot_idx];
      ChildSlot remapped;
      remapped.entry = old_slot.entry == kNoEntry
                           ? kNoEntry
                           : old_slot.entry - removed_prefix[old_slot.entry];
      remapped.watermark = old_slot.watermark -
                           removed_prefix[old_slot.watermark];
      uint32_t* s = rebuilt.child_slots.FindOrInsert(
          child, static_cast<uint32_t>(rebuilt.slots.size()));
      NTSG_CHECK_EQ(*s, rebuilt.slots.size());
      rebuilt.slots.push_back(remapped);
    });
    lists_[idx] = std::move(rebuilt);
  }

  // Labels naming retired families would otherwise pin their entries
  // forever; the closure invariant means an edge touches a retired family
  // iff its T0-projected endpoint does.
  for (auto it = label_bits_.begin(); it != label_bits_.end();) {
    it = RetiredScopeEdge(type, retired_roots, it->first)
             ? label_bits_.erase(it)
             : std::next(it);
  }
}

}  // namespace ntsg
