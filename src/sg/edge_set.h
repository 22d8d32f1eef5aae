#ifndef NTSG_SG_EDGE_SET_H_
#define NTSG_SG_EDGE_SET_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/logging.h"
#include "sg/conflicts.h"

namespace ntsg {

/// SplitMix64 finalizer: a cheap, well-distributed mixer for the
/// open-addressing tables below.
inline uint64_t HashMix64(uint64_t z) {
  z += 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Open-addressing hash map from a 64-bit key to a dense uint32 index, the
/// workhorse lookup of the conflict frontier. Keys are exact (no collision
/// folding): callers pack at most two 32-bit ids into the key. Linear
/// probing, power-of-two capacity, value-semantic (copyable for certifier
/// snapshots). The all-ones key is reserved as the empty sentinel and the
/// value just below it as the erase tombstone; erasure (the GC retirement
/// path) tombstones the cell so later probe chains stay intact, and the
/// table rehashes tombstones away once they would dominate the load.
class FlatIndexMap {
 public:
  static constexpr uint32_t kNotFound = 0xFFFFFFFFu;

  uint32_t Find(uint64_t key) const {
    if (cells_.empty()) return kNotFound;
    for (size_t i = HashMix64(key) & mask_;; i = (i + 1) & mask_) {
      if (cells_[i].key == kEmptyKey) return kNotFound;
      if (cells_[i].key == key) return cells_[i].value;
    }
  }

  /// Returns the value slot for `key`, inserting `value_if_new` first if the
  /// key is absent. The pointer is invalidated by the next insertion.
  uint32_t* FindOrInsert(uint64_t key, uint32_t value_if_new) {
    NTSG_CHECK_LT(key, kTombKey);
    if (size_ + tombs_ + 1 > (cells_.size() * 3) / 4) Grow();
    size_t tomb = SIZE_MAX;
    for (size_t i = HashMix64(key) & mask_;; i = (i + 1) & mask_) {
      if (cells_[i].key == kEmptyKey) {
        // Reuse the first tombstone on the probe chain if one was passed;
        // the chain up to here proved the key absent.
        if (tomb != SIZE_MAX) {
          i = tomb;
          --tombs_;
        }
        cells_[i] = Cell{key, value_if_new};
        ++size_;
        return &cells_[i].value;
      }
      if (cells_[i].key == kTombKey) {
        if (tomb == SIZE_MAX) tomb = i;
        continue;
      }
      if (cells_[i].key == key) return &cells_[i].value;
    }
  }

  /// Removes `key` if present; returns true iff it was. The cell becomes a
  /// tombstone (probe chains through it survive) until the next rehash.
  bool Erase(uint64_t key) {
    if (cells_.empty()) return false;
    for (size_t i = HashMix64(key) & mask_;; i = (i + 1) & mask_) {
      if (cells_[i].key == kEmptyKey) return false;
      if (cells_[i].key == key) {
        cells_[i].key = kTombKey;
        --size_;
        ++tombs_;
        return true;
      }
    }
  }

  /// Visits every live (key, value) pair, in unspecified order. The table
  /// must not be mutated during the walk.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Cell& c : cells_) {
      if (c.key < kTombKey) fn(c.key, c.value);
    }
  }

  size_t size() const { return size_; }
  /// Tombstoned cells awaiting a rehash; exposed for the container tests.
  size_t tombstones() const { return tombs_; }

 private:
  static constexpr uint64_t kEmptyKey = ~uint64_t{0};
  static constexpr uint64_t kTombKey = ~uint64_t{0} - 1;

  struct Cell {
    uint64_t key;
    uint32_t value;
  };

  void Grow() {
    // Double only when live entries need the room; a tombstone-heavy table
    // rehashes at its current capacity, which drops every tombstone.
    size_t cap = cells_.empty() ? 16
                 : size_ + 1 > (cells_.size() * 3) / 8 ? cells_.size() * 2
                                                       : cells_.size();
    std::vector<Cell> old = std::move(cells_);
    cells_.assign(cap, Cell{kEmptyKey, 0});
    mask_ = cap - 1;
    tombs_ = 0;
    for (const Cell& c : old) {
      if (c.key >= kTombKey) continue;
      for (size_t i = HashMix64(c.key) & mask_;; i = (i + 1) & mask_) {
        if (cells_[i].key == kEmptyKey) {
          cells_[i] = c;
          break;
        }
      }
    }
  }

  std::vector<Cell> cells_;
  size_t mask_ = 0;
  size_t size_ = 0;
  size_t tombs_ = 0;
};

/// Deduplicating set of sibling edges: an insertion-ordered arena of edges
/// plus an open-addressing slot table over it. Replaces std::set<SiblingEdge>
/// on the construction hot paths — O(1) expected insert, no node allocations,
/// value-semantic (copyable for certifier snapshots).
///
/// Erasure (the GC retirement path) tombstones the slot and turns the arena
/// entry into a dead sentinel (`parent == kInvalidTx`) so surviving arena
/// indices stay valid; the arena compacts in stable order once dead entries
/// would dominate. `edges()` exposes the raw arena, sentinels included —
/// iterate with `ForEach` (or skip `parent == kInvalidTx`) after erasures.
class SiblingEdgeSet {
 public:
  /// Inserts `e` if absent; returns true iff it was new.
  bool Insert(const SiblingEdge& e) {
    NTSG_CHECK_NE(e.parent, kInvalidTx);
    if (edges_.size() + 1 > (slots_.size() * 3) / 4) Grow();
    size_t tomb = SIZE_MAX;
    for (size_t i = Hash(e) & mask_;; i = (i + 1) & mask_) {
      if (slots_[i] == kEmptySlot) {
        if (tomb != SIZE_MAX) i = tomb;
        slots_[i] = static_cast<uint32_t>(edges_.size());
        edges_.push_back(e);
        return true;
      }
      if (slots_[i] == kTombSlot) {
        if (tomb == SIZE_MAX) tomb = i;
        continue;
      }
      if (edges_[slots_[i]] == e) return false;
    }
  }

  bool Contains(const SiblingEdge& e) const {
    if (slots_.empty()) return false;
    for (size_t i = Hash(e) & mask_;; i = (i + 1) & mask_) {
      if (slots_[i] == kEmptySlot) return false;
      if (slots_[i] == kTombSlot) continue;
      if (edges_[slots_[i]] == e) return true;
    }
  }

  /// Removes `e` if present; returns true iff it was. The arena entry
  /// becomes a dead sentinel until the next compaction, so indices held by
  /// concurrent readers of `edges()` are never shifted by an erase.
  bool Erase(const SiblingEdge& e) {
    if (slots_.empty()) return false;
    for (size_t i = Hash(e) & mask_;; i = (i + 1) & mask_) {
      if (slots_[i] == kEmptySlot) return false;
      if (slots_[i] == kTombSlot) continue;
      if (edges_[slots_[i]] == e) {
        edges_[slots_[i]] = kDeadEdge();
        slots_[i] = kTombSlot;
        ++dead_;
        MaybeCompact();
        return true;
      }
    }
  }

  /// Removes every edge for which `pred` returns true; returns the number
  /// removed. Surviving edges keep their relative insertion order.
  template <typename Pred>
  size_t EraseIf(Pred&& pred) {
    size_t removed = 0;
    for (SiblingEdge& e : edges_) {
      if (e.parent == kInvalidTx) continue;
      if (pred(static_cast<const SiblingEdge&>(e))) {
        e = kDeadEdge();
        ++removed;
      }
    }
    if (removed > 0) {
      dead_ += removed;
      Compact();
    }
    return removed;
  }

  /// Visits live edges in insertion order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const SiblingEdge& e : edges_) {
      if (e.parent != kInvalidTx) fn(e);
    }
  }

  size_t size() const { return edges_.size() - dead_; }
  bool empty() const { return size() == 0; }

  /// Raw arena in insertion order (stable across runs only if insertions
  /// are). After erasures it contains dead sentinels with
  /// `parent == kInvalidTx`; callers must skip them.
  const std::vector<SiblingEdge>& edges() const { return edges_; }

  /// Live edges sorted by (parent, from, to) — the canonical order every
  /// public relation returns and the fingerprinter consumes.
  std::vector<SiblingEdge> SortedEdges() const {
    std::vector<SiblingEdge> out;
    out.reserve(size());
    for (const SiblingEdge& e : edges_) {
      if (e.parent != kInvalidTx) out.push_back(e);
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  void clear() {
    edges_.clear();
    dead_ = 0;
    slots_.assign(slots_.size(), kEmptySlot);
  }

  /// Dead arena entries awaiting compaction; exposed for the container tests.
  size_t dead() const { return dead_; }

 private:
  static constexpr uint32_t kEmptySlot = 0xFFFFFFFFu;
  static constexpr uint32_t kTombSlot = 0xFFFFFFFEu;

  static SiblingEdge kDeadEdge() {
    return SiblingEdge{kInvalidTx, kInvalidTx, kInvalidTx};
  }

  static uint64_t Hash(const SiblingEdge& e) {
    uint64_t k = (uint64_t{e.parent} << 32) | e.from;
    return HashMix64(k ^ HashMix64(e.to));
  }

  void MaybeCompact() {
    if (dead_ >= 16 && dead_ * 2 > edges_.size()) Compact();
  }

  /// Stable-order rebuild of the arena without dead sentinels, then a full
  /// slot-table rebuild (which also drops every slot tombstone).
  void Compact() {
    std::vector<SiblingEdge> live;
    live.reserve(edges_.size() - dead_);
    for (const SiblingEdge& e : edges_) {
      if (e.parent != kInvalidTx) live.push_back(e);
    }
    edges_ = std::move(live);
    dead_ = 0;
    if (slots_.empty()) return;
    Rehash(slots_.size());
  }

  void Grow() {
    Rehash(slots_.empty() ? 32 : slots_.size() * 2);
  }

  void Rehash(size_t cap) {
    slots_.assign(cap, kEmptySlot);
    mask_ = cap - 1;
    for (size_t idx = 0; idx < edges_.size(); ++idx) {
      if (edges_[idx].parent == kInvalidTx) continue;
      for (size_t i = Hash(edges_[idx]) & mask_;; i = (i + 1) & mask_) {
        if (slots_[i] == kEmptySlot) {
          slots_[i] = static_cast<uint32_t>(idx);
          break;
        }
      }
    }
  }

  std::vector<SiblingEdge> edges_;
  std::vector<uint32_t> slots_;
  size_t mask_ = 0;
  size_t dead_ = 0;
};

}  // namespace ntsg

#endif  // NTSG_SG_EDGE_SET_H_
