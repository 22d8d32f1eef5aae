#ifndef NTSG_SG_FINGERPRINT_H_
#define NTSG_SG_FINGERPRINT_H_

#include <cstdint>
#include <vector>

#include "sg/conflicts.h"

namespace ntsg {

/// Canonical 64-bit fingerprint of a serialization graph, defined over the
/// *sets* of conflict and precedes edges: edges are sorted and hashed
/// (FNV-1a) with a tag separating the two relations, so any two certifiers
/// that agree on the edge sets agree on the fingerprint — regardless of
/// discovery order, GC schedule, or crashes injected along the way. This is
/// the byte-identity the chaos command and the golden corpus pin down.
uint64_t FingerprintSerializationGraph(std::vector<SiblingEdge> conflict_edges,
                                       std::vector<SiblingEdge> precedes_edges);

/// Overload for callers that already hold sorted, deduplicated edge ranges
/// (e.g. std::set iteration): hashes in iteration order without copying.
class GraphFingerprinter {
 public:
  /// Feed conflict edges first, then precedes edges, each in strictly
  /// increasing SiblingEdge order.
  void AddConflict(const SiblingEdge& e) { Mix(1, e); }
  void AddPrecedes(const SiblingEdge& e) { Mix(2, e); }

  uint64_t Finish() const { return hash_; }

 private:
  void Mix(uint64_t tag, const SiblingEdge& e) {
    for (uint64_t word :
         {tag, static_cast<uint64_t>(e.parent), static_cast<uint64_t>(e.from),
          static_cast<uint64_t>(e.to)}) {
      for (int byte = 0; byte < 8; ++byte) {
        hash_ ^= (word >> (8 * byte)) & 0xFF;
        hash_ *= 0x100000001B3ull;  // FNV-1a 64 prime
      }
    }
  }

  uint64_t hash_ = 0xCBF29CE484222325ull;  // FNV-1a 64 offset basis
};

}  // namespace ntsg

#endif  // NTSG_SG_FINGERPRINT_H_
