#include "checker/witness.h"

#include <algorithm>
#include <set>

#include "checker/oracle.h"
#include "common/logging.h"
#include "serial/validator.h"
#include "sg/fast_graph.h"

namespace ntsg {

namespace {

/// Shared context for the recursive construction.
class WitnessBuilder {
 public:
  WitnessBuilder(const SystemType& type, const Trace& beta,
                 const std::map<TxName, std::vector<TxName>>& orders)
      : type_(type), index_(type, beta) {
    for (const auto& [parent, children] : orders) {
      for (size_t i = 0; i < children.size(); ++i) {
        position_[{parent, children[i]}] = i;
      }
    }
    for (const Action& a : beta) {
      if (!a.IsSerial()) continue;
      TxName t = TransactionOf(type, a);
      if (t != kInvalidTx && !type.IsAccess(t)) projection_[t].push_back(a);
      if (a.kind == ActionKind::kRequestCommit && type.IsAccess(a.tx)) {
        access_value_.emplace(a.tx, a.value);
      }
    }
  }

  /// Emits the whole witness into `out`; T0's events drive the top level.
  Status Build(Trace& out) {
    return EmitLevel(kT0, out);
  }

 private:
  /// Sorting key of child `c` under parent `p`: children named in `orders`
  /// first (by position), the rest after, by name.
  std::pair<size_t, TxName> Key(TxName p, TxName c) const {
    auto it = position_.find({p, c});
    if (it != position_.end()) return {it->second, c};
    return {SIZE_MAX, c};
  }

  bool Less(TxName p, TxName a, TxName b) const {
    return Key(p, a) < Key(p, b);
  }

  const Trace& ProjectionOf(TxName t) const {
    static const Trace empty;
    auto it = projection_.find(t);
    return it == projection_.end() ? empty : it->second;
  }

  /// Runs child `c` of `p`: the full serial execution CREATE .. COMMIT.
  Status RunChild(TxName c, Trace& out) {
    if (type_.IsAccess(c)) {
      auto it = access_value_.find(c);
      if (it == access_value_.end()) {
        return Status::VerificationFailed(
            "committed access without response: " + type_.NameOf(c));
      }
      out.push_back(Action::Create(c));
      out.push_back(Action::RequestCommit(c, it->second));
      out.push_back(Action::Commit(c));
      return Status::Ok();
    }
    out.push_back(Action::Create(c));
    NTSG_RETURN_IF_ERROR(EmitLevel(c, out));
    out.push_back(Action::Commit(c));
    return Status::Ok();
  }

  /// Replays β|t's local events in order, splicing in child runs before the
  /// reports that need them. For t == T0, CREATE/REQUEST_COMMIT framing is
  /// absent; for other t the caller emits CREATE/COMMIT around this.
  Status EmitLevel(TxName t, Trace& out) {
    // Committed children requested but not yet run, kept sorted by order.
    auto cmp = [this, t](TxName a, TxName b) { return Less(t, a, b); };
    std::set<TxName, decltype(cmp)> pending(cmp);
    std::set<TxName> ran;

    for (const Action& a : ProjectionOf(t)) {
      switch (a.kind) {
        case ActionKind::kCreate:
          break;  // CREATE(t) is emitted by the caller (RunChild).
        case ActionKind::kRequestCreate:
          out.push_back(a);
          if (index_.IsCommitted(a.tx)) pending.insert(a.tx);
          break;
        case ActionKind::kReportCommit: {
          // Run every accumulated sibling ordered at or before a.tx.
          while (!pending.empty() &&
                 (!Less(t, a.tx, *pending.begin()) ||
                  *pending.begin() == a.tx)) {
            TxName v = *pending.begin();
            pending.erase(pending.begin());
            NTSG_RETURN_IF_ERROR(RunChild(v, out));
            ran.insert(v);
            if (v == a.tx) break;
          }
          if (!ran.count(a.tx)) {
            return Status::VerificationFailed(
                "witness: report for " + type_.NameOf(a.tx) +
                " before its run could be placed");
          }
          out.push_back(a);
          break;
        }
        case ActionKind::kReportAbort:
          out.push_back(Action::Abort(a.tx));
          out.push_back(a);
          break;
        case ActionKind::kRequestCommit:
          out.push_back(a);
          break;
        default:
          return Status::Corruption("unexpected event in beta|T: " +
                                    a.ToString(type_));
      }
    }
    // Committed-but-unreported children (possible only at T0's level) stay
    // unrun unless a reported sibling pulled them in; that is sound — γ is
    // just one serial behavior agreeing with β at T0.
    return Status::Ok();
  }

  const SystemType& type_;
  TraceIndex index_;
  std::map<std::pair<TxName, TxName>, size_t> position_;
  std::map<TxName, Trace> projection_;
  std::map<TxName, Value> access_value_;
};

}  // namespace

WitnessResult BuildAndCheckWitness(
    const SystemType& type, const Trace& beta,
    const std::map<TxName, std::vector<TxName>>& orders) {
  WitnessResult result;
  Trace serial = SerialPart(beta);

  WitnessBuilder builder(type, serial, orders);
  Trace gamma;
  Status built = builder.Build(gamma);
  if (!built.ok()) {
    result.status = built;
    return result;
  }

  // γ must be a genuine serial behavior...
  ProjectionEqualityOracle oracle(type, serial);
  Status valid = ValidateSerialBehavior(type, gamma, &oracle);
  if (!valid.ok()) {
    result.status = valid;
    return result;
  }
  // ... agreeing with β at T0 (the oracle already compared every projection,
  // including T0; this re-check keeps the guarantee independent).
  Trace gamma_t0 = ProjectTransaction(type, gamma, kT0);
  Trace beta_t0 = ProjectTransaction(type, serial, kT0);
  if (!(gamma_t0 == beta_t0)) {
    result.status = Status::VerificationFailed(
        "witness projection at T0 does not match behavior");
    return result;
  }
  result.status = Status::Ok();
  result.witness = std::move(gamma);
  return result;
}

WitnessResult CheckSeriallyCorrectForT0(const SystemType& type,
                                        const Trace& beta, ConflictMode mode) {
  Trace serial = SerialPart(beta);
  std::optional<std::map<TxName, std::vector<TxName>>> orders =
      FastTopologicalOrders(type, serial, mode);
  if (!orders.has_value()) {
    WitnessResult result;
    result.status = Status::VerificationFailed(
        "serialization graph cyclic, no witness order derivable");
    return result;
  }
  return BuildAndCheckWitness(type, serial, *orders);
}

}  // namespace ntsg
