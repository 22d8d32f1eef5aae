// The anomaly-template table for the isolation-level spectrum checkers
// (src/iso/): every hand-built template pins its expected per-level verdict
// vector (which level first rejects, and under which anomaly label). The
// templates are also an oracle_test source, which re-verifies every witness
// edge by edge against relations recomputed from scratch and checks
// monotonicity, agreement of the serializable level with the certifier, and
// incremental-versus-batch agreement.

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "iso/anomaly_traces.h"
#include "iso/checker.h"

namespace ntsg {
namespace {

struct ExpectedVector {
  AnomalyTemplate t;
  bool rc, ra, si, ser;  // expected ok per level, weakest first
  AnomalyKind anomaly;   // at the first failing level (kNone if all pass)
};

const ExpectedVector kExpected[] = {
    {AnomalyTemplate::kDirtyRead, false, false, false, false,
     AnomalyKind::kDirtyRead},
    {AnomalyTemplate::kDirtyReadNested, false, false, false, false,
     AnomalyKind::kDirtyRead},
    {AnomalyTemplate::kNonRepeatableRead, true, false, false, false,
     AnomalyKind::kNonRepeatableRead},
    {AnomalyTemplate::kReadSkew, true, false, false, false,
     AnomalyKind::kReadSkew},
    {AnomalyTemplate::kNestedReadSkew, true, false, false, false,
     AnomalyKind::kReadSkew},
    {AnomalyTemplate::kLostUpdate, true, false, false, false,
     AnomalyKind::kLostUpdate},
    {AnomalyTemplate::kWriteSkew, true, true, false, false,
     AnomalyKind::kWriteSkew},
    // The long fork's two anti-dependencies are *not* adjacent, so the
    // snapshot-isolation anti-pattern does not fire (the pattern admits
    // exactly the parallel-SI executions); the full-cycle serializable
    // check catches it and names it.
    {AnomalyTemplate::kLongFork, true, true, true, false,
     AnomalyKind::kLongFork},
    {AnomalyTemplate::kDependencyCycle, false, false, false, false,
     AnomalyKind::kDependencyCycle},
    {AnomalyTemplate::kSerializableClean, true, true, true, true,
     AnomalyKind::kNone},
    {AnomalyTemplate::kAbortedReaderClean, true, true, true, true,
     AnomalyKind::kNone},
};

void ExpectVectorMatches(const IsoVerdictVector& vv, const ExpectedVector& e,
                         const std::string& label) {
  EXPECT_EQ(vv.at(IsoLevel::kReadCommitted).ok, e.rc) << label;
  EXPECT_EQ(vv.at(IsoLevel::kReadAtomic).ok, e.ra) << label;
  EXPECT_EQ(vv.at(IsoLevel::kSnapshotIsolation).ok, e.si) << label;
  EXPECT_EQ(vv.at(IsoLevel::kSerializable).ok, e.ser) << label;
  EXPECT_TRUE(vv.Monotone()) << label;
  if (e.anomaly != AnomalyKind::kNone) {
    ASSERT_LT(vv.FirstFailing(), kNumIsoLevels) << label;
    EXPECT_EQ(vv.levels[vv.FirstFailing()].violation.anomaly, e.anomaly)
        << label;
  } else {
    EXPECT_TRUE(vv.AllOk()) << label;
  }
}

TEST(IsoDifferentialTest, TemplatesPinExpectedVerdictVectors) {
  for (const ExpectedVector& e : kExpected) {
    for (uint64_t salt : {0ull, 1ull, 2ull}) {
      BuiltTrace built = BuildAnomalyTrace(e.t, salt);
      IsoVerdictVector vv = CheckIsolationLevels(
          *built.type, built.trace, ConflictMode::kReadWrite);
      std::ostringstream label;
      label << AnomalyTemplateName(e.t) << "#" << salt;
      ExpectVectorMatches(vv, e, label.str());
      for (const IsoLevelVerdict& lv : vv.levels) {
        if (lv.ok) continue;
        EXPECT_TRUE(lv.violation.witness_verified)
            << label.str() << " at " << IsoLevelName(lv.level);
      }
    }
  }
}

}  // namespace
}  // namespace ntsg
