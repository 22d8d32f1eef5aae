#include "sg/certifier.h"

#include <string>

#include "sg/appropriate.h"
#include "sg/incremental_certifier.h"

namespace ntsg {

namespace {

Status AppropriateReturnValues(const SystemType& type, const Trace& serial,
                               ConflictMode mode) {
  return mode == ConflictMode::kReadWrite
             ? CheckAppropriateReturnValuesRw(type, serial)
             : CheckAppropriateReturnValuesGeneral(type, serial);
}

// The status both entry points report: the value detail first, then the
// cycle.
Status VerdictStatus(const SystemType& type, const Status& values,
                     const std::optional<std::vector<TxName>>& cycle) {
  if (!values.ok()) {
    return Status::VerificationFailed("return values not appropriate: " +
                                      values.message());
  }
  if (cycle.has_value()) {
    std::string names;
    for (TxName t : *cycle) {
      if (!names.empty()) names += " -> ";
      names += type.NameOf(t);
    }
    return Status::VerificationFailed("serialization graph has cycle: " +
                                      names);
  }
  return Status::Ok();
}

// The bounded-memory path: stream the behavior through the incremental
// certifier with the watermark collector enabled instead of materializing
// SG(serial(beta)) whole. Same verdict; the cycle is the online
// first-rejection witness, and edge counts cover the live scope only
// (retired families' memoized edges are reclaimed). The value detail is
// recomputed from the serial part only when the values were rejected.
CertifierReport CertifyStreamingWithGc(const SystemType& type,
                                       const Trace& beta, ConflictMode mode,
                                       size_t interval) {
  GcOptions gc;
  gc.interval = interval;
  IncrementalCertifier cert(type, mode, gc);
  cert.IngestTrace(beta);

  CertifierReport report;
  IncrementalVerdict v = cert.verdict();
  report.appropriate_return_values = v.appropriate;
  report.graph_acyclic = v.acyclic;
  report.conflict_edge_count = cert.conflict_edge_count();
  report.precedes_edge_count = cert.precedes_edge_count();
  if (!v.acyclic) report.cycle = cert.cycle_witness();
  Status values = v.appropriate
                      ? Status::Ok()
                      : AppropriateReturnValues(type, SerialPart(beta), mode);
  report.status = VerdictStatus(type, values, report.cycle);
  return report;
}

}  // namespace

CertifierReport CertifySeriallyCorrect(const SystemType& type,
                                       const Trace& beta, ConflictMode mode,
                                       const CertifyOptions& options) {
  if (options.gc_watermark > 0) {
    return CertifyStreamingWithGc(type, beta, mode, options.gc_watermark);
  }
  CertifierReport report;
  Trace serial = SerialPart(beta);

  Status values = AppropriateReturnValues(type, serial, mode);
  report.appropriate_return_values = values.ok();

  SerializationGraph sg = SerializationGraph::Build(type, serial, mode);
  report.conflict_edge_count = sg.conflict_edges().size();
  report.precedes_edge_count = sg.precedes_edges().size();
  report.cycle = sg.FindCycle();
  report.graph_acyclic = !report.cycle.has_value();
  report.status = VerdictStatus(type, values, report.cycle);
  return report;
}

}  // namespace ntsg
