#include "sg/certifier.h"

#include <string>

#include "sg/appropriate.h"
#include "sg/incremental_certifier.h"

namespace ntsg {

namespace {

// The bounded-memory path: stream the behavior through the incremental
// certifier with the watermark collector enabled instead of materializing
// SG(serial(beta)) whole. Same verdict and witness; edge counts cover the
// live scope only (retired families' memoized edges are reclaimed).
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
  // Status preference order matches the batch build: values first.
  if (!v.appropriate) {
    report.status =
        Status::VerificationFailed("return values not appropriate");
  } else if (!v.acyclic) {
    std::string names;
    for (TxName t : *report.cycle) {
      if (!names.empty()) names += " -> ";
      names += type.NameOf(t);
    }
    report.status =
        Status::VerificationFailed("serialization graph has cycle: " + names);
  } else {
    report.status = Status::Ok();
  }
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

  Status values = mode == ConflictMode::kReadWrite
                      ? CheckAppropriateReturnValuesRw(type, serial)
                      : CheckAppropriateReturnValuesGeneral(type, serial);
  report.appropriate_return_values = values.ok();

  SerializationGraph sg = SerializationGraph::Build(type, serial, mode);
  report.conflict_edge_count = sg.conflict_edges().size();
  report.precedes_edge_count = sg.precedes_edges().size();
  report.cycle = sg.FindCycle();
  report.graph_acyclic = !report.cycle.has_value();

  if (!values.ok()) {
    report.status = Status::VerificationFailed(
        "return values not appropriate: " + values.message());
  } else if (!report.graph_acyclic) {
    std::string names;
    for (TxName t : *report.cycle) {
      if (!names.empty()) names += " -> ";
      names += type.NameOf(t);
    }
    report.status =
        Status::VerificationFailed("serialization graph has cycle: " + names);
  } else {
    report.status = Status::Ok();
  }
  return report;
}

}  // namespace ntsg
