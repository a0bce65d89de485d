#include "audit/snapshot_audit.hpp"

#include <utility>

#include "snapshot/snapshot.hpp"

namespace bacp::audit {

AuditReport audit_snapshot(std::span<const std::uint8_t> bytes) {
  // The same walk SystemSnapshot::from_bytes / from_mapping gate on, so
  // the audit and the load path can never disagree about a buffer.
  snapshot::Framing framing = snapshot::validate_framing(bytes);
  AuditReport report;
  report.checks = framing.checks;
  for (snapshot::FramingDefect& defect : framing.defects) {
    Violation violation;
    violation.structure = Structure::Snapshot;
    violation.object = std::move(defect.object);
    violation.field = std::move(defect.field);
    violation.expected = std::move(defect.expected);
    violation.actual = std::move(defect.actual);
    report.violations.push_back(std::move(violation));
  }
  return report;
}

AuditReport audit_snapshot(const snapshot::SystemSnapshot& snapshot) {
  return audit_snapshot(snapshot.data());
}

}  // namespace bacp::audit
