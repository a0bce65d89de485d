#pragma once

#include <cstdint>
#include <span>

#include "audit/audit.hpp"

namespace bacp::snapshot {
class SystemSnapshot;
}

namespace bacp::audit {

/// Graceful structural validation of a snapshot buffer: runs
/// snapshot::validate_framing — the one validator the snapshot load paths
/// also gate on — and reports every framing defect as a Violation: short
/// or truncated buffer, bad magic, version skew, oversized or unsorted
/// section table, sections outside the buffer or out of order, per-section
/// checksum mismatches, and trailing bytes past the last section. A buffer
/// that passes is one SystemSnapshot::from_bytes accepts; the restored
/// *state* is then cross-checked separately via audit_system_components()
/// (see audit_system()).
AuditReport audit_snapshot(std::span<const std::uint8_t> bytes);

/// audit_snapshot(snapshot.data()): re-walks an already-validated
/// snapshot's bytes (owned or mapped).
AuditReport audit_snapshot(const snapshot::SystemSnapshot& snapshot);

}  // namespace bacp::audit
