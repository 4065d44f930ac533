// Chrome trace-event JSON export for the event stream (telemetry::Journal).
//
// Produces the "JSON Array Format" that chrome://tracing and Perfetto load
// directly: one pid for the whole simulation, one tid per simulated node,
// timestamps in microseconds (sim time is nanoseconds; fractional µs keeps
// full precision). Critical-section holds and speculative windows become
// duration slices (ph B/E) so a Fig. 7 run visibly shows the near CPU's
// speculate slice being cut short by the far CPU's rollback; every other
// record, decision records included, becomes a thread-scoped instant
// carrying its fields in args.
#pragma once

#include <ostream>

#include "telemetry/journal.hpp"

namespace optsync::telemetry {
class Tracer;
}

namespace optsync::trace {

/// Writes the retained records as a complete Chrome trace JSON document,
/// plus the causal spans of `tracer` (when non-null) as async begin/end
/// pairs keyed by trace id — Perfetto draws each traced op's
/// request/wait/wire/queue/coalesce legs as one connected track.
void write_chrome_trace(std::ostream& out, const telemetry::Journal& journal,
                        const telemetry::Tracer* tracer = nullptr);

}  // namespace optsync::trace
