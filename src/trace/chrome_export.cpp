#include "trace/chrome_export.hpp"

#include <set>
#include <string>

#include "stats/json.hpp"
#include "telemetry/tracer.hpp"

namespace optsync::trace {

namespace {

using stats::JsonWriter;
using telemetry::Journal;
using Kind = Journal::Kind;
using Event = Journal::Event;

double to_us(sim::Time t) { return static_cast<double>(t) / 1000.0; }

void common_fields(JsonWriter& w, const Event& e, std::string_view ph,
                   std::string_view name, std::string_view cat) {
  w.value("name", name)
      .value("cat", cat)
      .value("ph", ph)
      .value("ts", to_us(e.t))
      .value("pid", 0)
      .value("tid", static_cast<std::uint64_t>(e.node));
}

void write_args(JsonWriter& w, const Event& e) {
  w.begin_object("args").value("kind", Journal::kind_name(e.kind));
  Journal::write_fields(w, e);
  w.end_object();
}

}  // namespace

void write_chrome_trace(std::ostream& out, const Journal& journal,
                        const telemetry::Tracer* tracer) {
  JsonWriter w(out);
  w.begin_object();
  w.value("displayTimeUnit", "ns");
  w.begin_array("traceEvents");

  // Thread-name metadata so Perfetto labels each row "node N".
  std::set<std::uint32_t> nodes;
  for (const Event& e : journal.events()) nodes.insert(e.node);
  w.begin_object()
      .value("name", "process_name")
      .value("ph", "M")
      .value("pid", 0)
      .begin_object("args")
      .value("name", "optsync simulation")
      .end_object()
      .end_object();
  for (const auto n : nodes) {
    w.begin_object()
        .value("name", "thread_name")
        .value("ph", "M")
        .value("pid", 0)
        .value("tid", static_cast<std::uint64_t>(n))
        .begin_object("args")
        .value("name", std::string("node ") + std::to_string(n))
        .end_object()
        .end_object();
  }

  for (const Event& e : journal.events()) {
    w.begin_object();
    switch (e.kind) {
      // Duration slices: a hold span opens at acquire and closes at
      // release; a speculative window opens at speculate-begin and closes
      // at commit or rollback. Perfetto renders an unmatched B (a span
      // cut by simulation end, or whose close came after the pool filled)
      // as an unfinished slice, which is the honest picture.
      case Kind::kLockAcquire:
        common_fields(w, e, "B", "hold", "lock");
        write_args(w, e);
        break;
      case Kind::kLockRelease:
        common_fields(w, e, "E", "hold", "lock");
        break;
      case Kind::kSpeculateBegin:
        common_fields(w, e, "B", "speculate", "mutex");
        write_args(w, e);
        break;
      case Kind::kSpeculateCommit:
        common_fields(w, e, "E", "speculate", "mutex");
        break;
      case Kind::kRollback:
        // Close the speculative window, then drop an instant marker so the
        // rollback stands out even when zoomed far out.
        common_fields(w, e, "E", "speculate", "mutex");
        w.end_object();
        w.begin_object();
        common_fields(w, e, "i", "rollback", "mutex");
        w.value("s", "t");
        write_args(w, e);
        break;
      default: {
        const char* cat = "dsm";
        if (e.kind == Kind::kNetDeliver) cat = "net";
        if (!Journal::is_protocol(e.kind)) cat = "decision";
        common_fields(w, e, "i", Journal::kind_name(e.kind), cat);
        w.value("s", "t");
        write_args(w, e);
      }
    }
    w.end_object();
  }

  if (tracer != nullptr) {
    // Causal spans as async begin/end pairs: one async track per trace id,
    // so Perfetto threads an op's legs together across nodes. The request
    // umbrella is named after the op class for quick filtering.
    tracer->for_each_span([&](const telemetry::Span& s) {
      if (s.end == 0) return;  // still open at export time
      std::string name;
      if (s.kind == telemetry::SpanKind::kRequest) {
        name = "op:";
        name += tracer->op_of(s.trace);
      } else {
        name = telemetry::span_kind_name(s.kind);
      }
      for (const std::string_view ph : {"b", "e"}) {
        w.begin_object()
            .value("name", name)
            .value("cat", "span")
            .value("ph", ph)
            .value("ts", to_us(ph == "b" ? s.start : s.end))
            .value("pid", 0)
            .value("tid", static_cast<std::uint64_t>(s.node))
            .value("id", s.trace);
        if (ph == "b") {
          w.begin_object("args")
              .value("span", s.id)
              .value("parent", s.parent)
              .end_object();
        }
        w.end_object();
      }
    });
  }

  w.end_array();
  // Pool accounting: lets a reader see whether the trace is the whole run
  // or only its first capacity() records.
  w.begin_object("otherData")
      .value("events_retained", static_cast<std::uint64_t>(journal.size()))
      .value("events_dropped", journal.dropped())
      .end_object();
  w.end_object();
  out << "\n";
}

}  // namespace optsync::trace
