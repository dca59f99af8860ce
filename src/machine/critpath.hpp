// Causal critical-path analysis (concert-insight).
//
// A traced run (concert-scope, CTRACE01) already records the full causal
// graph: MsgSend/MsgRecv pairs share a machine-unique flow id, as do
// Suspend/Resume pairs, and each node's records are in program order. The
// critical path of the run is the longest chain of happens-before edges
// ending at the globally last event — the one chain that bounds wall time, on
// which every microsecond spent is a microsecond of makespan.
//
// analyze_critical_path walks that chain *backward* from the terminal event:
// at each event the predecessor is either the previous event on the same node
// (program order) or the event's causal source (the MsgSend matching a
// MsgRecv, the Suspend matching a Resume), whichever is later. Each hop
// becomes a classified segment:
//
//   compute  same-node DispatchBegin -> DispatchEnd (a context step ran)
//   network  MsgSend -> MsgRecv across the matching flow id (wire + buffer)
//   wait     same-node Suspend -> Resume on one flow id (blocked on a reply)
//   sched    everything else on-node (queueing, flush, stack runs)
//
// InboxDrain, WaveRun and Park records are batch annotations, not causal
// steps: the walk skips them, so a drain recorded between a send and its
// receive cannot hide the network hop.
//
// Segments telescope, so compute + network + wait + sched exactly covers the
// span from where the walk ends to the terminal event; whatever precedes the
// walk's end (dropped records, pre-warm activity) lands in `untraced`.
// Attribution therefore always sums to the traced span — audited by tests.
//
// Beyond the path itself the report carries per-method attribution: on-path
// compute time versus *slack* (that method's total dispatch self-time that is
// NOT on the path — time that parallelizes away and would not shorten the run
// if optimized), and per-edge network totals. `concert_trace critpath`
// renders the report as a ranked table, JSON, or a Perfetto overlay;
// wallclock_suite folds the bucket fractions into BENCH_wallclock.json.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "machine/trace.hpp"

namespace concert {

enum class CritKind : std::uint8_t {
  Compute,  ///< a dispatched context step on the path
  Network,  ///< a send->recv flight on the path
  Wait,     ///< a suspend->resume gap on the path (blocked on a remote reply)
  Sched,    ///< on-node time between path events not covered above
};

const char* crit_kind_name(CritKind k);

/// One hop of the critical path, chronological ([t0_us, t1_us] in the dump's
/// display domain). `from_node` == `node` except for network segments.
struct CritSegment {
  CritKind kind;
  NodeId from_node;
  NodeId node;
  MethodId method;  ///< kInvalidMethod where no method applies
  double t0_us;
  double t1_us;
  double us() const { return t1_us - t0_us; }
};

/// Per-method attribution row. `on_path_us` is dispatch time on the critical
/// path (shortening it shortens the run); `slack_us` is the method's
/// remaining dispatch self-time, which overlaps the path and would not.
struct CritMethodRow {
  MethodId method;
  std::string name;
  double on_path_us = 0;
  double slack_us = 0;
  std::uint64_t segments = 0;  ///< on-path compute segments
};

/// Per network edge (src -> dst) on the path.
struct CritEdgeRow {
  NodeId from;
  NodeId to;
  double us = 0;
  std::uint64_t hops = 0;
};

struct CritPathReport {
  double t_min_us = 0;    ///< earliest traced event (display domain)
  double t_max_us = 0;    ///< terminal event (path anchor)
  double span_us = 0;     ///< t_max - t_min: the traced makespan
  double compute_us = 0;
  double network_us = 0;
  double wait_us = 0;
  double sched_us = 0;
  double untraced_us = 0;  ///< span before the walk's earliest reachable event
  /// (compute+network+wait+sched) / span — the fraction of the traced span
  /// the path walk itself explains. 0 when the dump is empty.
  double attributed_frac = 0;
  std::vector<CritSegment> path;        ///< chronological
  std::vector<CritMethodRow> methods;   ///< sorted by on_path_us descending
  std::vector<CritEdgeRow> edges;       ///< sorted by us descending
};

/// Extracts the critical path from a trace dump. Robust to rings that dropped
/// records: a recv whose send was overwritten simply has no causal
/// predecessor, so the walk continues in program order.
CritPathReport analyze_critical_path(const TraceDump& dump);

/// Machine-readable report: {"tool":"concert-insight","analysis":"critpath",
/// buckets, path segments, method rows, edge rows}.
void write_critpath_json(const CritPathReport& report, const TraceDump& dump, std::ostream& os);

/// Human-readable ranked tables (the `concert_trace critpath` default view).
void write_critpath_text(const CritPathReport& report, const TraceDump& dump, std::ostream& os);

/// Full Chrome/Perfetto export with the critical path overlaid as duration
/// slices on a dedicated "critical path" track (pid 1).
void write_critpath_chrome(const CritPathReport& report, const TraceDump& dump, std::ostream& os);

}  // namespace concert
