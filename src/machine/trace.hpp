// Per-node event ring (concert-scope + concert-insight): one bounded ring of
// scheduler events per node, at two detail levels, exportable to the Chrome
// trace-event format (chrome://tracing, Perfetto), to a compact binary dump
// consumed by the `concert_trace` CLI, and to POSTMORTEM.json.
//
// Coarse detail is always on. The kinds marked coarse below (dispatches,
// deliveries, suspend/resume, drains, flushes, waves, parks) go into a fixed
// window of the newest kCoarseWindow records per node: two predictable
// branches and one 32-byte store per event, no wall-clock read, no causal id. When a stall or
// a panic ends a run, the window is what POSTMORTEM.json's `flight` arrays
// show.
//
// Full detail is on when MachineConfig::trace is set. Every kind is recorded,
// each stamped with BOTH the node's simulated clock (instruction count) and a
// wall-clock steady_clock offset from the machine's epoch, so the same ring
// serves the deterministic simulator (simulated-time timelines) and the
// threaded engine (real-time timelines). The ring keeps the newest
// MachineConfig::trace_capacity records, grown on demand; older ones are
// overwritten and counted as dropped (records written minus records retained)
// instead of growing without bound on long runs.
//
// Causality (full detail only): every MsgSend draws a machine-unique causal
// id that travels in the message and is re-recorded by the receiver's
// MsgRecv; every Suspend draws one that the matching Resume re-records. The
// Chrome export turns these pairs into Perfetto *flow events*, making a
// remote invocation's critical path (send -> recv -> dispatch -> reply ->
// resume) visible end-to-end across nodes.
//
// Recording never touches the cost model, so simulated clocks and the paper
// tables are identical at either detail level. Each ring is written only by
// its owning node's thread and read after quiescence or thread join, so
// appends are plain stores — safe in the threaded engine without atomics.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <string>
#include <vector>

#include "core/ids.hpp"

namespace concert {

/// Event kinds. The numbering is the binary dump's on-disk kind byte: append
/// only, never reorder. `arg` is the record's small payload.
enum class TraceKind : std::uint8_t {
  MsgSend,        ///< fine: a message left this node (arg = destination node)
  MsgRecv,        ///< coarse: a message was received (arg = source node)
  DispatchBegin,  ///< coarse: a heap context starts a parallel-version step (arg = context id)
  DispatchEnd,    ///< fine: that step returned
  Suspend,        ///< coarse: context suspended on unfilled slots (arg = context id)
  Resume,         ///< coarse: suspended context re-enqueued (arg = context id)
  StackRun,       ///< fine: a wrapper executed a method on the handler stack
  OutboxFlush,    ///< coarse: an outbox destination drained into the network (arg = messages)
  InboxDrain,     ///< coarse: inbox batch pulled, threaded engine (arg = batch size)
  WaveRun,        ///< coarse: merged wave executed on the stack (arg = run length)
  Park,           ///< coarse: inbox consumer parked idle, threaded engine
  RunEnd,         ///< fine: the innermost open StackRun or WaveRun on this node returned
};

inline constexpr std::size_t kTraceKindCount = 12;

/// True for the kinds recorded at coarse detail (always on); the rest are
/// recorded only when MachineConfig::trace is set.
constexpr bool trace_kind_coarse(TraceKind k) {
  return k != TraceKind::MsgSend && k != TraceKind::DispatchEnd && k != TraceKind::StackRun &&
         k != TraceKind::RunEnd;
}

const char* trace_kind_name(TraceKind k);
/// Inverse of trace_kind_name; returns false when `name` matches no kind.
bool trace_kind_from_name(const std::string& name, TraceKind& out);

/// One ring record: 32 bytes. `wall_ns` and `cause` stay 0 at coarse detail.
struct TraceRecord {
  std::uint64_t clock;    ///< node-local simulated instruction count
  std::uint64_t wall_ns;  ///< steady_clock ns since the machine's trace epoch
  std::uint64_t cause;    ///< causal/flow id pairing send-recv and suspend-resume; 0 = none
  MethodId method;        ///< kInvalidMethod where not applicable
  TraceKind kind : 8;
  std::uint32_t arg : 24 = 0;  ///< per-kind payload (see TraceKind), saturated at kTraceArgMax
};
static_assert(sizeof(TraceRecord) == 32, "one record must stay 32 bytes");

inline constexpr std::uint32_t kTraceArgMax = (1u << 24) - 1;

/// Per-node bounded event ring (see the file comment for the two detail
/// levels). Appending is O(1) with no allocation once the ring is warm; when
/// full, the oldest record is overwritten. Single-writer (the owning node's
/// thread), read at quiescence.
class Tracer {
 public:
  using Clock = std::chrono::steady_clock;
  /// Records kept at coarse detail: 256 x 32 B = 8 KB per node, allocated
  /// at the first record.
  static constexpr std::size_t kCoarseWindow = 256;

  /// Switches to full detail: every kind, wall-stamped, up to `capacity`
  /// records (0 keeps coarse detail). Discards anything recorded so far.
  void enable(std::size_t capacity, Clock::time_point epoch) {
    full_ = capacity > 0;
    capacity_ = full_ ? capacity : kCoarseWindow;
    epoch_ = epoch;
    ring_.clear();
    clear();
  }
  /// True at full detail (MachineConfig::trace).
  bool enabled() const { return full_; }
  std::size_t capacity() const { return capacity_; }

  /// Appends a record. Callers filter fine kinds on enabled() (Node::trace
  /// does so at compile time); `cause` must be 0 at coarse detail.
  void record(std::uint64_t clock, TraceKind kind, MethodId method, std::uint32_t arg,
              std::uint64_t cause) {
    if (next_ == ring_.size()) wrap_or_grow();
    ring_[next_++] = TraceRecord{clock, full_ ? wall_ns() : 0, cause, method, kind,
                                 std::min(arg, kTraceArgMax)};
    ++total_;
  }

  /// Records ever written since the last enable()/clear().
  std::uint64_t total() const { return total_; }
  /// Records retained (the newest min(total, capacity)).
  std::size_t size() const {
    return total_ < ring_.size() ? static_cast<std::size_t>(total_) : ring_.size();
  }
  /// Records overwritten at full detail (written minus retained); the coarse
  /// window overwrites by design and reports 0.
  std::uint64_t dropped() const { return full_ ? total_ - size() : 0; }

  /// The newest `newest` retained records (all by default), oldest -> newest.
  std::vector<TraceRecord> snapshot(
      std::size_t newest = std::numeric_limits<std::size_t>::max()) const;

  void clear() {
    next_ = 0;
    total_ = 0;
  }

 private:
  std::uint64_t wall_ns() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_).count());
  }
  /// Called when the write position reaches the end of the allocated ring:
  /// grows the ring (to the coarse window, then doubling) while it is below
  /// capacity, else wraps to the start.
  void wrap_or_grow();

  bool full_ = false;
  std::size_t capacity_ = kCoarseWindow;
  std::size_t next_ = 0;  ///< next write position; <= ring_.size()
  std::uint64_t total_ = 0;
  Clock::time_point epoch_{};
  std::vector<TraceRecord> ring_;
};

class Machine;

/// One record tagged with its node — the flattened, export-ready form.
struct TraceEvent {
  NodeId node;
  TraceRecord rec;
};

/// A machine's complete trace, detached from the live runtime: what the
/// binary dump stores and every converter/summarizer consumes. Events are
/// ordered (node ascending, per-node record order).
struct TraceDump {
  std::size_t node_count = 0;
  std::uint64_t dropped = 0;   ///< total records overwritten across all rings
  bool wall_time = false;      ///< which timestamp domain is meaningful for display
  double us_per_insn = 1.0;    ///< sim-time conversion (1e6 / clock_hz)
  std::vector<std::string> method_names;  ///< MethodId-indexed
  std::vector<TraceEvent> events;

  /// `m`'s name; "(root)" for kInvalidMethod and ids outside the table.
  const std::string& method_name(MethodId m) const;
  /// `r`'s timestamp in the display domain, in microseconds (wall ns / 1e3,
  /// or sim instructions * us_per_insn).
  double display_us(const TraceRecord& r) const {
    return wall_time ? static_cast<double>(r.wall_ns) / 1e3
                     : static_cast<double>(r.clock) * us_per_insn;
  }
};

/// One closed run: a dispatch step (DispatchBegin to DispatchEnd), or a
/// wrapper stack run or merged wave (StackRun or WaveRun to RunEnd).
struct TraceRun {
  std::size_t begin;  ///< index of the opening record in TraceDump::events
  std::size_t end;    ///< index of the closing record
  double nested_us;   ///< display time of the runs closed directly inside it
};

/// Pairs run begins with run ends, the one pairing every trace reader uses.
/// Runs nest per node. An end record closes the innermost open run of its
/// kind; an end with no such run open closes nothing; a stack or wave run
/// still open at a dispatch_end is dropped. Runs are listed in the order
/// they close, which is their end records' order in the dump.
std::vector<TraceRun> trace_runs(const TraceDump& dump);

/// Snapshots every node's ring plus the registry's method names.
/// `wall_time` selects the display domain for subsequent Chrome export
/// (true for the threaded engine, false for the simulator). A machine built
/// without MachineConfig::trace yields no events: its coarse windows lack
/// sends, dispatch ends and flow ids, so they are a postmortem aid
/// (Machine::write_postmortem), not a trace.
TraceDump dump_trace(const Machine& machine, bool wall_time = false);

/// Compact binary dump (magic "CTRACE02"), the `concert_trace` CLI's input.
void write_binary_trace(const TraceDump& dump, std::ostream& os);
/// Largest node count read_binary_trace accepts. Consumers size per-node
/// tables from the header, so a corrupt count must not reach them.
constexpr std::uint32_t kTraceMaxNodes = 1u << 16;

/// Reads a binary dump; returns false (with *err set when non-null) on a
/// malformed or truncated stream, a node count above kTraceMaxNodes, or an
/// event on a node outside the dump.
bool read_binary_trace(std::istream& is, TraceDump& out, std::string* err = nullptr);

/// Chrome trace-event JSON (object form): {"traceEvents": [...],
/// "metadata": {...}}. Every run trace_runs pairs becomes a duration event;
/// send/recv and suspend/resume pairs become Perfetto flow events bound to
/// their causal ids; everything else becomes instants. Timestamps come from
/// the dump's display domain (wall ns -> us, or sim instructions -> us).
/// The metadata block surfaces the dropped-record and incomplete-flow counts.
void write_chrome_trace(const TraceDump& dump, std::ostream& os);

/// An extra duration slice overlaid on the export (concert-insight renders
/// the critical path this way): drawn on a dedicated track (pid 1) above the
/// per-node timelines.
struct ChromeSlice {
  std::string name;
  std::string cat;
  double ts_us;
  double dur_us;
};

/// Chrome export with extra overlay slices on a "critical path" track.
void write_chrome_trace(const TraceDump& dump, std::ostream& os,
                        const std::vector<ChromeSlice>& extra);

/// Convenience overload: dump + export in simulated time.
void write_chrome_trace(const Machine& machine, std::ostream& os);

/// Flows that cannot be paired anymore: MsgRecv events whose matching MsgSend
/// record was overwritten in a full ring (or never traced). A non-zero count
/// means causal analyses (critpath, flow pairing) see a truncated graph —
/// surfaced by `concert_trace summary` and the Chrome export metadata.
std::uint64_t count_incomplete_flows(const TraceDump& dump);

}  // namespace concert
