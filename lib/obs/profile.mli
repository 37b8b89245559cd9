(** Offline aggregation of Chrome-trace JSONL emitted by {!Trace}.

    {!Trace} writes one complete-span event per line
    ([ph:"X"], [ts]/[dur] in microseconds, [tid] = domain id).  This
    module reconstructs span nesting per thread by interval containment
    (spans on one tid sorted by start time, longer-first on ties: a
    span starting inside the currently open span is its child) and
    aggregates three views:

    - a per-span-name table of count, total time and {e self} time
      (total minus direct children — where the time actually went);
    - a per-worker utilization timeline (fraction of wall-clock each
      tid spent inside a top-level span, bucketed);
    - a collapsed-stack export ([root;child;leaf <self-µs>] per line)
      consumable by standard flamegraph tooling.

    Self-time methodology: each span's children are the spans it
    directly contains on the same lane; [self = dur - Σ children.dur].
    Cross-domain causality is not reconstructed — a worker's spans root
    at that worker's lane.

    Lanes are pid-qualified: a merged fleet trace (forked workers'
    trace files stitched into the parent's) contains several processes
    whose domain ids collide, so spans are grouped by [(pid, tid)] and
    the timeline labels each process's lanes separately.  Lines without
    a [pid] field group under pid 0. *)

type t

val of_lines : string list -> (t, string) result
(** Parse trace lines.  Lines that are not [ph:"X"] objects are
    ignored; a malformed JSON line is an error.  Errors out on an empty
    trace. *)

val load_file : string -> (t, string) result

val span_table : t -> string
(** Per-name aggregate table, sorted by self time, with count,
    total/self time, share of total self time, and mean/min/max span
    duration. *)

val collapsed : t -> string
(** Collapsed stacks: one [path;to;span <count>] line per distinct
    stack, where the count is the stack's total self time in integer
    microseconds (flamegraph.pl / inferno compatible).  Stacks whose
    self time rounds to zero are kept at 1 µs so they stay visible. *)

val report : t -> string
(** Header (spans, tids, wall-clock) + {!span_table} + a per-lane
    utilization timeline: 60 buckets over the trace's wall-clock span,
    one row per [(pid, tid)] lane, darker = busier, with the overall
    busy fraction per lane.  Rows carry the pid only when the trace
    spans several processes. *)
