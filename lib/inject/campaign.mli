(** Fault Injection Manager (paper §4, module 2).

    For each fault in the list: flip the bit in the configuration image,
    re-derive the circuit the fabric now implements, run the test pattern,
    and compare every output bit of every clock cycle against the golden
    device (a netlist-level simulation of the unprotected design).  Any
    difference — including an unknown value — classifies the fault as a
    Wrong Answer; the fault is then reverted (scrubbing) and the next one
    is injected.

    Campaigns run on a {!Pool} of OCaml domains: each worker owns a
    private bitstream copy, extractor and simulator workspace, and writes
    its results into the shared array by fault index, so the result is
    byte-identical to a sequential run regardless of scheduling.  Inside
    each worker, cone-aware fast paths ({!Tmr_fabric.Fsim.plan_fault})
    skip, patch or locally reroute faults instead of rebuilding the
    simulator per fault; the fast paths are exact, so they change only the
    throughput, never the results.

    On top of the fast paths, the differential engine records one
    fault-free baseline tape per worker and then simulates each patch
    or reroute fault only inside the fanout cone of its faulted nodes
    ({!Tmr_fabric.Fsim.diff_run}): non-cone inputs are replayed from the
    tape, unchanged cone nodes are skipped event-driven, and a fault is
    abandoned at the first cycle boundary where it provably converged
    back to the baseline.  Also exact — bit-identical results, only
    faster.

    On top of the differential engine, the bit-parallel batch engine
    ({!Tmr_fabric.Fsim_batch}) packs up to 64 patch/reroute
    faults with structurally close fanout cones into the bit lanes of
    one word-parallel cone walk, amortising the event-driven evaluation
    across the whole batch.  Still exact: per-fault verdicts are
    bit-identical to the scalar engine, and both are tested against one
    oracle, the full per-fault rebuild ([run ~cone_skip:false]). *)

type stimulus = {
  cycles : int;
  inputs : (string * int array) list;
      (** per base input port, one sample per cycle.  A TMR DUT's
          triplicated copies of the port are driven identically. *)
}

type outcome =
  | Silent
  | Wrong_answer

type fault_result = {
  bit : int;
  outcome : outcome;
  effect : Classify.effect;
  first_error_cycle : int;  (** -1 when silent *)
  detect_cycle : int;
      (** first cycle an in-circuit detection flag (a detecting voter's
          pairwise disagreement output) fired; [-1] when it never did —
          always [-1] on designs without detection voters *)
  forensics : Forensics.t option;
      (** per-fault forensic record; [None] when collection was off.
          Collection never changes [bit]/[outcome]/[effect]/
          [first_error_cycle] — results are bit-identical either way. *)
}

(** Four-way detected-vs-silent verdict taxonomy: the functional outcome
    crossed with whether the design's own detection logic flagged the
    upset.  [Silent_wrong] is the silent-data-corruption (SDC) class —
    a wrong answer the circuit never noticed. *)
type verdict =
  | Silent_correct  (** output correct, no flag — masked or out-voted *)
  | Detected_corrected  (** output correct, flag fired — TMR repaired it *)
  | Detected_wrong  (** output wrong, but the flag fired *)
  | Silent_wrong  (** output wrong, no flag — SDC *)

val verdict_of : fault_result -> verdict
val verdict_name : verdict -> string

type engine_stats = {
  skipped : int;  (** classified [Silent] without building or simulating *)
  patched : int;  (** simulated by patching the base simulator in place *)
  rerouted : int;  (** simulated on a locally rewired copy of the base *)
  rebuilt : int;  (** full per-fault simulator rebuild *)
  diffed : int;
      (** patch/reroute faults executed on the differential engine
          (subset of [patched + rerouted]) *)
  converged : int;
      (** differential faults abandoned early after provably converging
          back to the baseline (subset of [diffed]) *)
  batched : int;
      (** differential faults executed word-parallel by the bit-sliced
          batch engine ({!Tmr_fabric.Fsim_batch}), rather than one
          scalar diff each (subset of [diffed]) *)
}

type t = {
  design : string;
  requested : int;  (** length of the fault list the campaign was given *)
  injected : int;
      (** faults whose results were kept: [requested], or the CI stop
          index when [?stop_at_ci] fired ([= Array.length results]) *)
  wrong : int;
  results : fault_result array;
  workers : int;  (** worker count the campaign actually used *)
  stats : engine_stats;
      (** covers all work the engine performed — on a CI-stopped campaign
          that can exceed [injected] (in-flight chunks past the stop) *)
  wall_ns : int;  (** wall-clock time of the injection loop *)
  busy_ns : int array;
      (** per-worker time spent injecting (length [workers]); the gap to
          [workers * wall_ns] is per-worker setup ({!field-setup_ns}),
          claim contention and pool ramp-down *)
  setup_ns : int array;
      (** per-worker one-time initialisation (bitstream clone, simulator
          build, baseline tape, batch engine) before the first fault.
          Counted separately from [busy_ns] so the injection throughput
          stays comparable across engines, but included in
          {!utilization} — on fast engines the setup dominates the
          worker's wall time and ignoring it made utilization
          under-report (the 0.19 "parallel-batched" artifact). *)
}

type progress = {
  p_completed : int;  (** faults completed so far *)
  p_total : int;  (** faults requested *)
  p_wrong : int;
      (** wrong answers observed so far — read from a live counter, so it
          may trail [p_completed] by the few faults still in flight *)
}
(** Snapshot handed to the progress callback: enough to render a live
    wrong-answer rate ± CI next to the bar. *)

val utilization : t -> float
(** [(sum busy_ns + sum setup_ns) / (workers * wall_ns)] in [0,1] — how
    busy the average worker was while the campaign ran, counting both
    one-time setup and injection work.  The remainder is claim
    contention plus pool ramp-down. *)

val inject_utilization : t -> float
(** [sum busy_ns / (workers * wall_ns)] — injection work only, setup
    excluded.  This is what {!utilization} used to report; on the
    batched engine it is dominated by how small the per-fault work got
    relative to the fixed per-worker setup, so read it as an engine
    speed signal, not as idle workers. *)

val default_workers : unit -> int
(** [Domain.recommended_domain_count () - 1], at least 1. *)

val dut_output_wires : Tmr_pnr.Impl.t -> string -> int array
(** Physical PadOut wires of an output port of the implemented design. *)

val golden_outputs :
  Tmr_netlist.Netlist.t ->
  stimulus ->
  (string * Tmr_logic.Logic.t array array) list
(** Reference response of a netlist: for each output port, the per-cycle
    bit values sampled combinationally (before each clock edge). *)

val run :
  ?progress:(progress -> unit) ->
  ?workers:int ->
  ?cone_skip:bool ->
  ?forensics:bool ->
  ?stop_at_ci:Tmr_obs.Stats.stop_rule ->
  name:string ->
  impl:Tmr_pnr.Impl.t ->
  golden:Tmr_netlist.Netlist.t ->
  stimulus:stimulus ->
  faults:int array ->
  unit ->
  t
(** [workers] defaults to {!default_workers}.

    The engine picks how each fault runs from its inputs; there is no
    strategy knob.  Faults whose plan is a patch or a reroute run
    differentially (baseline tape + cone-restricted event-driven
    evaluation + convergence early-exit): packed by structural cone key
    (same LUT/FF bel, same pip destination wire) into the
    {!Tmr_fabric.Fsim_batch.width} lanes of the bit-parallel batch engine by
    default, or one by one on the scalar differential engine when
    batching cannot run ([forensics], [stop_at_ci], and lanes or batches
    the batch engine declines).  Both produce bit-identical verdicts.

    [cone_skip] (default [true]) enables that planning; [false] rebuilds
    and replays the full DUT for every fault.  That full rebuild is the
    single oracle the fast engines are tested against — a test and
    benchmark hook, not a user option.

    [forensics] (default [false]) attaches a {!Forensics.t} record to
    every result: structural domain/partition attribution on all plan
    paths, divergence observations on differentially-executed faults.  A
    registered {!Forensics} sink implies collection; the records are then
    also streamed as JSONL, in fault-index order, after the injection
    loop finishes (so the file is deterministic for a fixed fault list).
    Collection is read-only: outcomes are bit-identical with it on or
    off.

    [stop_at_ci] enables sequential stopping: the campaign terminates as
    soon as the Wilson CI of the wrong-answer rate over the completed
    fault *prefix* (in fault-index order) narrows to the rule's half
    width.  The stop index is a pure function of the fault list — never
    of worker count or scheduling — so a stopped campaign's [results]
    are bit-identical to the same full campaign truncated at
    [injected].  Workers finish in-flight chunks before draining; that
    overshoot appears in [stats] and [busy_ns] but not in [results].

    [progress] is called with a {!progress} snapshot from worker
    domains, serialized and rate-limited by the pool.

    Raises [Failure] if the un-faulted DUT does not match the golden
    device (an implementation-flow bug, not a fault); the message names
    the first disagreeing port, bit and expected/actual values. *)

(** {1 Single faults}

    A campaign measures every fault against one per-design {!harness}
    and runs every scalar fault through one dispatch.  Tools that look
    at one fault at a time ([tmrtool explain], {!Scrub}) use the same
    two, so they reach the verdict a campaign would. *)

type harness
(** The golden reference, the DUT's physical IO map (detection-flag
    ports included), the flattened expectation matrix and the
    fault-free extract. *)

val harness :
  name:string ->
  impl:Tmr_pnr.Impl.t ->
  golden:Tmr_netlist.Netlist.t ->
  stimulus:stimulus ->
  harness
(** The harness {!run} builds.  [Invalid_argument] on a short stimulus
    or a port the DUT lacks. *)

val golden_reference : harness -> (string * Tmr_logic.Logic.t array array) list
(** {!golden_outputs} of the golden netlist, per output port. *)

val detect_ports : harness -> string list
(** The DUT's detection-flag output ports; [[]] without a detecting voter. *)

val fresh_extract : harness -> Tmr_fabric.Extract.t
(** A private copy of the fault-free extract, to flip bits in. *)

type observation = {
  ob_cycle : int;
  ob_outputs : Tmr_logic.Logic.t array list;  (** per {!golden_reference} port *)
  ob_flags : Tmr_logic.Logic.t array list;  (** per {!detect_ports} port *)
}

val replay :
  ?observe:(observation -> unit) ->
  harness ->
  Tmr_fabric.Extract.t ->
  int * int * (string * int * Tmr_logic.Logic.t * Tmr_logic.Logic.t) option
(** The rebuild oracle: build the simulator the (possibly flipped)
    extract implements, replay the stimulus from reset, and return
    [(first_error_cycle, detect_cycle, mismatch)] as {!run}'s rebuild
    path computes them ([-1] = never); [mismatch] is the first
    disagreeing [(port, bit, expected, got)].  [observe] sees every
    settled cycle (the replay then runs to the end).  One domain at a
    time per harness. *)

type trace = {
  tr_result : fault_result;  (** with its {!Forensics.t} record *)
  tr_plan : Tmr_fabric.Fsim.fault_path;  (** the planned path *)
  tr_converge : int;  (** cycle the faulty state rejoined the baseline *)
  tr_cone : int;  (** differential fanout-cone nodes *)
  tr_seeds : int;  (** its seed nodes *)
  tr_frontier : int;  (** its frontier nodes *)
  tr_first_bel : int;  (** device bel of the first diverging node *)
}
(** The [tr_*] counters are [-1] when the fault did not run on the
    differential engine (or had no such cycle or bel). *)

val trace_fault : attrib:Forensics.attrib -> harness -> int -> trace
(** One bit through exactly the code a [~forensics:true] campaign
    worker runs (baseline check, tape, plan, scalar dispatch): its
    verdict and record are the ones the bit gets in such a campaign. *)

val active_campaigns : unit -> int
(** Campaigns currently inside {!run} in this process — the liveness
    probe behind the exposition server's [/healthz] endpoint. *)

val wrong_percent : t -> float

val ci : ?confidence:float -> t -> Tmr_obs.Stats.interval
(** Wilson CI (default 95 %) on the campaign's wrong-answer rate. *)

val wrong_by_effect : t -> Classify.effect -> int
(** Wrong answers whose fault has the given structural effect class. *)

(** {1 Detection taxonomy} *)

type detection_counts = {
  dc_silent_correct : int;
  dc_detected_corrected : int;
  dc_detected_wrong : int;
  dc_silent_wrong : int;
}
(** The four {!verdict} class sizes; they always sum to [injected]. *)

val detection_counts : t -> detection_counts

val sdc_percent : t -> float
(** Share of injected faults in the {!Silent_wrong} (SDC) class, in
    percent.  On designs without detection logic this equals
    {!wrong_percent} — every wrong answer is silent. *)

val detected_percent : t -> float
(** Share of injected faults whose detection flag fired (detected and
    corrected plus detected but wrong), in percent. *)

(** {1 Forensic aggregation} *)

type forensic_summary = {
  fs_faults : int;  (** faults carrying a forensic record *)
  fs_cross : int;  (** cross-domain faults (footprint spans >= 2 domains) *)
  fs_cross_wrong : int;  (** cross-domain among wrong answers *)
  fs_multi_part : int;  (** faults touching >= 2 voter partitions *)
  fs_voter_touch : int;  (** faults touching voter logic or voter nets *)
  fs_diverged : int;  (** faults with observed internal divergence *)
  fs_silent_diverged : int;  (** diverged internally yet stayed silent *)
  fs_voter_masked : int;  (** silent-diverged faults absorbed at a voter *)
}

val forensic_summary : t -> forensic_summary option
(** Aggregate over the campaign's forensic records; [None] when the
    campaign ran without forensics. *)

val summary_json : ?confidence:float -> t -> string
(** One-line JSON engine summary: requested/injected/wrong/wrong_percent
    with its Wilson CI at [confidence] (default 0.95, echoed in the
    object), worker utilization, plan-path breakdown,
    wrong answers per effect class, the four-way detection verdict split
    and the forensic aggregate (or [null]) — [tmrtool inject --json]. *)
