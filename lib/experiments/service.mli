(** Distributed campaign driver: sharded, resumable, multi-process runs.

    The execution model stacks two layers of parallelism:

    - inside one process, {!Tmr_inject.Campaign.run} spreads a shard's
      faults over a domain {!Tmr_inject.Pool};
    - {!run_sharded} splits the whole fault-index space into
      {!Tmr_inject.Shard} ranges kept in an on-disk
      {!Tmr_inject.Workqueue}, and with [procs >= 2] forks that many
      worker processes which claim ranges until the queue drains.

    Because each per-fault verdict is a pure function of the fault bit,
    the merged result is bit-identical to a single-process campaign over
    the same fault list, no matter how the ranges were distributed,
    interrupted or resumed. *)

type job = {
  j_design : Tmr_core.Partition.strategy;
  j_scale : Context.scale;
  j_seed : int;
  j_faults : int;  (** sample size; ignored when [j_exhaustive] *)
  j_exhaustive : bool;
      (** inject the design's {e entire} essential-bit list — the exact,
          CI-free wrong-answer rate of the paper's Table 3 argument *)
  j_shards : int;  (** checkpointable ranges to plan *)
  j_workers : int;  (** domain workers per process *)
  j_voter : Tmr_core.Voter.variant;
      (** voter macro the design is built with; part of the job
          fingerprint, so a resume never mixes voter variants *)
}

val job : ?scale:Context.scale -> ?seed:int -> ?faults:int ->
  ?exhaustive:bool -> ?shards:int -> ?workers:int ->
  ?voter:Tmr_core.Voter.variant -> Tmr_core.Partition.strategy -> job
(** Defaults: paper scale, seed 1, 1500 faults, sampled, 16 shards,
    1 worker, majority voter. *)

val job_name : job -> string
(** Stable human-readable id, e.g. ["tmr_p2-reduced-seed1-exhaustive"] —
    the natural per-job queue directory name. *)

val job_to_json : job -> Tmr_obs.Json.t

val faults_of : Context.t -> Runs.design_run -> job -> int array
(** The job's fault-index space: the full essential-bit list when
    exhaustive, otherwise the usual deterministic sample. *)

val fingerprint : job -> int array -> string
(** Digest of the job spec plus its resolved fault list.  Stored in the
    queue's [job.json] and in every shard manifest; a resume whose
    recomputed fingerprint differs refuses to mix results. *)

type spool_info = {
  sp_worker : int;  (** worker slot (1-based; 0 is the parent) *)
  sp_path : string;  (** the worker's [events-w<K>.jsonl] spool file *)
  sp_events : int;
      (** worker-local events relayed onto the bus — the spool's origin
          sequence range is [0 .. sp_events + sp_gaps - 1] *)
  sp_gaps : int;  (** origin sequence numbers never observed *)
}
(** Per-worker spool accounting from a forked run with events enabled. *)

type outcome = {
  o_campaign : Tmr_inject.Campaign.t;
      (** merged result, bit-identical to a single-process run *)
  o_resumed : int;  (** shards reused from manifests of a previous run *)
  o_fresh : int;  (** shards simulated by this invocation *)
  o_spools : spool_info list;
      (** one entry per forked worker when events were on; empty
          otherwise *)
}

type status =
  | Complete of outcome
  | Incomplete of { done_shards : int; pending_shards : int }
      (** the invocation stopped (shard limit) with ranges still queued;
          rerun with the same [dir] to continue *)

val run_sharded :
  ?procs:int ->
  ?shard_limit:int ->
  ?fresh:bool ->
  ?notify:(Tmr_obs.Events.event -> unit) ->
  dir:string ->
  job ->
  Context.t ->
  Runs.design_run ->
  (status, string) result
(** Run [job]'s campaign through the shard queue rooted at [dir].

    Resume is the default: ranges already completed under the same
    fingerprint are loaded from their manifests, only the missing ones
    are simulated.  A fingerprint mismatch (the directory belongs to a
    different job) is an [Error] unless [fresh] wipes the queue first.

    [procs] (default 1): with 1, the calling process claims ranges
    inline; with [p >= 2], [p] worker processes are forked {e after} the
    implementation was built — they inherit the device, bitstream and
    golden state by copy-on-write, claim ranges concurrently through the
    rename-based queue, and each runs its shards on [j_workers] domains.

    Distributed telemetry: forked children
    {!Tmr_obs.Events.detach} from the parent's bus and — when events
    were enabled at fork time — reopen a per-worker spool
    ([events-w<K>.jsonl] in [dir]) stamped with their origin
    (pid/worker/shard and the job correlation id).  A parent tailer
    thread follows the live spools and republishes every worker event
    onto the real bus, re-sequenced with origin preserved, so file and
    socket sinks see one coherent fleet stream.  Children also snapshot
    their metrics registry to [metrics-w<K>.json] at every shard
    boundary (folded into {!Tmr_obs.Expose} scrapes fleet-wide) and,
    when tracing, write [trace-w<K>.jsonl], which the parent stitches
    into its own trace after the run.  The run also publishes
    origin-less fleet-level [Campaign_started] / [Campaign_stopped]
    events around the whole sharded campaign.

    The per-worker spool accounting is returned in
    [o_spools]; {!interrupt} (wired to the host's SIGINT handler)
    terminates and reaps live children and drains their spool tails.

    [shard_limit] stops this invocation after claiming that many ranges
    (per process when forked) — deterministic interruption for tests,
    time-boxing for incremental exhaustive runs; the result is then
    [Incomplete] unless everything else was already done.

    [notify] (default {!Tmr_obs.Events.publish}) receives
    [Shard_done] after every completed range.

    A crashed worker's claim is reclaimed on the next invocation (dead
    owner pid), so a kill -9 mid-shard costs at most that shard's work. *)

val interrupt : unit -> unit
(** When a {!run_sharded} fleet is live in this process: SIGTERM every
    remaining child, reap them, and drain the spool tails onto the bus.
    No-op otherwise.  Intended to be called from the host binary's
    SIGINT handler {e before} it flushes and closes its sinks. *)

val summary_json : ?confidence:float -> job -> status -> string
(** One-line JSON: the job name plus either the merged campaign summary
    (see {!Tmr_inject.Campaign.summary_json}, its CI at [confidence]
    (default 0.95), with [exhaustive] and
    shard counts spliced in) or the incomplete shard tally. *)
