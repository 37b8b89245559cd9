module Campaign = Tmr_inject.Campaign
module Shard = Tmr_inject.Shard
module Workqueue = Tmr_inject.Workqueue
module Faultlist = Tmr_inject.Faultlist
module Partition = Tmr_core.Partition
module Json = Tmr_obs.Json
module Events = Tmr_obs.Events
module Clock = Tmr_obs.Clock
module Metrics = Tmr_obs.Metrics
module Trace = Tmr_obs.Trace
module Expose = Tmr_obs.Expose

(* Fleet instruments, exposed by /metrics alongside the campaign's
   own. *)
let m_queue_depth = Metrics.gauge "service.queue_depth"
let m_shards_done = Metrics.gauge "service.shards_done"
let m_orphan_reclaims = Metrics.counter "service.orphan_reclaims"
let m_claim_ns = Metrics.histogram "service.claim_ns"

type job = {
  j_design : Partition.strategy;
  j_scale : Context.scale;
  j_seed : int;
  j_faults : int;
  j_exhaustive : bool;
  j_shards : int;
  j_workers : int;
  j_voter : Tmr_core.Voter.variant;
}

let job ?(scale = Context.Paper) ?(seed = 1) ?(faults = 1500)
    ?(exhaustive = false) ?(shards = 16) ?(workers = 1)
    ?(voter = Tmr_core.Voter.Majority) design =
  {
    j_design = design;
    j_scale = scale;
    j_seed = seed;
    j_faults = faults;
    j_exhaustive = exhaustive;
    j_shards = shards;
    j_workers = workers;
    j_voter = voter;
  }

let scale_name = function
  | Context.Paper -> "paper"
  | Context.Reduced -> "reduced"

let job_name j =
  Printf.sprintf "%s-%s-seed%d-%s%s"
    (Partition.name j.j_design)
    (scale_name j.j_scale) j.j_seed
    (if j.j_exhaustive then "exhaustive" else string_of_int j.j_faults)
    (* majority stays unsuffixed so existing queue directories resume *)
    (match j.j_voter with
    | Tmr_core.Voter.Majority -> ""
    | v -> "-" ^ Tmr_core.Voter.name v)

let job_to_json j =
  let int n = Json.Num (float_of_int n) in
  Json.Obj
    [
      ("design", Json.Str (Partition.name j.j_design));
      ("scale", Json.Str (scale_name j.j_scale));
      ("seed", int j.j_seed);
      ("faults", int j.j_faults);
      ("exhaustive", Json.Bool j.j_exhaustive);
      ("shards", int j.j_shards);
      ("workers", int j.j_workers);
      ("voter", Json.Str (Tmr_core.Voter.name j.j_voter));
    ]

let faults_of _ctx (run : Runs.design_run) j =
  if j.j_exhaustive then Array.copy run.Runs.faultlist.Faultlist.bits
  else Faultlist.sample run.Runs.faultlist ~seed:j.j_seed ~count:j.j_faults

let fingerprint j faults =
  let b = Buffer.create (16 + (Array.length faults * 7)) in
  Buffer.add_string b (Json.to_string (job_to_json j));
  Array.iter
    (fun f ->
      Buffer.add_char b ',';
      Buffer.add_string b (string_of_int f))
    faults;
  Digest.to_hex (Digest.string (Buffer.contents b))

type spool_info = {
  sp_worker : int;
  sp_path : string;
  sp_events : int;  (* worker-local events relayed onto the bus *)
  sp_gaps : int;  (* worker-local sequence numbers never seen *)
}

type outcome = {
  o_campaign : Campaign.t;
  o_resumed : int;
  o_fresh : int;
  o_spools : spool_info list;
}

type status =
  | Complete of outcome
  | Incomplete of { done_shards : int; pending_shards : int }

(* --- interrupting a fleet ------------------------------------------- *)

(* While run_sharded has live children, this hook terminates and reaps
   them and drains their spools; otherwise it is a no-op.  The host
   binary's SIGINT handler calls {!interrupt} so Ctrl-C on a --procs K
   run cannot leave orphan workers or unread spool tails behind. *)
let interrupt_hook : (unit -> unit) Atomic.t = Atomic.make (fun () -> ())
let interrupt () = (Atomic.get interrupt_hook) ()

(* --- spool tailing --------------------------------------------------- *)

(* One tail per worker spool.  The channel is opened lazily (the file
   only exists once the child's first event lands) and read with
   [input_line]: spool writes are line-atomic (one write(2) per line),
   so End_of_file is the only mid-line condition and simply means
   "caught up — retry next tick". *)
type tail = {
  tl_worker : int;
  tl_path : string;
  mutable tl_ic : in_channel option;
  mutable tl_next : int;  (* next expected worker-local seq *)
  mutable tl_gaps : int;
  mutable tl_events : int;
}

let make_tail worker path =
  { tl_worker = worker; tl_path = path; tl_ic = None; tl_next = 0;
    tl_gaps = 0; tl_events = 0 }

let drain_tail t =
  (match t.tl_ic with
  | None ->
      if Sys.file_exists t.tl_path then (
        try t.tl_ic <- Some (open_in t.tl_path) with Sys_error _ -> ())
  | Some _ -> ());
  match t.tl_ic with
  | None -> ()
  | Some ic ->
      let continue = ref true in
      while !continue do
        match input_line ic with
        | exception End_of_file -> continue := false
        | line -> (
            match Events.respool_line line with
            | Some (oseq, payload) ->
                (* gap accounting per origin: worker seqs are dense, so
                   a jump is an exact record of lines lost at the source *)
                if oseq > t.tl_next then t.tl_gaps <- t.tl_gaps + (oseq - t.tl_next);
                if oseq >= t.tl_next then t.tl_next <- oseq + 1;
                t.tl_events <- t.tl_events + 1;
                Events.publish_payload payload
            | None -> ())
      done

let close_tail t =
  (match t.tl_ic with
  | Some ic -> ( try close_in ic with Sys_error _ -> ())
  | None -> ());
  t.tl_ic <- None

(* ------------------------------------------------------------------ *)
(* The sharded driver. *)

let wipe_queue wq =
  let root = Workqueue.dir wq in
  List.iter
    (fun sub ->
      let d = Filename.concat root sub in
      if Sys.file_exists d then
        Array.iter
          (fun f -> try Sys.remove (Filename.concat d f) with Sys_error _ -> ())
          (Sys.readdir d))
    [ "todo"; "claims"; "done"; "results" ];
  try Sys.remove (Filename.concat root "job.json") with Sys_error _ -> ()

(* job.json carries the spec for humans and the fingerprint for the
   resume guard *)
let job_file_json j fp =
  match job_to_json j with
  | Json.Obj fields -> Json.Obj (fields @ [ ("fingerprint", Json.Str fp) ])
  | other -> other

let run_sharded ?(procs = 1) ?shard_limit ?(fresh = false)
    ?(notify = Events.publish) ~dir j (ctx : Context.t)
    (run : Runs.design_run) =
  let ( let* ) = Result.bind in
  let name = Partition.name j.j_design in
  let faults = faults_of ctx run j in
  let total = Array.length faults in
  let fp = fingerprint j faults in
  let wq = Workqueue.create ~dir in
  let* () =
    match Workqueue.read_job wq with
    | None ->
        Workqueue.write_job wq (job_file_json j fp);
        Ok ()
    | Some prior -> (
        let stored_fp =
          match prior with
          | Ok json -> Option.bind (Json.member "fingerprint" json) Json.str
          | Error _ -> None
        in
        match stored_fp with
        | Some stored when stored = fp -> Ok ()
        | _ when fresh ->
            wipe_queue wq;
            Workqueue.write_job wq (job_file_json j fp);
            Ok ()
        | _ ->
            Error
              (Printf.sprintf
                 "shard dir %s holds a different job (fingerprint mismatch); \
                  pass --fresh to discard it"
                 dir))
  in
  Metrics.incr ~by:(Workqueue.reclaim_orphans wq) m_orphan_reclaims;
  let plan = Shard.plan ~total ~shards:j.j_shards in
  let* done0 = Workqueue.load_done wq in
  let* () =
    (* belt and braces on top of the job.json guard: never merge a shard
       simulated under a different spec *)
    match
      List.find_opt (fun m -> m.Shard.sm_fingerprint <> fp) done0
    with
    | Some m ->
        Error
          (Printf.sprintf "done shard %d has a foreign fingerprint"
             m.Shard.sm_id)
    | None -> Ok ()
  in
  let done0_ids = List.map (fun m -> m.Shard.sm_id) done0 in
  let missing =
    Shard.ranges_missing ~total
      ~done_ids:(fun id -> List.mem id done0_ids)
      ~shards:j.j_shards
  in
  ignore (Workqueue.seed wq missing);
  let t0 = Clock.now_ns () in
  let limit = Option.value shard_limit ~default:max_int in
  let jname = job_name j in
  (* One claimed range at a time: simulate it as an ordinary (domain
     pooled) campaign over the sub-list, persist, claim the next.
     [metrics_file] (workers only) re-snapshots the registry at every
     shard boundary so the parent can fold live fleet totals. *)
  let claim_loop ?metrics_file ~quiet () =
    let pid = Unix.getpid () in
    let claimed = ref 0 in
    let continue = ref true in
    while !continue && !claimed < limit do
      let t_claim = Clock.now_ns () in
      let claimed_range = Workqueue.claim wq ~pid in
      Metrics.observe m_claim_ns (Clock.now_ns () - t_claim);
      match claimed_range with
      | None -> continue := false
      | Some r ->
          let sub = Array.sub faults r.Shard.sh_lo (r.Shard.sh_hi - r.Shard.sh_lo) in
          Events.set_shard r.Shard.sh_id;
          let c =
            Campaign.run ~workers:j.j_workers ~name ~impl:run.Runs.impl
              ~golden:ctx.Context.golden_nl ~stimulus:ctx.Context.stimulus
              ~faults:sub ()
          in
          Events.set_shard (-1);
          let lines =
            Array.to_list
              (Array.mapi
                 (fun i res -> Shard.result_to_line ~index:(r.Shard.sh_lo + i) res)
                 c.Campaign.results)
          in
          let m = Shard.manifest_of_campaign r ~fingerprint:fp ~owner:pid c in
          Workqueue.complete wq ~pid r ~lines ~manifest:m;
          incr claimed;
          Option.iter Metrics.write_file metrics_file;
          if not quiet then
            notify
              (Events.Shard_done
                 {
                   design = name;
                   shard = r.Shard.sh_id;
                   lo = r.Shard.sh_lo;
                   hi = r.Shard.sh_hi;
                   wrong = c.Campaign.wrong;
                   pending = Workqueue.pending wq;
                 })
    done
  in
  (* Fleet-level lifecycle events are origin-less and published by this
     process only, so a watcher can always tell the authoritative
     campaign record from the per-shard campaigns relayed out of the
     workers (those carry an origin). *)
  notify (Events.Campaign_started { design = name; faults = total; workers = procs });
  let spools = ref [] in
  (if procs <= 1 then begin
     (* Even single-process sharded runs stamp their shard-local events
        with an origin (worker 0 = the parent itself), so a watcher
        applies one rule to every campaign event with an origin. *)
     Events.set_context ~worker:0 ~job:jname;
     Fun.protect
       ~finally:(fun () -> Events.clear_context ())
       (fun () -> claim_loop ~quiet:false ())
   end
   else begin
     let events_on = Events.enabled () in
     let tracing = Trace.enabled () in
     let worker_ids = List.init procs (fun k -> k + 1) in
     (* stale telemetry from a previous (interrupted) run must neither
        be tailed nor folded into this run's scrapes *)
     List.iter
       (fun w ->
         List.iter
           (fun p -> try Sys.remove p with Sys_error _ -> ())
           [
             Workqueue.spool_path wq ~worker:w;
             Workqueue.metrics_path wq ~worker:w;
             Workqueue.trace_path wq ~worker:w;
           ])
       worker_ids;
     (* Fork the workers *after* the implementation and fault list exist:
        children inherit the built device, bitstream and golden netlist
        by copy-on-write instead of re-running the CAD flow per process.
        Each child talks to the world only through the queue directory.
        The bus threads are quiesced across the fork window: a child
        forked while the writer thread is mid-runtime-lock inherits a
        poisoned threads runtime and wedges at its first forced yield. *)
     Events.pause ();
     let children =
       List.map
         (fun worker ->
           match Unix.fork () with
           | 0 ->
               (* the bus threads did not survive the fork, and its
                  sinks' descriptors are shared with the parent: disown
                  bus and trace sink before anything else *)
               Events.detach ();
               Trace.detach ();
               (* inherited handlers belong to the parent (they flush
                  the parent's sinks); default dispositions are correct
                  here — spool writes are line-atomic and flushed, so
                  dying on SIGTERM/SIGINT leaves no torn line and the
                  claim is reclaimed *)
               Sys.set_signal Sys.sigterm Sys.Signal_default;
               Sys.set_signal Sys.sigint Sys.Signal_default;
               if events_on then
                 Events.spool
                   ~path:(Workqueue.spool_path wq ~worker)
                   ~worker ~job:jname
               else Events.set_context ~worker ~job:jname;
               if tracing then
                 Trace.to_file (Workqueue.trace_path wq ~worker);
               let metrics_file = Workqueue.metrics_path wq ~worker in
               let code =
                 try
                   claim_loop ~metrics_file ~quiet:true ();
                   0
                 with e ->
                   Printf.eprintf "shard worker %d: %s\n%!" (Unix.getpid ())
                     (Printexc.to_string e);
                   1
               in
               Metrics.write_file metrics_file;
               Events.close ();
               Trace.close ();
               (* _exit, not exit: at_exit in the child would flush
                  output buffers it shares with the parent *)
               Unix._exit code
           | pid -> pid)
         worker_ids
     in
     Events.resume ();
     (* fleet-wide scrapes: fold the workers' snapshot files into every
        /metrics render for as long as they exist *)
     let fleet_snapshots () =
       List.filter_map
         (fun w ->
           match Metrics.read_file (Workqueue.metrics_path wq ~worker:w) with
           | Ok s -> Some s
           | Error _ -> None)
         worker_ids
     in
     Expose.set_extra_snapshots (Some fleet_snapshots);
     (* The parent watches: a tailer thread follows the live spools and
        republishes every worker event onto the bus (re-sequenced, origin
        preserved), while the main thread reaps children and relays a
        Shard_done per manifest that appears. *)
     let tails =
       if events_on then
         List.map (fun w -> make_tail w (Workqueue.spool_path wq ~worker:w))
           worker_ids
       else []
     in
     let tail_stop = Atomic.make false in
     let tailer =
       if tails = [] then None
       else
         Some
           (Thread.create
              (fun () ->
                while not (Atomic.get tail_stop) do
                  List.iter drain_tail tails;
                  Thread.delay 0.03
                done;
                (* final pass after the stop flag: children have exited
                   and flushed, so this empties every spool *)
                List.iter drain_tail tails)
              ())
     in
     let stop_tailer () =
       Atomic.set tail_stop true;
       Option.iter Thread.join tailer;
       List.iter close_tail tails
     in
     let seen = Hashtbl.create 16 in
     List.iter (fun id -> Hashtbl.replace seen id ()) done0_ids;
     let relay () =
       match Workqueue.load_done wq with
       | Error _ -> ()
       | Ok ms ->
           Metrics.set m_shards_done (float_of_int (List.length ms));
           Metrics.set m_queue_depth (float_of_int (Workqueue.pending wq));
           List.iter
             (fun (m : Shard.manifest) ->
               if not (Hashtbl.mem seen m.Shard.sm_id) then begin
                 Hashtbl.replace seen m.Shard.sm_id ();
                 notify
                   (Events.Shard_done
                      {
                        design = name;
                        shard = m.Shard.sm_id;
                        lo = m.Shard.sm_lo;
                        hi = m.Shard.sm_hi;
                        wrong = m.Shard.sm_wrong;
                        pending = Workqueue.pending wq;
                      })
               end)
             ms
     in
     let remaining = ref children in
     (* Ctrl-C: terminate the fleet, reap it, then drain what the dying
        workers managed to spool — the host's SIGINT handler runs this
        before flushing its own sinks *)
     Atomic.set interrupt_hook (fun () ->
         List.iter
           (fun pid -> try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ())
           !remaining;
         List.iter
           (fun pid ->
             try ignore (Unix.waitpid [] pid)
             with Unix.Unix_error _ -> ())
           !remaining;
         stop_tailer ());
     Fun.protect
       ~finally:(fun () -> Atomic.set interrupt_hook (fun () -> ()))
       (fun () ->
         while !remaining <> [] do
           remaining :=
             List.filter
               (fun pid ->
                 match Unix.waitpid [ Unix.WNOHANG ] pid with
                 | 0, _ -> true
                 | _ -> false
                 | exception Unix.Unix_error (Unix.ECHILD, _, _) -> false)
               !remaining;
           relay ();
           if !remaining <> [] then Unix.sleepf 0.02
         done;
         stop_tailer ();
         relay ());
     spools :=
       List.map
         (fun t ->
           {
             sp_worker = t.tl_worker;
             sp_path = t.tl_path;
             sp_events = t.tl_events;
             sp_gaps = t.tl_gaps;
           })
         tails;
     (* stitch the workers' trace files into the parent's sink so one
        [tmrtool profile] renders the whole fleet; pid fields survive
        verbatim, so lanes stay per-process *)
     if tracing then
       List.iter
         (fun w ->
           let p = Workqueue.trace_path wq ~worker:w in
           match open_in p with
           | exception Sys_error _ -> ()
           | ic ->
               (try
                  while true do
                    let line = input_line ic in
                    let n = String.length line in
                    (* a worker killed mid-buffer-flush can leave one
                       torn trailing line; relay only well-formed ones *)
                    if n > 1 && line.[0] = '{' && line.[n - 1] = '}' then
                      Trace.emit_raw line
                  done
                with End_of_file -> ());
               close_in_noerr ic)
         worker_ids
   end);
  let wall_ns = Clock.now_ns () - t0 in
  let* dones = Workqueue.load_done wq in
  let* () =
    match List.find_opt (fun m -> m.Shard.sm_fingerprint <> fp) dones with
    | Some m ->
        Error
          (Printf.sprintf "done shard %d has a foreign fingerprint"
             m.Shard.sm_id)
    | None -> Ok ()
  in
  if List.length dones < Array.length plan then
    Ok
      (Incomplete
         {
           done_shards = List.length dones;
           pending_shards = Workqueue.pending wq;
         })
  else
    let* shards =
      List.fold_left
        (fun acc m ->
          let* acc = acc in
          let* rs = Workqueue.read_results wq m in
          Ok ((m, rs) :: acc))
        (Ok []) dones
    in
    let merged = Shard.merge ~design:name ~total ~procs ~wall_ns shards in
    (* origin-less, hence authoritative for watchers: the merged fleet
       totals, not any single shard's *)
    notify
      (Events.Campaign_stopped
         {
           design = name;
           requested = total;
           injected = merged.Campaign.injected;
           wrong = merged.Campaign.wrong;
           wall_ns;
         });
    Ok
      (Complete
         {
           o_campaign = merged;
           o_resumed = List.length done0;
           o_fresh = Array.length plan - List.length done0;
           o_spools = !spools;
         })

let summary_json ?confidence j status =
  let name = job_name j in
  match status with
  | Incomplete { done_shards; pending_shards } ->
      Printf.sprintf
        "{\"job\":\"%s\",\"status\":\"incomplete\",\"done_shards\":%d,\"pending_shards\":%d}"
        (Tmr_obs.Jsonl.escape name) done_shards pending_shards
  | Complete o ->
      let base = Campaign.summary_json ?confidence o.o_campaign in
      (* splice the job fields into the campaign's summary object *)
      let body = String.sub base 0 (String.length base - 1) in
      Printf.sprintf
        "%s,\"job\":\"%s\",\"status\":\"complete\",\"exhaustive\":%b,\"shards_total\":%d,\"shards_resumed\":%d,\"shards_fresh\":%d}"
        body
        (Tmr_obs.Jsonl.escape name)
        j.j_exhaustive (o.o_resumed + o.o_fresh) o.o_resumed o.o_fresh
