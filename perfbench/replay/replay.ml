(* In-process, traced replay of one `tmrtool inject` command, for the
   command-level benchmark in perfbench/run.py.

   The replay calls each library module's public functions in the order
   the command does (Context.create's parts, Runs.implement_design's
   parts, then the campaign) and records a span around every call.  Spans
   and counts stay in memory and are printed as one JSON document at exit,
   so tracing adds no I/O to the timed layers.  Nothing under lib/ or bin/
   is instrumented.

   Besides the command's own layers, two probes re-run parts of a layer in
   isolation; they sit under a "probe" span and are not part of the
   command's wall:
   - the fabric probe builds one worker's extract and simulator, the
     set-up every campaign worker pays inside Campaign.run;
   - the shard probe replays the campaign through the shard engine
     (Shard.plan, Campaign.run per range, Shard.merge) and, for a sampled
     command, through Service.run_sharded as well.  Its merged verdicts
     must equal the command path's, fault for fault.

   Subcommands:
     replay.exe inject [tmrtool inject flags] --dir DIR
     replay.exe setup --scale S --seed N   (times one Context.create)
     replay.exe compat N1 K1 N2 K2 ...     (Tmr_obs.Stats.compatible)
     replay.exe paper-table3                (the paper's Table 3 rows) *)

module Json = Tmr_obs.Json
module Clock = Tmr_obs.Clock
module Stats = Tmr_obs.Stats
module Events = Tmr_obs.Events
module Context = Tmr_experiments.Context
module Runs = Tmr_experiments.Runs
module Service = Tmr_experiments.Service
module Tables = Tmr_experiments.Tables
module Partition = Tmr_core.Partition
module Voter = Tmr_core.Voter
module Designs = Tmr_filter.Designs
module Fir = Tmr_filter.Fir
module Netlist = Tmr_netlist.Netlist
module Check = Tmr_netlist.Check
module Techmap = Tmr_techmap.Techmap
module Arch = Tmr_arch.Arch
module Device = Tmr_arch.Device
module Bitdb = Tmr_arch.Bitdb
module Bitstream = Tmr_arch.Bitstream
module Impl = Tmr_pnr.Impl
module Pack = Tmr_pnr.Pack
module Place = Tmr_pnr.Place
module Route = Tmr_pnr.Route
module Bitgen = Tmr_pnr.Bitgen
module Timing = Tmr_pnr.Timing
module Extract = Tmr_fabric.Extract
module Fsim = Tmr_fabric.Fsim
module Faultlist = Tmr_inject.Faultlist
module Campaign = Tmr_inject.Campaign
module Shard = Tmr_inject.Shard
module Forensics = Tmr_inject.Forensics

(* --- spans and counts, kept in memory ------------------------------- *)

type span = { id : int; parent : int; name : string; t0 : int; t1 : int }

let spans = ref []
let next_id = ref 0
let stack = ref []

let span name f =
  let id = !next_id in
  incr next_id;
  let parent = match !stack with p :: _ -> p | [] -> -1 in
  stack := id :: !stack;
  let t0 = Clock.now_ns () in
  let close () =
    stack := List.tl !stack;
    spans := { id; parent; name; t0; t1 = Clock.now_ns () } :: !spans
  in
  match f () with
  | r ->
      close ();
      r
  | exception e ->
      close ();
      raise e

let counts = ref []
let count name v = counts := (name, Json.Num v) :: !counts
let counti name v = count name (float_of_int v)

(* --- command options (a subset of tmrtool inject's) ----------------- *)

type cmd = {
  scale : Context.scale;
  seed : int;
  faults : int;
  design : Partition.strategy;
  voter : Voter.variant;
  exhaustive : bool;
  shards : int;
  procs : int;  (** --procs of a sharded command; shard-probe procs otherwise *)
  jobs : int;  (** TMR_JOBS: campaign worker domains per process *)
  forensics : string option;
  events : string option;
  dir : string;  (** scratch directory for queues and verdict files *)
  probes : bool;  (** run the fabric and shard probes *)
}

let usage () =
  prerr_endline
    "usage: replay.exe inject --scale paper|reduced --design D [--voter V] \
     [--seed N] [--faults N] [--exhaustive] [--shards K] [--procs P] \
     [--jobs J] [--forensics F] [--events E] [--no-probes] --dir DIR\n\
    \       replay.exe setup --scale paper|reduced [--seed N]\n\
    \       replay.exe compat N1 K1 N2 K2 [...]\n\
    \       replay.exe paper-table3";
  exit 2

let parse_cmd args =
  let scale = ref Context.Paper and seed = ref 1 and faults = ref 1500 in
  let design = ref Partition.Medium_partition and voter = ref Voter.Majority in
  let exhaustive = ref false and shards = ref 16 and procs = ref 1 in
  let jobs = ref 1 and forensics = ref None and events = ref None in
  let dir = ref "" and probes = ref true in
  let int_of s = match int_of_string_opt s with Some n -> n | None -> usage () in
  let rec go = function
    | [] -> ()
    | "--scale" :: "paper" :: tl -> scale := Context.Paper; go tl
    | "--scale" :: "reduced" :: tl -> scale := Context.Reduced; go tl
    | "--seed" :: v :: tl -> seed := int_of v; go tl
    | "--faults" :: v :: tl -> faults := int_of v; go tl
    | "--design" :: v :: tl ->
        (match
           List.find_opt (fun d -> Partition.name d = v) Partition.all_paper_designs
         with
        | Some d -> design := d
        | None -> usage ());
        go tl
    | "--voter" :: v :: tl ->
        (match Voter.of_name v with Some x -> voter := x | None -> usage ());
        go tl
    | "--exhaustive" :: tl -> exhaustive := true; go tl
    | "--shards" :: v :: tl -> shards := int_of v; go tl
    | "--procs" :: v :: tl -> procs := int_of v; go tl
    | "--jobs" :: v :: tl -> jobs := int_of v; go tl
    | "--forensics" :: v :: tl -> forensics := Some v; go tl
    | "--events" :: v :: tl -> events := Some v; go tl
    | "--dir" :: v :: tl -> dir := v; go tl
    | "--no-probes" :: tl -> probes := false; go tl
    | _ -> usage ()
  in
  go args;
  if !dir = "" then usage ();
  {
    scale = !scale; seed = !seed; faults = !faults; design = !design;
    voter = !voter; exhaustive = !exhaustive; shards = !shards;
    procs = !procs; jobs = !jobs; forensics = !forensics; events = !events;
    dir = !dir; probes = !probes;
  }

(* --- the command's layers ------------------------------------------- *)

let params_of = function
  | Context.Paper -> (Arch.xc2s200e, Fir.paper_params)
  | Context.Reduced -> (Arch.small, Fir.tiny_params)

(* Context.create, call by call (48 stimulus cycles, stimulus seed
   [seed + 1000]).  Should Context.create drift from this, the verdict
   cross-check against the command catches it. *)
let setup c =
  let arch_params, fir_params = params_of c.scale in
  let cycles = 48 in
  let dev = span "arch.device_build" (fun () -> Device.build arch_params) in
  let db = span "arch.bitdb_build" (fun () -> Bitdb.build dev) in
  let golden_nl, samples =
    span "setup.golden_stimulus" (fun () ->
        ( Fir.build fir_params,
          Fir.stimulus ~cycles ~seed:(c.seed + 1000) fir_params ))
  in
  {
    Context.scale = c.scale;
    dev;
    db;
    params = fir_params;
    golden_nl;
    stimulus = { Campaign.cycles; inputs = [ ("x", samples) ] };
    seed = c.seed;
    faults_per_design = c.faults;
    place_moves = None;
  }

let check_ok what = function
  | Ok () -> ()
  | Error es -> failwith (what ^ ": " ^ String.concat "; " es)

(* Runs.implement_design = Designs.build then Impl.implement, whose
   phases are replayed one by one, then Faultlist.of_impl. *)
let implement c (ctx : Context.t) =
  let nl =
    span "core.design_build" (fun () ->
        Designs.build ~params:ctx.Context.params ~voter:c.voter c.design)
  in
  span "netlist.check" (fun () -> check_ok "design check" (Check.run nl));
  let { Techmap.mapped; _ } = span "techmap.run" (fun () -> Techmap.run nl) in
  span "netlist.check" (fun () -> check_ok "mapped check" (Check.run mapped));
  let dev = ctx.Context.dev and db = ctx.Context.db in
  let pack = span "pnr.pack" (fun () -> Pack.run mapped) in
  let place =
    span "pnr.place" (fun () -> Place.run ~seed:ctx.Context.seed dev pack mapped)
  in
  let route =
    span "pnr.route" (fun () ->
        match Route.run dev pack place with
        | Ok r -> r
        | Error msg -> failwith ("route: " ^ msg))
  in
  let bitgen =
    span "pnr.bitgen" (fun () -> Bitgen.run dev db pack place route mapped)
  in
  let timing =
    span "pnr.timing" (fun () -> Timing.analyze dev pack place route mapped)
  in
  let impl =
    {
      Impl.source = nl; mapped; dev; db; pack; place; route; bitgen; timing;
      seed = ctx.Context.seed;
    }
  in
  let faultlist = span "inject.faultlist" (fun () -> Faultlist.of_impl impl) in
  counti "techmap.luts"
    (Netlist.fold_cells mapped ~init:0 ~f:(fun n id ->
         match Netlist.kind mapped id with Netlist.Lut _ -> n + 1 | _ -> n));
  counti "pnr.route_iters" route.Route.iterations;
  counti "pnr.route_pips"
    (Array.fold_left (fun n p -> n + Array.length p) 0 route.Route.net_pips);
  count "pnr.place_cost" place.Place.cost;
  counti "pnr.dut_bits" (Array.length bitgen.Bitgen.dut_bits);
  {
    Runs.strategy = c.design;
    voter = c.voter;
    nl;
    impl;
    faultlist;
    campaign = None;
  }

(* --- probes --------------------------------------------------------- *)

(* One campaign worker's set-up: extract the golden image and build a
   simulator watching every output port. *)
let fabric_probe (impl : Impl.t) =
  span "probe" @@ fun () ->
  let ex =
    span "fabric.extract" (fun () ->
        Extract.create impl.Impl.dev impl.Impl.db
          (Bitstream.copy impl.Impl.bitgen.Bitgen.bitstream))
  in
  let watch_outputs =
    Array.concat
      (List.map
         (fun (port, _) -> Campaign.dut_output_wires impl port)
         (Netlist.output_ports impl.Impl.mapped))
  in
  let sim =
    span "fabric.sim_build" (fun () ->
        Fsim.build ~ws:(Fsim.make_workspace impl.Impl.dev) ex ~watch_outputs)
  in
  counti "fabric.sim_nodes" (Fsim.num_nodes sim)

let write_verdicts path (c : Campaign.t) =
  let oc = open_out path in
  Array.iteri
    (fun i r ->
      output_string oc (Shard.result_to_line ~index:i r);
      output_char oc '\n')
    c.Campaign.results;
  close_out oc

let job_of c =
  Service.job ~scale:c.scale ~seed:c.seed ~faults:c.faults
    ~exhaustive:c.exhaustive ~shards:c.shards ~workers:c.jobs ~voter:c.voter
    c.design

let sharded ctx run ~dir ~procs job =
  match Service.run_sharded ~procs ~dir job ctx run with
  | Ok (Service.Complete o) -> o.Service.o_campaign
  | Ok (Service.Incomplete _) -> failwith "sharded campaign incomplete"
  | Error e -> failwith e

(* The shard engine inline: plan, one Campaign.run per range, merge. *)
let shard_probe c (ctx : Context.t) (run : Runs.design_run) faults =
  let name = Partition.name c.design in
  let total = Array.length faults in
  let plan = span "inject.shard_plan" (fun () -> Shard.plan ~total ~shards:c.shards) in
  let t0 = Clock.now_ns () in
  let parts =
    span "inject.shard_campaign" (fun () ->
        Array.to_list
          (Array.map
             (fun (r : Shard.range) ->
               let sub = Array.sub faults r.Shard.sh_lo (r.Shard.sh_hi - r.Shard.sh_lo) in
               let pc =
                 Campaign.run ~workers:c.jobs ~name ~impl:run.Runs.impl
                   ~golden:ctx.Context.golden_nl ~stimulus:ctx.Context.stimulus
                   ~faults:sub ()
               in
               ( Shard.manifest_of_campaign r ~fingerprint:"replay" ~owner:0 pc,
                 Array.mapi (fun i res -> (r.Shard.sh_lo + i, res)) pc.Campaign.results ))
             plan))
  in
  count "inject.shard_setup_s"
    (float_of_int
       (List.fold_left (fun a (m, _) -> a + m.Shard.sm_setup_ns) 0 parts)
    /. 1e9);
  let merged =
    span "inject.shard_merge" (fun () ->
        Shard.merge ~design:name ~total ~procs:1 ~wall_ns:(Clock.now_ns () - t0) parts)
  in
  write_verdicts (Filename.concat c.dir "verdicts-shard-inline.jsonl") merged

(* --- one inject command --------------------------------------------- *)

(* The least busy worker: a domain of Campaign.run, or a forked process of
   a sharded run (whose merged Campaign.t keeps only the fleet's sum, so
   per-process busy time is read back from the shard manifests). *)
let busy_min_ns (camp : Campaign.t) ~sharded_dir ~procs =
  match sharded_dir with
  | None -> Array.fold_left min max_int camp.Campaign.busy_ns
  | Some dir -> (
      match Tmr_inject.Workqueue.load_done (Tmr_inject.Workqueue.create ~dir) with
      | Error e -> failwith e
      | Ok ms ->
          let per_owner = Hashtbl.create 4 in
          List.iter
            (fun m ->
              let b = Option.value ~default:0 (Hashtbl.find_opt per_owner m.Shard.sm_owner) in
              Hashtbl.replace per_owner m.Shard.sm_owner (b + m.Shard.sm_busy_ns))
            ms;
          if Hashtbl.length per_owner < procs then 0
          else Hashtbl.fold (fun _ b acc -> min b acc) per_owner max_int)

let campaign_counts (camp : Campaign.t) ~busy_min =
  let s = camp.Campaign.stats in
  counti "inject.faults" camp.Campaign.injected;
  counti "inject.skipped" s.Campaign.skipped;
  counti "inject.patched" s.Campaign.patched;
  counti "inject.rerouted" s.Campaign.rerouted;
  counti "inject.rebuilt" s.Campaign.rebuilt;
  counti "inject.diffed" s.Campaign.diffed;
  counti "inject.batched" s.Campaign.batched;
  counti "inject.converged" s.Campaign.converged;
  let sum a = float_of_int (Array.fold_left ( + ) 0 a) /. 1e9 in
  count "inject.worker_busy_s" (sum camp.Campaign.busy_ns);
  count "inject.worker_setup_s" (sum camp.Campaign.setup_ns);
  count "inject.worker_wall_s"
    (float_of_int (camp.Campaign.workers * camp.Campaign.wall_ns) /. 1e9);
  count "inject.worker_busy_min_s" (float_of_int busy_min /. 1e9)

(* The command's order is: sinks, Context.create, implement, campaign,
   sinks closed.  Opening the sinks is moved to just before the campaign
   (nothing before it publishes), so that the fork probe can run first:
   OCaml 5 forbids fork once a campaign has started worker domains, and
   forked probe workers must not inherit the command's sinks. *)
let replay_inject c =
  let sharded_cmd = c.exhaustive in
  span "command" @@ fun () ->
  let ctx = setup c in
  let run = implement c ctx in
  let shard_dir = Filename.concat c.dir "shards" in
  if c.probes then
    span "probe" (fun () ->
        fabric_probe run.Runs.impl;
        if not sharded_cmd then begin
          (* the command's sample through the fork engine, one domain per
             process *)
          let pc =
            span "experiments.run_sharded" (fun () ->
                sharded ctx run ~dir:shard_dir ~procs:c.procs
                  (job_of { c with jobs = 1 }))
          in
          write_verdicts (Filename.concat c.dir "verdicts-shard-fork.jsonl") pc
        end);
  span "obs.sinks" (fun () ->
      Option.iter Events.to_file c.events;
      Option.iter Forensics.to_file c.forensics);
  let camp, faults =
    if sharded_cmd then begin
      let job = job_of c in
      let faults = Service.faults_of ctx run job in
      let camp =
        span "experiments.run_sharded" (fun () ->
            sharded ctx run ~dir:shard_dir ~procs:c.procs job)
      in
      (camp, faults)
    end
    else begin
      let faults =
        span "inject.faultlist" (fun () ->
            Faultlist.sample run.Runs.faultlist ~seed:ctx.Context.seed
              ~count:c.faults)
      in
      let camp =
        span "inject.campaign" (fun () ->
            Campaign.run ~workers:c.jobs ~name:(Partition.name c.design)
              ~impl:run.Runs.impl ~golden:ctx.Context.golden_nl
              ~stimulus:ctx.Context.stimulus ~faults ())
      in
      (camp, faults)
    end
  in
  span "obs.sinks" (fun () ->
      Forensics.close ();
      Events.close ());
  campaign_counts camp
    ~busy_min:
      (busy_min_ns camp ~procs:c.procs
         ~sharded_dir:(if sharded_cmd then Some shard_dir else None));
  write_verdicts (Filename.concat c.dir "verdicts.jsonl") camp;
  if c.probes then span "probe" (fun () -> shard_probe c ctx run faults);
  Json.parse_exn (Campaign.summary_json camp)

let span_json s =
  Json.Obj
    [
      ("id", Json.Num (float_of_int s.id));
      ("parent", Json.Num (float_of_int s.parent));
      ("name", Json.Str s.name);
      ("t0_ns", Json.Num (float_of_int s.t0));
      ("t1_ns", Json.Num (float_of_int s.t1));
    ]

let inject args =
  let c = parse_cmd args in
  let summary = replay_inject c in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("summary", summary);
            ("counts", Json.Obj (List.rev !counts));
            ("spans", Json.Arr (List.rev_map span_json !spans));
          ]))

(* --- small helpers for the benchmark's checker ---------------------- *)

let setup_once args =
  let c = parse_cmd (args @ [ "--dir"; "." ]) in
  let t0 = Clock.now_ns () in
  let ctx = Context.create ~scale:c.scale ~seed:c.seed () in
  let dt = Clock.now_ns () - t0 in
  ignore (Sys.opaque_identity ctx);
  Printf.printf "%.9f\n" (float_of_int dt /. 1e9)

(* Store's regression verdict: Wilson overlap and two-proportion z at
   95 % confidence. *)
let compat args =
  let rec go = function
    | n1 :: k1 :: n2 :: k2 :: tl ->
        let i = int_of_string in
        print_endline
          (string_of_bool
             (Stats.compatible ~n1:(i n1) ~k1:(i k1) ~n2:(i n2) ~k2:(i k2) ()));
        go tl
    | [] -> ()
    | _ -> usage ()
  in
  go args

let paper_table3 () =
  print_endline
    (Json.to_string
       (Json.Obj
          (List.map
             (fun (d, (n, k, pct)) ->
               ( d,
                 Json.Obj
                   [
                     ("injected", Json.Num (float_of_int n));
                     ("wrong", Json.Num (float_of_int k));
                     ("percent", Json.Num pct);
                   ] ))
             Tables.paper_table3)))

let () =
  match Array.to_list Sys.argv with
  | _ :: "inject" :: args -> inject args
  | _ :: "setup" :: args -> setup_once args
  | _ :: "compat" :: args -> compat args
  | [ _; "paper-table3" ] -> paper_table3 ()
  | _ -> usage ()
