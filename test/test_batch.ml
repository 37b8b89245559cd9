(* Bit-parallel batched fault simulation: batched campaigns (with and
   without forensics) and scalar differential campaigns are
   bit-identical to the full-rebuild oracle on all five paper designs,
   across worker counts; forensic campaigns get the same record for
   every fault from either engine; and at engine level every patch and
   reroute lane reproduces [Fsim.diff_run]'s verdict triple and
   forensic provenance inside a reader-closed union cone. *)

module Logic = Tmr_logic.Logic
module Srand = Tmr_logic.Srand
module Netlist = Tmr_netlist.Netlist
module Word = Tmr_netlist.Word
module Arch = Tmr_arch.Arch
module Device = Tmr_arch.Device
module Bitdb = Tmr_arch.Bitdb
module Bitstream = Tmr_arch.Bitstream
module Impl = Tmr_pnr.Impl
module Extract = Tmr_fabric.Extract
module Fsim = Tmr_fabric.Fsim
module Fsim_batch = Tmr_fabric.Fsim_batch
module Partition = Tmr_core.Partition
module Voter = Tmr_core.Voter
module Campaign = Tmr_inject.Campaign
module Faultlist = Tmr_inject.Faultlist
module Context = Tmr_experiments.Context
module Runs = Tmr_experiments.Runs

let result_testable =
  Alcotest.testable
    (fun ppf (r : Campaign.fault_result) ->
      Format.fprintf ppf "{bit=%d; wrong=%b; effect=%s; cycle=%d}"
        r.Campaign.bit
        (r.Campaign.outcome = Campaign.Wrong_answer)
        (Tmr_inject.Classify.name r.Campaign.effect)
        r.Campaign.first_error_cycle)
    ( = )

(* verdicts only: the oracle collects no forensic records *)
let verdicts (c : Campaign.t) =
  Array.map (fun r -> { r with Campaign.forensics = None }) c.Campaign.results

let check_same_results msg (a : Campaign.t) (b : Campaign.t) =
  Alcotest.(check int) (msg ^ ": injected") a.Campaign.injected
    b.Campaign.injected;
  Alcotest.(check (array result_testable))
    (msg ^ ": results array")
    (verdicts a) (verdicts b)

(* Sequential stopping runs every fault on the scalar differential
   engine; a rule no prefix can meet keeps the whole campaign. *)
let never_stop = Tmr_obs.Stats.stop_rule ~min_n:max_int ~half_width:0.5 ()

(* --- campaign-level: batched (forensics off and on) == full rebuild
   and scalar diff == full rebuild, all five paper designs, one and two
   workers --- *)

let test_batch_vs_scalar_campaigns () =
  let ctx =
    Context.create ~scale:Context.Reduced ~seed:3 ~faults_per_design:90 ()
  in
  let total_batched = ref 0 in
  List.iter
    (fun strategy ->
      let name = Partition.name strategy in
      let run = Runs.implement_design ctx strategy in
      let campaign ?cone_skip ?forensics ?stop_at_ci ~workers () =
        Option.get
          (Runs.campaign_design ~workers ?cone_skip ?forensics ?stop_at_ci ctx
             run)
            .Runs.campaign
      in
      let oracle = campaign ~cone_skip:false ~workers:2 () in
      let scalar = campaign ~stop_at_ci:never_stop ~workers:2 () in
      Alcotest.(check int)
        (name ^ ": sequential-stopping run ran no batches")
        0 scalar.Campaign.stats.Campaign.batched;
      check_same_results (name ^ ": scalar diff vs oracle") scalar oracle;
      List.iter
        (fun (label, forensics, workers) ->
          let b = campaign ~forensics ~workers () in
          total_batched := !total_batched + b.Campaign.stats.Campaign.batched;
          check_same_results
            (Printf.sprintf "%s: batched%s w%d vs oracle" name label workers)
            b oracle)
        [ ("", false, 1); ("", false, 2); (" forensic", true, 2) ])
    Partition.all_paper_designs;
  Alcotest.(check bool) "batch engine exercised" true (!total_batched > 0)

(* --- campaign-level forensics: every diffable fault of the five
   reduced designs, majority and detecting voters, gets the same
   verdict and the same forensic record on the batched engine as on the
   scalar one --- *)

let record_testable =
  Alcotest.testable
    (fun ppf (r : Campaign.fault_result) ->
      match r.Campaign.forensics with
      | None -> Format.fprintf ppf "{bit=%d; no record}" r.Campaign.bit
      | Some f ->
          Format.fprintf ppf
            "{bit=%d; err=%d; det=%d; masked=%b; diverged=%d; first=%d@%d; \
             depth=%d; cone=%d}"
            r.Campaign.bit r.Campaign.first_error_cycle r.Campaign.detect_cycle
            f.Tmr_inject.Forensics.masked_at_voter
            f.Tmr_inject.Forensics.diverged
            f.Tmr_inject.Forensics.first_diverged_node
            f.Tmr_inject.Forensics.diverge_cycle f.Tmr_inject.Forensics.depth
            f.Tmr_inject.Forensics.cone_nodes)
    ( = )

(* The fault-list bits a campaign runs differentially: those planned as
   a patch or a reroute against the golden cone of every watched
   output, detection flags included. *)
let diffable_bits (ctx : Context.t) (run : Runs.design_run) =
  let impl = run.Runs.impl in
  let ports =
    List.map fst (Campaign.golden_outputs ctx.Context.golden_nl ctx.Context.stimulus)
    @ List.filter
        (fun p -> List.mem_assoc p (Netlist.output_ports impl.Impl.mapped))
        Voter.detect_ports
  in
  let watch_outputs =
    Array.concat (List.map (Campaign.dut_output_wires impl) ports)
  in
  let ex =
    Extract.create impl.Impl.dev impl.Impl.db
      (Bitstream.copy impl.Impl.bitgen.Tmr_pnr.Bitgen.bitstream)
  in
  let ws = Fsim.make_workspace impl.Impl.dev in
  let _ = Fsim.build ~ws ex ~watch_outputs in
  let cone = Fsim.snapshot_cone ws in
  Array.of_seq
    (Seq.filter
       (fun bit ->
         match Fsim.plan_fault cone ex bit with
         | Fsim.Path_patch | Fsim.Path_reroute -> true
         | _ -> false)
       (Array.to_seq run.Runs.faultlist.Faultlist.bits))

(* Exhaustive over the diffable faults, so the stimulus is halved to 24
   cycles to bound the scalar campaigns' run time. *)
let test_forensic_records_batched_eq_scalar () =
  let majority = Context.create ~scale:Context.Reduced ~seed:1 ~cycles:24 () in
  let detecting =
    let base = Context.create ~scale:Context.Reduced ~seed:11 ~cycles:24 () in
    (* the detecting voter's disagreement cells push max-partition one
       bel past the stock small device — grow it by one tile row *)
    let arch = Arch.scaled Arch.small ~rows:13 ~cols:14 in
    let dev = Device.build arch in
    { base with Context.dev; db = Bitdb.build dev }
  in
  let batched_lanes = ref 0 in
  List.iter
    (fun (strategy, voter) ->
      let name = Partition.name strategy ^ "/" ^ Voter.name voter in
      let ctx = if voter = Voter.Detecting then detecting else majority in
      let run = Runs.implement_design ~voter ctx strategy in
      let faults = diffable_bits ctx run in
      let campaign ?stop_at_ci () =
        Campaign.run ~workers:2 ~forensics:true ?stop_at_ci ~name
          ~impl:run.Runs.impl ~golden:ctx.Context.golden_nl
          ~stimulus:ctx.Context.stimulus ~faults ()
      in
      let scalar = campaign ~stop_at_ci:never_stop () in
      let batched = campaign () in
      let s = batched.Campaign.stats in
      batched_lanes := !batched_lanes + s.Campaign.batched;
      Alcotest.(check int) (name ^ ": no forensic lane re-ran scalar") 0
        s.Campaign.forensic_reruns;
      Alcotest.(check int) (name ^ ": scalar run ran no batches") 0
        scalar.Campaign.stats.Campaign.batched;
      (* convergence is exact on both engines, so they prove it for the
         same faults *)
      Alcotest.(check int) (name ^ ": converged faults")
        scalar.Campaign.stats.Campaign.converged s.Campaign.converged;
      Alcotest.(check (array record_testable))
        (name ^ ": verdicts and forensic records")
        scalar.Campaign.results batched.Campaign.results)
    (List.map (fun d -> (d, Voter.Majority)) Partition.all_paper_designs
    (* the standard design has no voters to vary *)
    @ List.filter_map
        (fun d ->
          if d = Partition.Unprotected then None else Some (d, Voter.Detecting))
        Partition.all_paper_designs);
  Alcotest.(check bool) "batch engine exercised" true (!batched_lanes > 0)

(* --- engine-level: on every patch and reroute bit of a small datapath,
   with and without trailing detection entries, each batch lane gives
   [Fsim.diff_run]'s (error, convergence, detection) triple and its
   forensic provenance; and the union cone of each batch is closed
   under the reader relation with every lane's seeds inside it --- *)

let build_datapath () =
  let nl = Netlist.create () in
  let a = Word.input nl "a" ~width:6 in
  let b = Word.input nl "b" ~width:6 in
  let s = Word.add nl a b in
  let p = Word.mul_const nl s (-3) ~width:6 in
  let r = Word.reg nl p in
  Word.output nl "r" r;
  nl

type lane_case = {
  lc_bit : int;
  lc_patch : bool;
  lc_delta : Fsim.delta;
  lc_seeds : int list;  (* base nodes the fault rewires or patches *)
  lc_triple : int * int * int;
  lc_prov : Fsim_batch.provenance;
}

let prov_testable =
  Alcotest.testable
    (fun ppf (p : Fsim_batch.provenance) ->
      Format.fprintf ppf
        "{cone=%d; diverged=%d; first=%d@%d; depth=%d; voter_held=%b}"
        p.Fsim_batch.pv_cone p.Fsim_batch.pv_diverged
        p.Fsim_batch.pv_first_node p.Fsim_batch.pv_first_cycle
        p.Fsim_batch.pv_depth p.Fsim_batch.pv_voter_held)
    ( = )

let test_engine_verdicts_and_grouping () =
  let dev = Device.build Arch.small in
  let db = Bitdb.build dev in
  let impl = Impl.implement_exn ~seed:5 dev db (build_datapath ()) in
  let out_wires = Array.init 6 (Impl.output_pad_wire impl "r") in
  let a_wires = Array.init 6 (Impl.input_pad_wire impl "a") in
  let b_wires = Array.init 6 (Impl.input_pad_wire impl "b") in
  let ex =
    Extract.create dev db
      (Bitstream.copy impl.Impl.bitgen.Tmr_pnr.Bitgen.bitstream)
  in
  let ws = Fsim.make_workspace dev in
  let base = Fsim.build ~ws ex ~watch_outputs:out_wires in
  let cone = Fsim.snapshot_cone ws in
  let cycles = 24 in
  let rng = Srand.create 7 in
  let stim =
    Array.init cycles (fun _ -> (Srand.int rng 64, Srand.int rng 64))
  in
  let drive sim c =
    let a, b = stim.(c) in
    let set wires v =
      let nodes = Fsim.pad_nodes sim wires in
      Array.iteri
        (fun i n ->
          Fsim.set_node sim n (Logic.of_bool ((v asr i) land 1 = 1)))
        nodes
    in
    set a_wires a;
    set b_wires b
  in
  let watch = Fsim.watch_nodes base out_wires in
  let tape = Fsim.tape_create ~nnodes:(Fsim.num_nodes base) ~cycles in
  let expected = Array.make_matrix cycles 6 Logic.X in
  Fsim.reset base;
  for c = 0 to cycles - 1 do
    drive base c;
    Fsim.eval base;
    Fsim.tape_record tape base ~cycle:c;
    for i = 0 to 5 do
      expected.(c).(i) <- Fsim.node_value base watch.(i)
    done;
    Fsim.clock base
  done;
  let nbase = Fsim.num_nodes base in
  let base_rows = (Fsim.view base).Fsim.v_inputs in
  (* an arbitrary node set stands in for the voters *)
  let voters = Bytes.init nbase (fun n -> if n mod 5 = 0 then '\001' else '\000') in
  let width = Fsim_batch.width in
  let bt = Fsim_batch.create base cone in
  let off, succ = Fsim_batch.csr bt in
  let bel_of = Fsim_batch.bel_of bt in
  let scratch = Fsim.make_scratch () in
  let dsc = Fsim.make_dscratch () in
  let scalar ~ndetect ~sim ~seeds ~watch:w =
    let triple =
      Fsim.diff_run ~ndetect ~forensics:true ~scratch:dsc ~tape ~base ~sim
        ~seeds ~watch:w ~base_watch:watch ~expected ()
    in
    let d = Fsim.diff_forensics dsc in
    let prov =
      {
        Fsim_batch.pv_cone = d.Fsim.df_cone;
        pv_diverged = d.Fsim.df_diverged;
        pv_first_node = d.Fsim.df_first_node;
        pv_first_cycle = d.Fsim.df_first_cycle;
        pv_depth = d.Fsim.df_depth;
        pv_voter_held =
          Array.exists
            (fun n ->
              n < nbase
              && Bytes.get voters n <> '\000'
              && not (Fsim.diff_node_diverged dsc n))
            (Fsim.diff_cone dsc);
      }
    in
    (triple, prov)
  in
  let cases ndetect =
    let acc = ref [] in
    for bit = 0 to Bitdb.num_bits db - 1 do
      match Fsim.plan_fault cone ex bit with
      | Fsim.Path_patch ->
          Extract.apply_bit_flip ex bit;
          Fun.protect
            ~finally:(fun () -> Extract.apply_bit_flip ex bit)
            (fun () ->
              let seed = Fsim.patch_node cone ex bit in
              let lc_triple, lc_prov =
                Fsim.with_patch cone base ex bit (fun sim ->
                    scalar ~ndetect ~sim ~seeds:(Fsim.Seed_node seed) ~watch)
              in
              acc :=
                { lc_bit = bit; lc_patch = true;
                  lc_delta = Fsim.patch_delta cone ex bit; lc_seeds = [ seed ];
                  lc_triple; lc_prov }
                :: !acc)
      | Fsim.Path_reroute ->
          Extract.apply_bit_flip ex bit;
          Fun.protect
            ~finally:(fun () -> Extract.apply_bit_flip ex bit)
            (fun () ->
              match
                Fsim.fault_delta ~scratch cone base ex bit ~succ_off:off ~succ
                  ~bel_of
              with
              | None -> ()
              | Some delta -> (
                  match Fsim.reroute ~scratch cone base ex bit with
                  | None -> ()
                  | Some sim ->
                      let w =
                        if Fsim.same_io base sim then watch
                        else Fsim.watch_nodes sim out_wires
                      in
                      let lc_triple, lc_prov =
                        scalar ~ndetect ~sim ~seeds:Fsim.Seed_derived ~watch:w
                      in
                      let lc_seeds =
                        List.filter_map
                          (fun (n, row) ->
                            if row <> base_rows.(n) then Some n else None)
                          (Array.to_list delta.Fsim.dl_rows)
                      in
                      acc :=
                        { lc_bit = bit; lc_patch = false; lc_delta = delta;
                          lc_seeds; lc_triple; lc_prov }
                        :: !acc))
      | _ -> ()
    done;
    Array.of_list (List.rev !acc)
  in
  let compared_reroute = ref 0 in
  let check_lane ndetect lc v =
    let err, cv, det = lc.lc_triple in
    let what = Printf.sprintf "bit %d (ndetect %d)" lc.lc_bit ndetect in
    Alcotest.(check (triple int int int))
      (what ^ ": (error, convergence, detection) cycles")
      (err, cv, det)
      ( v.Fsim_batch.bv_error_cycle,
        v.Fsim_batch.bv_converge_cycle,
        v.Fsim_batch.bv_detect_cycle );
    Alcotest.(check (option prov_testable))
      (what ^ ": provenance") (Some lc.lc_prov) v.Fsim_batch.bv_provenance;
    if not lc.lc_patch then incr compared_reroute
  in
  let run_lanes ndetect lcs =
    Fsim_batch.run bt ~ndetect ~voters ~tape ~expected ~watch
      ~lanes:(Array.map (fun lc -> lc.lc_delta) lcs)
      ()
  in
  (* lane grouping invariant: the union cone of the last batch is
     reader-closed (fault effects cannot escape it) and contains every
     lane's seeds *)
  let check_cone lcs =
    let members = Fsim_batch.last_cone bt in
    let in_cone = Array.make (nbase + Array.length members) false in
    Array.iter (fun u -> if u < nbase then in_cone.(u) <- true) members;
    Array.iter
      (fun u ->
        if u < nbase then
          for e = off.(u) to off.(u + 1) - 1 do
            Alcotest.(check bool)
              (Printf.sprintf "reader %d of member %d inside cone" succ.(e) u)
              true in_cone.(succ.(e))
          done)
      members;
    Array.iter
      (fun lc ->
        List.iter
          (fun seed ->
            Alcotest.(check bool)
              (Printf.sprintf "bit %d: seed %d inside union cone" lc.lc_bit
                 seed)
              true in_cone.(seed))
          lc.lc_seeds)
      lcs
  in
  (* one batch of [lcs]: false when the engine declines it; a patch
     lane declined inside a batch the engine ran fails *)
  let run_batch ndetect lcs =
    match run_lanes ndetect lcs with
    | None -> false
    | Some verdicts ->
        Array.iteri
          (fun k v ->
            let lc = lcs.(k) in
            match v with
            | None ->
                if lc.lc_patch then
                  Alcotest.failf "bit %d: patch lane declined" lc.lc_bit
            | Some v -> check_lane ndetect lc v)
          verdicts;
        check_cone lcs;
        true
  in
  let chunks lcs =
    let n = Array.length lcs in
    List.init ((n + width - 1) / width) (fun k ->
        Array.sub lcs (k * width) (min width (n - (k * width))))
  in
  List.iter
    (fun ndetect ->
      let faults = cases ndetect in
      let patch = List.filter (fun lc -> lc.lc_patch) (Array.to_list faults) in
      let reroute =
        List.filter (fun lc -> not lc.lc_patch) (Array.to_list faults)
      in
      Alcotest.(check bool) "found patch bits" true (patch <> []);
      Alcotest.(check bool) "found reroute bits" true (reroute <> []);
      (* patch lanes in patch-only batches, which the engine never
         declines *)
      List.iter
        (fun lcs ->
          if not (run_batch ndetect lcs) then
            Alcotest.fail "batch declined a pure-patch batch")
        (chunks (Array.of_list patch));
      (* a reroute batch whose union cone runs through a cyclic SCC is
         declined: then one lane at a time, and a lane declined alone
         is one the campaign runs on the scalar engine *)
      List.iter
        (fun lcs ->
          if not (run_batch ndetect lcs) then
            Array.iter (fun lc -> ignore (run_batch ndetect [| lc |])) lcs)
        (chunks (Array.of_list reroute)))
    [ 0; 2 ];
  Alcotest.(check bool) "reroute lanes compared" true (!compared_reroute > 0)

(* --- engine-level regression: a reroute (Conflict) fault of reduced
   tmr_p2 with detecting voters at seed 3 never converges on the scalar
   engine — a resolve seed keeps glitching — and must not on a batch
   lane either; the seed replay once read the glitch rule's previous
   value a cycle too early --- *)

let test_reroute_convergence_regression () =
  let ctx = Context.create ~scale:Context.Reduced ~seed:3 () in
  let run =
    Runs.implement_design ~voter:Voter.Detecting ctx Partition.Medium_partition
  in
  let campaign ?stop_at_ci () =
    Campaign.run ~workers:1 ?stop_at_ci ~name:"tmr_p2" ~impl:run.Runs.impl
      ~golden:ctx.Context.golden_nl ~stimulus:ctx.Context.stimulus
      ~faults:[| 26186; 26186 |] ()
  in
  let scalar = campaign ~stop_at_ci:never_stop () in
  (* the same bit twice shares a cone key: one batch of two lanes *)
  let batched = campaign () in
  Alcotest.(check int) "both lanes batched" 2
    batched.Campaign.stats.Campaign.batched;
  Alcotest.(check int) "scalar: never converges" 0
    scalar.Campaign.stats.Campaign.converged;
  Alcotest.(check int) "batched: never converges" 0
    batched.Campaign.stats.Campaign.converged;
  check_same_results "bit 26186" batched scalar

let () =
  Alcotest.run "tmr_batch"
    [
      ( "campaign",
        [
          Alcotest.test_case "batched == scalar == rebuild (5 designs)"
            `Slow test_batch_vs_scalar_campaigns;
        ] );
      ( "forensics",
        [
          Alcotest.test_case "records: batched == scalar (5 designs, 2 voters)"
            `Slow test_forensic_records_batched_eq_scalar;
        ] );
      ( "engine",
        [
          Alcotest.test_case "verdicts == diff_run, cone reader-closed"
            `Slow test_engine_verdicts_and_grouping;
          Alcotest.test_case "reroute convergence == diff_run (bit 26186)"
            `Quick test_reroute_convergence_regression;
        ] );
    ]
