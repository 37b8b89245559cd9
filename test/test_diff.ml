(* Differential fault-simulation engine: baseline-tape packing, cone
   closure on a hand-built fabric, and bit-identical campaign results
   against the full-replay engine on all five paper designs. *)

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
module Partition = Tmr_core.Partition
module Campaign = Tmr_inject.Campaign
module Context = Tmr_experiments.Context
module Runs = Tmr_experiments.Runs

let dev = lazy (Device.build Arch.small)
let db = lazy (Bitdb.build (Lazy.force dev))

(* --- tape pack/unpack --- *)

let logic_testable =
  Alcotest.testable
    (fun ppf v -> Format.pp_print_char ppf (Logic.to_char v))
    Logic.equal

let test_tape_roundtrip () =
  let nnodes = 13 and cycles = 7 in
  let tape = Fsim.tape_create ~nnodes ~cycles in
  Alcotest.(check int) "nnodes" nnodes (Fsim.tape_nnodes tape);
  Alcotest.(check int) "cycles" cycles (Fsim.tape_cycles tape);
  (* a dense pseudo-random pattern over all three values, written twice
     (the second write overwrites in place) *)
  let vals = [| Logic.Zero; Logic.One; Logic.X |] in
  let at pass c n = vals.(((pass * 11) + (c * 31) + (n * 7)) mod 3) in
  for pass = 0 to 1 do
    for c = 0 to cycles - 1 do
      for n = 0 to nnodes - 1 do
        Fsim.tape_set tape ~cycle:c ~node:n (at pass c n)
      done
    done
  done;
  for c = 0 to cycles - 1 do
    for n = 0 to nnodes - 1 do
      Alcotest.check logic_testable
        (Printf.sprintf "cycle %d node %d" c n)
        (at 1 c n)
        (Fsim.tape_get tape ~cycle:c ~node:n)
    done
  done;
  Alcotest.check_raises "cycle out of range"
    (Invalid_argument "Fsim.tape_get") (fun () ->
      ignore (Fsim.tape_get tape ~cycle:cycles ~node:0));
  Alcotest.check_raises "node out of range"
    (Invalid_argument "Fsim.tape_set") (fun () ->
      Fsim.tape_set tape ~cycle:0 ~node:nnodes Logic.One)

(* --- cone closure + differential == full replay on a hand-built
   fabric: every patchable bit of a small implemented datapath --- *)

let build_datapath () =
  let nl = Netlist.create () in
  let a = Word.input nl "a" ~width:6 in
  let b = Word.input nl "b" ~width:6 in
  let s = Word.add nl a b in
  let p = Word.mul_const nl s (-3) ~width:6 in
  let r = Word.reg nl p in
  Word.output nl "r" r;
  nl

let test_patch_diff_matches_oracle () =
  let dev = Lazy.force dev and db = Lazy.force db in
  let impl =
    Impl.implement_exn ~seed:5 dev db (build_datapath ())
  in
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
  let stim = Array.init cycles (fun _ -> (Srand.int rng 64, Srand.int rng 64)) in
  let drive sim c =
    let a, b = stim.(c) in
    let set wires v =
      let nodes = Fsim.pad_nodes sim wires in
      Array.iteri
        (fun i n -> Fsim.set_node sim n (Logic.of_bool ((v asr i) land 1 = 1)))
        nodes
    in
    set a_wires a;
    set b_wires b
  in
  (* the baseline tape and the expected (fault-free) watch matrix *)
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
  (* tape_record round-trips through the packing *)
  Array.iteri
    (fun i w ->
      Alcotest.check logic_testable
        (Printf.sprintf "tape holds watch bit %d" i)
        expected.(cycles - 1).(i)
        (Fsim.tape_get tape ~cycle:(cycles - 1) ~node:w))
    watch;
  (* full-replay oracle: a fresh simulator on the flipped extract *)
  let oracle () =
    let sim = Fsim.build ex ~watch_outputs:out_wires in
    let w = Fsim.watch_nodes sim out_wires in
    Fsim.reset sim;
    let err = ref (-1) in
    let c = ref 0 in
    while !err < 0 && !c < cycles do
      drive sim !c;
      Fsim.eval sim;
      for i = 0 to 5 do
        if
          !err < 0
          && not (Logic.equal (Fsim.node_value sim w.(i)) expected.(!c).(i))
        then err := !c
      done;
      if !err < 0 then begin
        Fsim.clock sim;
        incr c
      end
    done;
    !err
  in
  let dsc = Fsim.make_dscratch () in
  let tested = ref 0 in
  for bit = 0 to Bitdb.num_bits db - 1 do
    if Fsim.plan_fault cone ex bit = Fsim.Path_patch then begin
      incr tested;
      Extract.apply_bit_flip ex bit;
      Fun.protect
        ~finally:(fun () -> Extract.apply_bit_flip ex bit)
        (fun () ->
          let seed = Fsim.patch_node cone ex bit in
          let derr, _cv, _det =
            Fsim.with_patch cone base ex bit (fun sim ->
                Fsim.diff_run ~forensics:false ~scratch:dsc ~tape ~base ~sim
                  ~seeds:(Fsim.Seed_node seed) ~watch ~base_watch:watch
                  ~expected ())
          in
          Alcotest.(check bool)
            (Printf.sprintf "bit %d: cone closed under successors" bit)
            true
            (Fsim.diff_cone_is_closed dsc base);
          Alcotest.(check bool)
            (Printf.sprintf "bit %d: seed inside the cone" bit)
            true
            (Array.exists (fun n -> n = seed) (Fsim.diff_cone dsc));
          Alcotest.(check int)
            (Printf.sprintf "bit %d: first error cycle" bit)
            (oracle ()) derr)
    end
  done;
  Alcotest.(check bool) "exercised some patch faults" true (!tested > 0)

(* --- campaign-level: the fast engines == the full-rebuild oracle, all
   five paper designs over a shared fault sample --- *)

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

let test_fast_vs_rebuild_campaigns () =
  let ctx =
    Context.create ~scale:Context.Reduced ~seed:2 ~faults_per_design:120 ()
  in
  let total_diffed = ref 0 and total_converged = ref 0 in
  List.iter
    (fun strategy ->
      let name = Partition.name strategy in
      let run = Runs.implement_design ctx strategy in
      let campaign ?cone_skip ?stop_at_ci () =
        Option.get
          (Runs.campaign_design ~workers:2 ?cone_skip ?stop_at_ci ctx run)
            .Runs.campaign
      in
      let o = campaign ~cone_skip:false () in
      let batched = campaign () in
      (* sequential stopping forces the scalar engine; no prefix meets
         this rule, so the campaign runs in full *)
      let scalar =
        campaign
          ~stop_at_ci:
            (Tmr_obs.Stats.stop_rule ~min_n:max_int ~half_width:0.5 ())
          ()
      in
      List.iter
        (fun (engine, (d : Campaign.t)) ->
          let s = d.Campaign.stats in
          total_diffed := !total_diffed + s.Campaign.diffed;
          total_converged := !total_converged + s.Campaign.converged;
          Alcotest.(check int)
            (name ^ " " ^ engine
           ^ ": differential engine covers every patch/reroute fault")
            (s.Campaign.patched + s.Campaign.rerouted)
            s.Campaign.diffed;
          Alcotest.(check bool)
            (name ^ " " ^ engine ^ ": converged <= diffed")
            true
            (s.Campaign.converged <= s.Campaign.diffed);
          check_same_results (name ^ " " ^ engine ^ " vs oracle") d o)
        [ ("batched", batched); ("scalar", scalar) ];
      Alcotest.(check int)
        (name ^ ": oracle ran nothing differentially")
        0 o.Campaign.stats.Campaign.diffed)
    Partition.all_paper_designs;
  Alcotest.(check bool) "diff engine exercised" true (!total_diffed > 0);
  Alcotest.(check bool) "some faults converged early" true
    (!total_converged > 0)

let () =
  Alcotest.run "tmr_diff"
    [
      ( "tape",
        [ Alcotest.test_case "pack/unpack round-trip" `Quick test_tape_roundtrip ] );
      ( "engine",
        [
          Alcotest.test_case "patch faults: diff == oracle, cone closed"
            `Slow test_patch_diff_matches_oracle;
          Alcotest.test_case "campaigns: fast == full rebuild (5 designs)"
            `Slow test_fast_vs_rebuild_campaigns;
        ] );
    ]
