(* Fault forensics: footprint decoding, domain/partition attribution,
   bit-identical campaign results with collection on or off, voter-masking
   verdicts and the JSONL sink. *)

module Arch = Tmr_arch.Arch
module Device = Tmr_arch.Device
module Bitdb = Tmr_arch.Bitdb
module Footprint = Tmr_fabric.Footprint
module Partition = Tmr_core.Partition
module Impl = Tmr_pnr.Impl
module Campaign = Tmr_inject.Campaign
module Faultlist = Tmr_inject.Faultlist
module Forensics = Tmr_inject.Forensics
module Metrics = Tmr_obs.Metrics
module Context = Tmr_experiments.Context
module Runs = Tmr_experiments.Runs
module Fir = Tmr_filter.Fir

let dev = lazy (Device.build Arch.small)
let db = lazy (Bitdb.build (Lazy.force dev))

let impl_of strategy =
  let nl = Tmr_filter.Designs.build ~params:Fir.tiny_params strategy in
  Impl.implement_exn ~seed:3 (Lazy.force dev) (Lazy.force db) nl

let standard_impl = lazy (impl_of Partition.Unprotected)
let tmr_impl = lazy (impl_of Partition.Medium_partition)

let stimulus cycles =
  { Campaign.cycles;
    inputs = [ ("x", Fir.stimulus ~cycles ~seed:7 Fir.tiny_params) ] }

let golden_nl = lazy (Fir.build Fir.tiny_params)

(* --- structural footprint: every configuration bit decodes into
   in-range device resources of the right shape --- *)

let test_footprint_decodes_every_bit () =
  let d = Lazy.force dev and database = Lazy.force db in
  for bit = 0 to Bitdb.num_bits database - 1 do
    let fp = Footprint.of_bit d database bit in
    Array.iter
      (fun w ->
        if w < 0 || w >= d.Device.nwires then
          Alcotest.failf "bit %d: wire %d out of range" bit w)
      fp.Footprint.fp_wires;
    Array.iter
      (fun b ->
        if b < 0 || b >= d.Device.nbels then
          Alcotest.failf "bit %d: bel %d out of range" bit b)
      fp.Footprint.fp_bels;
    Array.iter
      (fun p ->
        if p < 0 || p >= d.Device.npads then
          Alcotest.failf "bit %d: pad %d out of range" bit p)
      fp.Footprint.fp_pads;
    let shape =
      ( Array.length fp.Footprint.fp_wires,
        Array.length fp.Footprint.fp_bels,
        Array.length fp.Footprint.fp_pads )
    in
    let expect =
      match Bitdb.resource database bit with
      | Bitdb.Pip _ -> (2, 0, 0)
      | Bitdb.Lut_bit _ | Bitdb.Ff_init _ | Bitdb.Out_sel _ | Bitdb.Ce_inv _
      | Bitdb.Sr_inv _ | Bitdb.In_inv _ ->
          (0, 1, 0)
      | Bitdb.Pad_enable _ -> (1, 0, 1)
      | Bitdb.Pad_cfg _ -> (0, 0, 1)
    in
    if shape <> expect then
      Alcotest.failf "bit %d: footprint shape mismatch" bit
  done

(* --- domain / partition attribution --- *)

let popcount mask =
  let rec go m acc = if m = 0 then acc else go (m lsr 1) (acc + (m land 1)) in
  go mask 0

let test_attrib_invariants () =
  let a_std = Forensics.attrib_of_impl (Lazy.force standard_impl) in
  let a_tmr = Forensics.attrib_of_impl (Lazy.force tmr_impl) in
  Alcotest.(check bool) "TMR design has voter bels" true
    (Array.exists Fun.id a_tmr.Forensics.bel_voter);
  Alcotest.(check bool) "unprotected design has no voter bels" false
    (Array.exists Fun.id a_std.Forensics.bel_voter);
  Alcotest.(check bool) "TMR design has voter nets" true
    (Array.exists Fun.id a_tmr.Forensics.wire_voter);
  (* the TMR implementation places cells of all three redundancy domains *)
  List.iter
    (fun dom ->
      Alcotest.(check bool)
        (Printf.sprintf "TMR domain %d placed" dom)
        true
        (Array.exists (Int.equal dom) a_tmr.Forensics.bel_domain))
    [ 0; 1; 2 ];
  (* tags stay within range *)
  Array.iter
    (fun p ->
      Alcotest.(check bool) "wire partition id in range" true
        (p >= -1 && p < Array.length a_tmr.Forensics.part_names))
    a_tmr.Forensics.wire_part;
  Array.iter
    (fun d ->
      Alcotest.(check bool) "bel domain in range" true (d >= -1 && d <= 2))
    a_tmr.Forensics.bel_domain

let check_structural a bit =
  let st = Forensics.structural a bit in
  Alcotest.(check bool) "mask uses only domains 0-2" true
    (st.Forensics.domain_mask land lnot 7 = 0);
  Alcotest.(check bool) "cross-domain iff >= 2 domains"
    st.Forensics.cross_domain
    (popcount st.Forensics.domain_mask >= 2);
  let parts = st.Forensics.partitions in
  Array.iteri
    (fun i p ->
      Alcotest.(check bool) "partition ids sorted distinct" true
        (i = 0 || parts.(i - 1) < p);
      Alcotest.(check bool) "partition id names resolve" true
        (Forensics.part_name a p <> "?"))
    parts;
  (* structural-only record: divergence fields are unknown *)
  Alcotest.(check int) "no divergence count yet" (-1) st.Forensics.diverged;
  Alcotest.(check bool) "not voter-masked yet" false
    st.Forensics.masked_at_voter;
  st

let test_structural_attribution () =
  let a_std = Forensics.attrib_of_impl (Lazy.force standard_impl) in
  let a_tmr = Forensics.attrib_of_impl (Lazy.force tmr_impl) in
  let fl_std = Faultlist.of_impl (Lazy.force standard_impl) in
  Array.iter
    (fun bit ->
      let st = check_structural a_std bit in
      Alcotest.(check bool) "unprotected design: never cross-domain" false
        st.Forensics.cross_domain)
    fl_std.Faultlist.bits;
  let fl_tmr = Faultlist.of_impl (Lazy.force tmr_impl) in
  let cross = ref 0 and attributed = ref 0 in
  Array.iter
    (fun bit ->
      let st = check_structural a_tmr bit in
      if st.Forensics.cross_domain then incr cross;
      if st.Forensics.domain_mask <> 0 then incr attributed)
    fl_tmr.Faultlist.bits;
  Alcotest.(check bool) "TMR DUT bits mostly attributed to a domain" true
    (!attributed > 0);
  Alcotest.(check bool) "TMR routing exposes cross-domain bits" true
    (!cross > 0)

(* --- campaigns: results are bit-identical with forensics on or off --- *)

let strip (r : Campaign.fault_result) = { r with Campaign.forensics = None }

let result_testable =
  Alcotest.testable
    (fun ppf (r : Campaign.fault_result) ->
      Format.fprintf ppf "{bit=%d; wrong=%b; effect=%s; cycle=%d}"
        r.Campaign.bit
        (r.Campaign.outcome = Campaign.Wrong_answer)
        (Tmr_inject.Classify.name r.Campaign.effect)
        r.Campaign.first_error_cycle)
    ( = )

let test_forensics_bit_identical_campaigns () =
  let ctx =
    Context.create ~scale:Context.Reduced ~seed:4 ~faults_per_design:100 ()
  in
  List.iter
    (fun strategy ->
      let name = Partition.name strategy in
      let run = Runs.implement_design ctx strategy in
      let f =
        Option.get
          (Runs.campaign_design ~workers:2 ~forensics:true ctx run)
            .Runs.campaign
      in
      let o =
        Option.get
          (Runs.campaign_design ~workers:2 ~forensics:false ctx run)
            .Runs.campaign
      in
      Alcotest.(check int) (name ^ ": same injected") f.Campaign.injected
        o.Campaign.injected;
      Alcotest.(check (array result_testable))
        (name ^ ": identical results modulo the forensic record")
        (Array.map strip f.Campaign.results)
        (Array.map strip o.Campaign.results);
      Array.iter
        (fun r ->
          Alcotest.(check bool) (name ^ ": record present when on") true
            (r.Campaign.forensics <> None))
        f.Campaign.results;
      Array.iter
        (fun r ->
          Alcotest.(check bool) (name ^ ": no record when off") true
            (r.Campaign.forensics = None))
        o.Campaign.results;
      Alcotest.(check bool) (name ^ ": summary present when on") true
        (Campaign.forensic_summary f <> None);
      Alcotest.(check bool) (name ^ ": no summary when off") true
        (Campaign.forensic_summary o = None))
    Partition.all_paper_designs

(* --- forensic content on a TMR campaign --- *)

let test_forensic_records_tmr () =
  let ctx =
    Context.create ~scale:Context.Reduced ~seed:1 ~faults_per_design:150 ()
  in
  let before =
    match List.assoc_opt "campaign.first_error_cycle"
            (Metrics.snapshot ()).Metrics.histograms with
    | Some h -> h.Metrics.count
    | None -> 0
  in
  let run ?(forensics = true) strategy =
    Option.get
      (Runs.campaign_design ~workers:2 ~forensics ctx
         (Runs.implement_design ctx strategy))
        .Runs.campaign
  in
  let tmr = run Partition.Max_partition in
  (* per-record invariants *)
  Array.iter
    (fun (r : Campaign.fault_result) ->
      match r.Campaign.forensics with
      | None -> Alcotest.fail "missing forensic record"
      | Some f ->
          if f.Forensics.masked_at_voter then begin
            Alcotest.(check bool) "voter-masked implies silent" true
              (r.Campaign.outcome = Campaign.Silent);
            Alcotest.(check bool) "voter-masked implies divergence" true
              (f.Forensics.diverged > 0)
          end;
          if r.Campaign.outcome = Campaign.Silent then
            Alcotest.(check int) "silent has no error cycle" (-1)
              r.Campaign.first_error_cycle)
    tmr.Campaign.results;
  let s = Option.get (Campaign.forensic_summary tmr) in
  Alcotest.(check int) "every fault carries a record" tmr.Campaign.injected
    s.Campaign.fs_faults;
  Alcotest.(check bool) "TMR_p1 exposes cross-domain faults" true
    (s.Campaign.fs_cross > 0);
  Alcotest.(check bool) "voter masking observed" true
    (s.Campaign.fs_voter_masked > 0);
  Alcotest.(check bool) "voter-masked is a subset of silent-diverged" true
    (s.Campaign.fs_voter_masked <= s.Campaign.fs_silent_diverged);
  Alcotest.(check bool) "silent-diverged is a subset of diverged" true
    (s.Campaign.fs_silent_diverged <= s.Campaign.fs_diverged);
  (* the unprotected design has no redundancy to cross and no voters *)
  let std = run Partition.Unprotected in
  let s_std = Option.get (Campaign.forensic_summary std) in
  Alcotest.(check int) "unprotected: no cross-domain faults" 0
    s_std.Campaign.fs_cross;
  Alcotest.(check int) "unprotected: no voter masking" 0
    s_std.Campaign.fs_voter_masked;
  (* the first_error_cycle histogram collected every wrong answer *)
  let after =
    match List.assoc_opt "campaign.first_error_cycle"
            (Metrics.snapshot ()).Metrics.histograms with
    | Some h -> h.Metrics.count
    | None -> 0
  in
  Alcotest.(check int) "first_error_cycle histogram observes wrong answers"
    (tmr.Campaign.wrong + std.Campaign.wrong)
    (after - before)

(* --- the single-fault path: Campaign.trace_fault runs one bit through
   the campaign worker's own dispatch, so it reaches the rebuild
   oracle's verdict and the record a forensic campaign gives the bit --- *)

module Fsim = Tmr_fabric.Fsim
module Extract = Tmr_fabric.Extract
module Voter = Tmr_core.Voter

(* The first and the last bit of [bits] on one execution path, found with
   the engine's own planner on a golden simulator watching the pads the
   harness watches: "silent", "patch", "rebuild", "reroute" (runs
   differentially) or "reroute-fallback" (the reroute fails and the
   fault is rebuilt). *)
let bits_on_path impl golden stimulus =
  let ports =
    List.map fst (Campaign.golden_outputs golden stimulus)
    @ List.filter
        (fun p ->
          List.mem_assoc p (Tmr_netlist.Netlist.output_ports impl.Impl.mapped))
        Voter.detect_ports
  in
  let watch_outputs =
    Array.concat (List.map (Campaign.dut_output_wires impl) ports)
  in
  let ex =
    Extract.create impl.Impl.dev impl.Impl.db
      (Tmr_arch.Bitstream.copy impl.Impl.bitgen.Tmr_pnr.Bitgen.bitstream)
  in
  let ws = Fsim.make_workspace impl.Impl.dev in
  let base = Fsim.build ~ws ex ~watch_outputs in
  let cone = Fsim.snapshot_cone ws in
  let scratch = Fsim.make_scratch () in
  let on_path k bit =
    match (Fsim.plan_fault cone ex bit, k) with
    | Fsim.Path_reroute, ("reroute" | "reroute-fallback") ->
        Extract.apply_bit_flip ex bit;
        let ok = Fsim.reroute ~scratch cone base ex bit <> None in
        Extract.apply_bit_flip ex bit;
        ok = (k = "reroute")
    | p, _ -> Fsim.path_name p = k
  in
  fun k bits ->
    let n = Array.length bits in
    let rec scan i step =
      if i < 0 || i >= n then []
      else if on_path k bits.(i) then [ bits.(i) ]
      else scan (i + step) step
    in
    List.sort_uniq compare (scan 0 1 @ scan (n - 1) (-1))

let test_trace_fault_is_the_campaign_path () =
  let ctx =
    Context.create ~scale:Context.Reduced ~seed:1 ~faults_per_design:0 ()
  in
  let golden = ctx.Context.golden_nl and stimulus = ctx.Context.stimulus in
  List.iter
    (fun voter ->
      let run = Runs.implement_design ~voter ctx Partition.Medium_partition in
      let impl = run.Runs.impl in
      let name = "tmr_p2/" ^ Voter.name voter in
      let fl = run.Runs.faultlist.Faultlist.bits in
      let on_path = bits_on_path impl golden stimulus in
      let outside =
        let rec find b = if Array.mem b fl then find (b + 1) else b in
        find 0
      in
      let paths = [ "silent"; "patch"; "reroute"; "reroute-fallback"; "rebuild" ] in
      let path_cases =
        List.concat_map (fun k -> List.map (fun b -> (k, b)) (on_path k fl)) paths
        @ [ ("outside", outside) ]
      in
      List.iter
        (fun k ->
          if not (List.mem_assoc k path_cases) then
            Alcotest.failf "%s: no %s bit to trace" name k)
        [ "silent"; "patch"; "reroute"; "reroute-fallback" ];
      (* a sampled forensic campaign over the path bits too; its first
         wrong answer and first detected fault join the traced bits *)
      let sample = Faultlist.sample run.Runs.faultlist ~seed:3 ~count:100 in
      let faults = Array.append (Array.of_list (List.map snd path_cases)) sample in
      let camp =
        Campaign.run ~workers:2 ~forensics:true ~name ~impl ~golden ~stimulus
          ~faults ()
      in
      let first label p =
        let rec go i =
          if i >= Array.length faults then []
          else if p camp.Campaign.results.(i) then [ (label, i) ]
          else go (i + 1)
        in
        go (List.length path_cases)
      in
      let cases =
        List.mapi (fun i (k, _) -> (k, i)) path_cases
        @ first "wrong" (fun r -> r.Campaign.outcome = Campaign.Wrong_answer)
        @ first "detected" (fun r -> r.Campaign.detect_cycle >= 0)
      in
      Alcotest.(check bool) (name ^ ": a wrong answer is traced") true
        (List.mem_assoc "wrong" cases);
      let h = Campaign.harness ~name ~impl ~golden ~stimulus in
      let attrib = Forensics.attrib_of_impl impl in
      let oracle =
        Campaign.run ~workers:1 ~cone_skip:false ~name ~impl ~golden ~stimulus
          ~faults:(Array.of_list (List.map (fun (_, i) -> faults.(i)) cases))
          ()
      in
      List.iteri
        (fun j (k, i) ->
          let b = faults.(i) in
          let tr = Campaign.trace_fault ~attrib h b in
          let r = tr.Campaign.tr_result and o = oracle.Campaign.results.(j) in
          let label = Printf.sprintf "%s bit %d (%s)" name b k in
          (* the trace took the planned path *)
          if List.mem k paths then begin
            Alcotest.(check string) (label ^ ": plan")
              (if k = "reroute-fallback" then "reroute" else k)
              (Fsim.path_name tr.Campaign.tr_plan);
            Alcotest.(check bool) (label ^ ": ran differentially")
              (k = "patch" || k = "reroute")
              (tr.Campaign.tr_cone >= 0)
          end;
          (* its verdict is the rebuild oracle's, and the replay's *)
          Alcotest.(check bool) (label ^ ": outcome") true
            (r.Campaign.outcome = o.Campaign.outcome);
          Alcotest.(check int) (label ^ ": first error cycle")
            o.Campaign.first_error_cycle r.Campaign.first_error_cycle;
          Alcotest.(check int) (label ^ ": detect cycle") o.Campaign.detect_cycle
            r.Campaign.detect_cycle;
          let ex = Campaign.fresh_extract h in
          Extract.apply_bit_flip ex b;
          let err, det, _ = Campaign.replay h ex in
          Alcotest.(check (pair int int)) (label ^ ": replay verdict")
            (o.Campaign.first_error_cycle, o.Campaign.detect_cycle) (err, det);
          (* its result and record are the ones the campaign gave it *)
          Alcotest.(check bool) (label ^ ": result and record as in the campaign")
            true
            (r = camp.Campaign.results.(i)))
        cases)
    [ Voter.Majority; Voter.Detecting ]

(* --- JSONL sink --- *)

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

let contains line sub =
  let n = String.length line and m = String.length sub in
  let rec go i = i + m <= n && (String.sub line i m = sub || go (i + 1)) in
  go 0

let run_tiny_campaign () =
  let impl = Lazy.force tmr_impl in
  let fl = Faultlist.of_impl impl in
  let faults = Faultlist.sample fl ~seed:11 ~count:60 in
  Campaign.run ~name:"tmr_p2" ~impl ~golden:(Lazy.force golden_nl)
    ~stimulus:(stimulus 20) ~faults ()

let test_jsonl_emission () =
  let path = Filename.temp_file "forensics" ".jsonl" in
  Forensics.to_file path;
  let c =
    Fun.protect ~finally:Forensics.close (fun () -> run_tiny_campaign ())
  in
  let lines = read_lines path in
  Alcotest.(check int) "one record per injected fault" c.Campaign.injected
    (List.length lines);
  List.iter
    (fun line ->
      Alcotest.(check bool) "record is a JSON object" true
        (String.length line > 1 && line.[0] = '{'
        && line.[String.length line - 1] = '}');
      List.iter
        (fun field ->
          Alcotest.(check bool) (Printf.sprintf "record has %s" field) true
            (contains line (Printf.sprintf "\"%s\":" field)))
        [ "design"; "bit"; "effect"; "outcome"; "first_error_cycle";
          "domain_mask"; "cross_domain"; "masked_at_voter" ])
    lines;
  (* emission order is the fault-index order of the campaign *)
  List.iteri
    (fun i line ->
      let bit = c.Campaign.results.(i).Campaign.bit in
      Alcotest.(check bool)
        (Printf.sprintf "record %d is fault %d" i bit)
        true
        (contains line (Printf.sprintf "\"bit\":%d," bit)))
    lines;
  (* a second identical run streams identical bytes *)
  let path2 = Filename.temp_file "forensics" ".jsonl" in
  Forensics.to_file path2;
  ignore
    (Fun.protect ~finally:Forensics.close (fun () -> run_tiny_campaign ()));
  Alcotest.(check (list string)) "deterministic stream" lines
    (read_lines path2);
  Sys.remove path;
  Sys.remove path2

let () =
  Alcotest.run "tmr_forensics"
    [
      ( "footprint",
        [
          Alcotest.test_case "every bit decodes in range" `Quick
            test_footprint_decodes_every_bit;
        ] );
      ( "attribution",
        [
          Alcotest.test_case "attrib invariants" `Quick test_attrib_invariants;
          Alcotest.test_case "structural attribution" `Quick
            test_structural_attribution;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "bit-identical with forensics on/off (5 designs)"
            `Slow test_forensics_bit_identical_campaigns;
          Alcotest.test_case "TMR forensic records and summary" `Slow
            test_forensic_records_tmr;
          Alcotest.test_case "trace_fault is the campaign's single-fault path"
            `Slow test_trace_fault_is_the_campaign_path;
        ] );
      ( "jsonl",
        [ Alcotest.test_case "stream per fault" `Quick test_jsonl_emission ] );
    ]
