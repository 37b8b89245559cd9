module Logic = Tmr_logic.Logic
module Texttab = Tmr_logic.Texttab
module Netlist = Tmr_netlist.Netlist
module Netsim = Tmr_netlist.Netsim
module Bitdb = Tmr_arch.Bitdb
module Partition = Tmr_core.Partition
module Impl = Tmr_pnr.Impl
module Campaign = Tmr_inject.Campaign
module Classify = Tmr_inject.Classify

let paper_table2 =
  [
    ("standard", (150, 42_953, 9_600, 722, 154));
    ("tmr_p1", (560, 138_453, 35_840, 3_498, 123));
    ("tmr_p2", (504, 161_568, 32_256, 3_492, 137));
    ("tmr_p3", (498, 151_994, 31_872, 3_447, 153));
    ("tmr_p3_nv", (476, 150_521, 30_464, 2_141, 154));
  ]

let paper_table3 =
  [
    ("standard", (5_100, 4_952, 97.10));
    ("tmr_p1", (17_515, 706, 4.03));
    ("tmr_p2", (19_401, 190, 0.98));
    ("tmr_p3", (18_501, 289, 1.56));
    ("tmr_p3_nv", (18_000, 2_268, 12.60));
  ]

(* ------------------------------------------------------------------ *)
(* Table 1 *)

(* Inject up to [n] faults of one bit class into the TMR design and report
   how many defeated it. *)
let probe_class (ctx : Context.t) (run : Runs.design_run) cls n =
  let bits =
    Array.of_list
      (List.filter
         (fun b -> Bitdb.class_of_bit ctx.Context.db b = cls)
         (Array.to_list run.Runs.faultlist.Tmr_inject.Faultlist.bits))
  in
  let rng = Tmr_logic.Srand.create (ctx.Context.seed + 77) in
  let chosen = Tmr_logic.Srand.sample rng n (Array.length bits) in
  let faults = Array.map (fun i -> bits.(i)) chosen in
  if Array.length faults = 0 then (0, 0)
  else begin
    let c =
      Campaign.run
        ~name:(Partition.name run.Runs.strategy)
        ~impl:run.Runs.impl ~golden:ctx.Context.golden_nl
        ~stimulus:ctx.Context.stimulus ~faults ()
    in
    (c.Campaign.injected, c.Campaign.wrong)
  end

(* Flip every flip-flop of redundancy domain 0 once, mid-run, in netlist
   simulation of the TMR design; count output errors (there should be
   none: this is the paper's "corrected by design" row). *)
let probe_ff_state (ctx : Context.t) (run : Runs.design_run) =
  let nl = run.Runs.nl in
  let stim = ctx.Context.stimulus in
  let golden = Campaign.golden_outputs ctx.Context.golden_nl stim in
  let ffs = ref [] in
  Netlist.iter_cells nl (fun c ->
      match Netlist.kind nl c with
      | Netlist.Ff _ when Netlist.domain nl c = 0 -> ffs := c :: !ffs
      | _ -> ());
  let errors = ref 0 in
  let injected = ref 0 in
  List.iter
    (fun ff ->
      incr injected;
      let sim = Netsim.create nl in
      Netsim.reset sim;
      let ok = ref true in
      for cycle = 0 to stim.Campaign.cycles - 1 do
        List.iter
          (fun (port, samples) ->
            List.iter
              (fun d ->
                let name = Tmr_core.Tmr.redundant_port port d in
                Netsim.set_input sim name samples.(cycle))
              [ 0; 1; 2 ])
          stim.Campaign.inputs;
        if cycle = 8 then begin
          (* the SEU: invert the stored bit *)
          let v = Netsim.value sim ff in
          Netsim.set_ff sim ff (Logic.logic_not v)
        end;
        Netsim.eval sim;
        List.iter
          (fun (port, matrix) ->
            let bits = Netsim.output_bits sim port in
            Array.iteri
              (fun i expected ->
                if not (Logic.equal bits.(i) expected) then ok := false)
              matrix.(cycle))
          golden;
        Netsim.clock sim
      done;
      if not !ok then incr errors)
    !ffs;
  (!injected, !errors)

let table1 ctx run =
  let t =
    Texttab.create
      ~title:
        (Printf.sprintf
           "Table 1: upset analysis in the TMR approach (measured on %s)"
           (Partition.name run.Runs.strategy))
      ~header:
        [ "Upset location"; "Upset effect"; "Injected"; "TMR output errors";
          "Correction" ]
      [ Texttab.Left; Texttab.Left; Texttab.Right; Texttab.Right; Texttab.Left ]
  in
  let probe = probe_class ctx run in
  let lut_inj, lut_err = probe Bitdb.Class_lut 40 in
  Texttab.add_row t
    [ "LUT"; "combinational logic change"; string_of_int lut_inj;
      string_of_int lut_err; "by scrubbing" ];
  let rt_inj, rt_err = probe Bitdb.Class_routing 40 in
  Texttab.add_row t
    [ "Routing"; "connection / disconnection"; string_of_int rt_inj;
      string_of_int rt_err; "by scrubbing" ];
  let cu_inj, cu_err = probe Bitdb.Class_custom 40 in
  Texttab.add_row t
    [ "Customization"; "CLB mux / pad change"; string_of_int cu_inj;
      string_of_int cu_err; "by scrubbing" ];
  let ff_inj, ff_err = probe_ff_state ctx run in
  Texttab.add_row t
    [ "Flip-flops"; "sequential state flip (SEU)"; string_of_int ff_inj;
      string_of_int ff_err; "by design (voters)" ];
  Texttab.render t

(* ------------------------------------------------------------------ *)
(* Table 2 *)

let table2 runs =
  let t =
    Texttab.create
      ~title:"Table 2: comparison between TMR partitioned designs"
      ~header:
        [ "Filter design"; "slices"; "#routing bits"; "#LUTs bits";
          "#CLB ffps bits"; "est. MHz"; "paper slices"; "paper MHz" ]
      [ Texttab.Left; Texttab.Right; Texttab.Right; Texttab.Right;
        Texttab.Right; Texttab.Right; Texttab.Right; Texttab.Right ]
  in
  List.iter
    (fun (run : Runs.design_run) ->
      let name = Partition.name run.Runs.strategy in
      let by_class = run.Runs.faultlist.Tmr_inject.Faultlist.by_class in
      let get cls = try List.assoc cls by_class with Not_found -> 0 in
      let paper_slices, paper_mhz =
        match List.assoc_opt name paper_table2 with
        | Some (s, _, _, _, m) -> (string_of_int s, string_of_int m)
        | None -> ("-", "-")
      in
      Texttab.add_row t
        [
          Partition.paper_name run.Runs.strategy;
          string_of_int (Impl.used_slices run.Runs.impl);
          string_of_int (get Bitdb.Class_routing);
          string_of_int (get Bitdb.Class_lut);
          string_of_int (get Bitdb.Class_ff);
          Printf.sprintf "%.0f" run.Runs.impl.Impl.timing.Tmr_pnr.Timing.mhz;
          paper_slices;
          paper_mhz;
        ])
    runs;
  Texttab.render t

(* ------------------------------------------------------------------ *)
(* Table 3 *)

let table3 runs =
  let t =
    Texttab.create ~title:"Table 3: fault injection campaign results"
      ~header:
        [ "Design"; "Injected"; "Wrong answers"; "[%]"; "paper [%]" ]
      [ Texttab.Left; Texttab.Right; Texttab.Right; Texttab.Right;
        Texttab.Right ]
  in
  List.iter
    (fun (run : Runs.design_run) ->
      match run.Runs.campaign with
      | None -> ()
      | Some c ->
          let name = Partition.name run.Runs.strategy in
          let paper =
            match List.assoc_opt name paper_table3 with
            | Some (_, _, pct) -> Printf.sprintf "%.2f" pct
            | None -> "-"
          in
          Texttab.add_row t
            [
              Partition.paper_name run.Runs.strategy;
              string_of_int c.Campaign.injected;
              string_of_int c.Campaign.wrong;
              Printf.sprintf "%.2f" (Campaign.wrong_percent c);
              paper;
            ])
    runs;
  Texttab.render t

(* ------------------------------------------------------------------ *)
(* Table 4 *)

let table4 runs =
  let with_campaigns =
    List.filter_map
      (fun (run : Runs.design_run) ->
        Option.map (fun c -> (run, c)) run.Runs.campaign)
      runs
  in
  let header =
    "Effect"
    :: List.concat_map
         (fun ((run : Runs.design_run), _) ->
           let n = Partition.paper_name run.Runs.strategy in
           [ n ^ " [#]"; "[%]" ])
         with_campaigns
  in
  let aligns =
    Texttab.Left :: List.concat_map (fun _ -> [ Texttab.Right; Texttab.Right ]) with_campaigns
  in
  let t =
    Texttab.create
      ~title:
        "Table 4: effects induced by the upsets that caused a wrong answer"
      ~header aligns
  in
  List.iter
    (fun eff ->
      let row =
        Classify.name eff
        :: List.concat_map
             (fun (_, c) ->
               let n = Campaign.wrong_by_effect c eff in
               let total = max 1 c.Campaign.wrong in
               [
                 string_of_int n;
                 Printf.sprintf "%.0f" (100.0 *. float_of_int n /. float_of_int total);
               ])
             with_campaigns
      in
      Texttab.add_row t row)
    Classify.all;
  Texttab.add_separator t;
  let totals =
    "Total"
    :: List.concat_map
         (fun (_, c) ->
           [ string_of_int c.Campaign.wrong; "" ])
         with_campaigns
  in
  Texttab.add_row t totals;
  Texttab.render t

(* ------------------------------------------------------------------ *)
(* Voter library: cost model and detection coverage.  Not in the paper —
   the voter microarchitecture is this repo's extra design axis — but
   rendered in the same style so the partition optimum can be re-read
   under each voter choice. *)

module Voter = Tmr_core.Voter

let table_voters () =
  let t =
    Texttab.create
      ~title:"Voter library: per-voted-bit cost model (post-map LUT delays)"
      ~header:
        [ "Voter"; "Vote cells"; "Detect cells"; "Levels"; "Delay [ns]";
          "Description" ]
      [ Texttab.Left; Texttab.Right; Texttab.Right; Texttab.Right;
        Texttab.Right; Texttab.Left ]
  in
  List.iter
    (fun v ->
      let c = Voter.cost v in
      Texttab.add_row t
        [
          Voter.name v;
          string_of_int c.Voter.vote_cells;
          string_of_int c.Voter.detect_cells;
          string_of_int c.Voter.levels;
          Printf.sprintf "%.2f" c.Voter.delay_ns;
          Voter.description v;
        ])
    Voter.all;
  Texttab.render t

(* Group the runs by voter variant, preserving first-seen order in both
   axes.  Majority/improved designs have no detection logic, so their
   SDC share just restates the wrong-answer rate — printing it anyway
   makes the detecting column's SDC reduction directly comparable. *)
let table_detection runs =
  let voters = ref [] in
  List.iter
    (fun (run : Runs.design_run) ->
      if not (List.mem_assoc run.Runs.voter !voters) then
        voters := !voters @ [ (run.Runs.voter, ()) ])
    runs;
  let voters = List.map fst !voters in
  let designs = ref [] in
  List.iter
    (fun (run : Runs.design_run) ->
      if not (List.exists (fun s -> s = run.Runs.strategy) !designs) then
        designs := !designs @ [ run.Runs.strategy ])
    runs;
  let header =
    "Design"
    :: List.concat_map
         (fun v -> [ Voter.name v ^ " wrong%"; "SDC%"; "detected%" ])
         voters
  in
  let aligns =
    Texttab.Left
    :: List.concat_map
         (fun _ -> [ Texttab.Right; Texttab.Right; Texttab.Right ])
         voters
  in
  let t =
    Texttab.create
      ~title:
        "Detection coverage: wrong-answer, silent-data-corruption and \
         detected shares per design x voter"
      ~header aligns
  in
  List.iter
    (fun strategy ->
      let row =
        Partition.paper_name strategy
        :: List.concat_map
             (fun v ->
               match
                 List.find_opt
                   (fun (run : Runs.design_run) ->
                     run.Runs.strategy = strategy && run.Runs.voter = v
                     && run.Runs.campaign <> None)
                   runs
               with
               | None -> [ "-"; "-"; "-" ]
               | Some run ->
                   let c = Option.get run.Runs.campaign in
                   [
                     Printf.sprintf "%.2f" (Campaign.wrong_percent c);
                     Printf.sprintf "%.2f" (Campaign.sdc_percent c);
                     Printf.sprintf "%.2f" (Campaign.detected_percent c);
                   ])
             voters
      in
      Texttab.add_row t row)
    !designs;
  Texttab.render t

(* ------------------------------------------------------------------ *)
(* Machine-readable emission (tmrtool tables --json): per design, the
   same engine-summary object as [tmrtool inject --json], extended with
   the implementation numbers the text tables show and the paper's own
   row for direct comparison. *)

module Json = Tmr_obs.Json

let json_of_run (run : Runs.design_run) =
  Option.map
    (fun c ->
      let base =
        match Json.parse (Campaign.summary_json c) with
        | Ok (Json.Obj fields) -> fields
        | _ -> []
      in
      let name = Partition.name run.Runs.strategy in
      let by_class = run.Runs.faultlist.Tmr_inject.Faultlist.by_class in
      let int i = Json.Num (float_of_int i) in
      let extra =
        [
          ("paper_name", Json.Str (Partition.paper_name run.Runs.strategy));
          ("voter", Json.Str (Voter.name run.Runs.voter));
          ("slices", int (Impl.used_slices run.Runs.impl));
          ( "mhz",
            Json.Num run.Runs.impl.Impl.timing.Tmr_pnr.Timing.mhz );
          ( "dut_bits_by_class",
            Json.Obj
              (List.map
                 (fun (cls, n) -> (Bitdb.class_name cls, int n))
                 by_class) );
          ( "paper",
            match List.assoc_opt name paper_table3 with
            | Some (injected, wrong, pct) ->
                Json.Obj
                  [
                    ("injected", int injected);
                    ("wrong", int wrong);
                    ("wrong_percent", Json.Num pct);
                  ]
            | None -> Json.Null );
          ( "coverage",
            match Runs.coverage_of run with
            | Some cov -> Tmr_inject.Coverage.to_json cov
            | None -> Json.Null );
        ]
      in
      (* duplicate keys shadow left-to-right in consumers; there are none
         between the engine summary and the extensions *)
      Json.Obj (base @ extra))
    run.Runs.campaign

let tables_json (ctx : Context.t) runs =
  let scale =
    match ctx.Context.scale with
    | Context.Paper -> "paper"
    | Context.Reduced -> "reduced"
  in
  Json.to_string
    (Json.Obj
       [
         ("scale", Json.Str scale);
         ("seed", Json.Num (float_of_int ctx.Context.seed));
         ( "faults_per_design",
           Json.Num (float_of_int ctx.Context.faults_per_design) );
         ("designs", Json.Arr (List.filter_map json_of_run runs));
       ])

(* ------------------------------------------------------------------ *)
(* Forensics: why the campaigns rank the way they do.  Cross-domain
   faults (a footprint bridging two redundancy domains) are the upsets a
   vote cannot fix, and their share tracks the inter-domain wiring each
   partitioning adds; the voter-masking rate shows how often the vote —
   rather than plain logic masking — absorbed a real internal upset. *)

let pct num den =
  if den <= 0 then "-"
  else Printf.sprintf "%.2f" (100.0 *. float_of_int num /. float_of_int den)

let table_forensics runs =
  let t =
    Texttab.create
      ~title:
        "Forensics: cross-domain faults and voter masking (explains Table \
         3's ordering)"
      ~header:
        [ "Design"; "Injected"; "Cross-domain"; "[%]"; "Cross of wrong [%]";
          "Multi-partition"; "Silent+diverged"; "Voter-masked"; "[%]" ]
      [ Texttab.Left; Texttab.Right; Texttab.Right; Texttab.Right;
        Texttab.Right; Texttab.Right; Texttab.Right; Texttab.Right;
        Texttab.Right ]
  in
  List.iter
    (fun (run : Runs.design_run) ->
      match run.Runs.campaign with
      | None -> ()
      | Some c -> (
          match Campaign.forensic_summary c with
          | None -> ()
          | Some s ->
              let wrong = c.Campaign.wrong in
              Texttab.add_row t
                [
                  Partition.paper_name run.Runs.strategy;
                  string_of_int c.Campaign.injected;
                  string_of_int s.Campaign.fs_cross;
                  pct s.Campaign.fs_cross s.Campaign.fs_faults;
                  pct s.Campaign.fs_cross_wrong wrong;
                  string_of_int s.Campaign.fs_multi_part;
                  string_of_int s.Campaign.fs_silent_diverged;
                  string_of_int s.Campaign.fs_voter_masked;
                  pct s.Campaign.fs_voter_masked s.Campaign.fs_silent_diverged;
                ]))
    runs;
  Texttab.render t
