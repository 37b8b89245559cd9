module Logic = Tmr_logic.Logic
module Netlist = Tmr_netlist.Netlist
module Netsim = Tmr_netlist.Netsim
module Bitstream = Tmr_arch.Bitstream
module Impl = Tmr_pnr.Impl
module Extract = Tmr_fabric.Extract
module Fsim = Tmr_fabric.Fsim
module Fsim_batch = Tmr_fabric.Fsim_batch
module Bitdb = Tmr_arch.Bitdb
module Device = Tmr_arch.Device

type stimulus = {
  cycles : int;
  inputs : (string * int array) list;
}

type outcome =
  | Silent
  | Wrong_answer

type fault_result = {
  bit : int;
  outcome : outcome;
  effect : Classify.effect;
  first_error_cycle : int;
  detect_cycle : int;
      (** first cycle an in-circuit disagreement flag fired, [-1] = never
          (always [-1] on designs without detection voters) *)
  forensics : Forensics.t option;  (** None when collection was off *)
}

(* Four-way detected-vs-silent verdict taxonomy: the functional outcome
   crossed with whether the design's own detection logic flagged the
   upset.  [Silent_wrong] is the silent-data-corruption (SDC) class —
   the design answered wrongly and its voters never noticed. *)
type verdict =
  | Silent_correct
  | Detected_corrected
  | Detected_wrong
  | Silent_wrong

let verdict_of r =
  match (r.outcome, r.detect_cycle >= 0) with
  | Silent, false -> Silent_correct
  | Silent, true -> Detected_corrected
  | Wrong_answer, true -> Detected_wrong
  | Wrong_answer, false -> Silent_wrong

let verdict_name = function
  | Silent_correct -> "silent_correct"
  | Detected_corrected -> "detected_corrected"
  | Detected_wrong -> "detected_wrong"
  | Silent_wrong -> "silent_wrong"

type engine_stats = {
  skipped : int;
  patched : int;
  rerouted : int;
  rebuilt : int;
  diffed : int;
  converged : int;
  batched : int;
}

type t = {
  design : string;
  requested : int;
  injected : int;
  wrong : int;
  results : fault_result array;
  workers : int;
  stats : engine_stats;
  wall_ns : int;
  busy_ns : int array;
  setup_ns : int array;
}

type progress = {
  p_completed : int;
  p_total : int;
  p_wrong : int;
}

let no_stats =
  {
    skipped = 0;
    patched = 0;
    rerouted = 0;
    rebuilt = 0;
    diffed = 0;
    converged = 0;
    batched = 0;
  }

let inject_utilization t =
  if t.wall_ns <= 0 || t.workers <= 0 then 0.0
  else
    float_of_int (Array.fold_left ( + ) 0 t.busy_ns)
    /. (float_of_int t.workers *. float_of_int t.wall_ns)

let utilization t =
  if t.wall_ns <= 0 || t.workers <= 0 then 0.0
  else
    float_of_int
      (Array.fold_left ( + ) 0 t.busy_ns + Array.fold_left ( + ) 0 t.setup_ns)
    /. (float_of_int t.workers *. float_of_int t.wall_ns)

(* Per-plan-path fault latency: the distributions are the engine's cost
   model (silent ≈ ns, differential ≈ µs, rebuild ≈ ms) and drift in any
   of them is a perf regression even when the mean hides it. *)
let m_fault_silent = Tmr_obs.Metrics.histogram "campaign.fault_ns.silent"
let m_fault_rebuild = Tmr_obs.Metrics.histogram "campaign.fault_ns.rebuild"
let m_fault_diff = Tmr_obs.Metrics.histogram "campaign.fault_ns.diff"

(* Amortised per-fault latency of the bit-parallel batch engine (batch
   wall time / lanes executed), directly comparable to fault_ns.diff. *)
let m_fault_batch = Tmr_obs.Metrics.histogram "campaign.fault_ns.batch"

(* Batch-engine accounting: lanes executed word-parallel, the lane count
   of each executed batch (occupancy — near the width when cone grouping
   packs well), and faults that planned batchable but fell back to the
   scalar engine (overlay ineligible or batch declined). *)
let m_batch_lanes = Tmr_obs.Metrics.counter "campaign.batch_lanes"
let m_batch_occupancy = Tmr_obs.Metrics.histogram "campaign.batch_occupancy"
let m_batch_scalar = Tmr_obs.Metrics.counter "campaign.batch_scalar"

(* Cycle at which a differentially-simulated fault provably converged
   back to the baseline; the distribution shows how much of the stimulus
   the early exit saves. *)
let m_converge = Tmr_obs.Metrics.histogram "campaign.diff_converge_cycle"

(* Latency-to-error distribution: at which stimulus cycle wrong-answer
   faults first disagree with the golden reference. *)
let m_first_error = Tmr_obs.Metrics.histogram "campaign.first_error_cycle"

(* In-circuit detection observability (campaigns whose design carries a
   detecting voter): the four-way verdict split, the detection latency
   distribution (cycles from first internal divergence — when forensics
   recorded one — to the first disagreement flag), and the headline SDC
   rate of the last campaign. *)
let m_det_silent_correct =
  Tmr_obs.Metrics.counter "campaign.detection.silent_correct"
let m_det_corrected =
  Tmr_obs.Metrics.counter "campaign.detection.detected_corrected"
let m_det_wrong = Tmr_obs.Metrics.counter "campaign.detection.detected_wrong"
let m_det_silent_wrong =
  Tmr_obs.Metrics.counter "campaign.detection.silent_wrong"
let m_det_latency =
  Tmr_obs.Metrics.histogram "campaign.detection.latency_cycles"
let m_sdc_rate = Tmr_obs.Metrics.gauge "campaign.detection.sdc_rate"
let m_busy = Tmr_obs.Metrics.counter "campaign.worker_busy_ns"
let m_setup = Tmr_obs.Metrics.counter "campaign.worker_setup_ns"
let m_wall = Tmr_obs.Metrics.gauge "campaign.wall_ns"
let m_util = Tmr_obs.Metrics.gauge "campaign.worker_utilization"

(* patch and reroute plans always execute differentially *)
let fault_hist = function
  | Fsim.Path_silent -> m_fault_silent
  | Fsim.Path_rebuild -> m_fault_rebuild
  | Fsim.Path_patch | Fsim.Path_reroute | Fsim.Path_diff -> m_fault_diff

let add_stats a b =
  {
    skipped = a.skipped + b.skipped;
    patched = a.patched + b.patched;
    rerouted = a.rerouted + b.rerouted;
    rebuilt = a.rebuilt + b.rebuilt;
    diffed = a.diffed + b.diffed;
    converged = a.converged + b.converged;
    batched = a.batched + b.batched;
  }

let default_workers () = max 1 (Domain.recommended_domain_count () - 1)

let golden_outputs nl stimulus =
  List.iter
    (fun (port, samples) ->
      if Array.length samples < stimulus.cycles then
        invalid_arg (Printf.sprintf "Campaign: port %S has too few samples" port))
    stimulus.inputs;
  let sim = Netsim.create nl in
  Netsim.reset sim;
  let ports = Netlist.output_ports nl in
  let record =
    List.map
      (fun (port, bits) ->
        (port, Array.make_matrix stimulus.cycles (Array.length bits) Logic.X))
      ports
  in
  for cycle = 0 to stimulus.cycles - 1 do
    List.iter
      (fun (port, samples) -> Netsim.set_input sim port samples.(cycle))
      stimulus.inputs;
    Netsim.eval sim;
    List.iter
      (fun (port, matrix) ->
        let bits = Netsim.output_bits sim port in
        Array.blit bits 0 matrix.(cycle) 0 (Array.length bits))
      record;
    Netsim.clock sim
  done;
  record

(* The DUT's physical pads for a base input port: the port itself on an
   unprotected design, or its three domain copies on a TMR design. *)
let dut_input_wires impl port =
  let mapped = impl.Impl.mapped in
  let has name = List.mem_assoc name (Netlist.input_ports mapped) in
  let port_wires name =
    let bits = Netlist.find_input_port mapped name in
    Array.init (Array.length bits) (Impl.input_pad_wire impl name)
  in
  if has port then [ port_wires port ]
  else begin
    let copies =
      List.init Tmr_core.Tmr.domains (Tmr_core.Tmr.redundant_port port)
    in
    List.iter
      (fun c ->
        if not (has c) then
          invalid_arg (Printf.sprintf "Campaign: DUT has no input port %S" c))
      copies;
    List.map port_wires copies
  end

let dut_output_wires impl port =
  let bits = Netlist.find_output_port impl.Impl.mapped port in
  Array.init (Array.length bits) (Impl.output_pad_wire impl port)

(* ------------------------------------------------------------------ *)
(* The per-design harness: everything a fault verdict is measured
   against, computed once per design and shared read-only by every
   worker. *)

type harness = {
  h_name : string;
  h_impl : Impl.t;
  h_cycles : int;
  h_inputs : (int array list * int array) list;  (* pad wire sets, samples *)
  h_outputs : (string * int array * Logic.t array array) list;
      (* pad wires and golden matrix per output port *)
  h_detects : (string * int array) list;
  h_ndetect : int;
  h_watch : int array;
  h_expected : Logic.t array array;
  h_extract : Extract.t;
  h_replay_ws : Fsim.workspace Lazy.t;
}

let harness ~name ~impl ~golden ~stimulus =
  let golden_ref =
    Tmr_obs.Trace.with_span "golden" (fun () -> golden_outputs golden stimulus)
  in
  let h_inputs =
    List.map
      (fun (port, samples) -> (dut_input_wires impl port, samples))
      stimulus.inputs
  in
  let h_outputs =
    List.map
      (fun (port, matrix) -> (port, dut_output_wires impl port, matrix))
      golden_ref
  in
  (* In-circuit detection flags: the detecting voter's pairwise
     disagreement ports, when the implemented design carries them.
     Their pad wires ride at the END of [h_watch] with an all-zero
     expectation; the engines treat the trailing [h_ndetect] watch
     entries as detection observables and keep simulating past a
     functional error until the flag verdict resolves (and vice
     versa).  Designs without detection ports get [h_ndetect = 0] and
     the historical behaviour, bit for bit. *)
  let h_detects =
    List.filter_map
      (fun port ->
        if List.mem_assoc port (Netlist.output_ports impl.Impl.mapped) then
          Some (port, dut_output_wires impl port)
        else None)
      Tmr_core.Voter.detect_ports
  in
  let h_ndetect =
    List.fold_left (fun n (_, w) -> n + Array.length w) 0 h_detects
  in
  let h_watch =
    Array.concat
      (List.map (fun (_, wires, _) -> wires) h_outputs @ List.map snd h_detects)
  in
  (* Golden output matrix flattened per cycle, in [h_watch] order: the
     differential engines' cone-aware output check indexes it by flat
     watch position. *)
  let h_expected =
    let det_zeros = Array.make h_ndetect Logic.Zero in
    Array.init stimulus.cycles (fun c ->
        Array.concat
          (List.map (fun (_, _, m) -> m.(c)) h_outputs @ [ det_zeros ]))
  in
  let dev = impl.Impl.dev in
  (* Scan the image once; workers clone the derived state ({!Extract.copy})
     instead of re-extracting 1.4M bits each. *)
  let h_extract =
    Tmr_obs.Trace.with_span "extract" (fun () ->
        Extract.create dev impl.Impl.db
          (Bitstream.copy impl.Impl.bitgen.Tmr_pnr.Bitgen.bitstream))
  in
  { h_name = name; h_impl = impl; h_cycles = stimulus.cycles; h_inputs;
    h_outputs; h_detects; h_ndetect; h_watch; h_expected; h_extract;
    h_replay_ws = lazy (Fsim.make_workspace dev) }

let golden_reference h = List.map (fun (port, _, m) -> (port, m)) h.h_outputs
let detect_ports h = List.map fst h.h_detects
let fresh_extract h = Extract.copy h.h_extract

(* Resolved physical IO of one simulator: pad-node sets per input port,
   (watch nodes, golden matrix) per output port.  Resolving once per
   simulator — not once per fault — keeps hash lookups out of the
   steady-state fault loop entirely. *)
type io = {
  io_ins : (int array list * int array) list;
  io_outs : (int array * Logic.t array array) list;
  io_dets : int array list;
      (* in-circuit detection flag nodes, one array per detect port;
         expected all-zero on the fault-free device *)
}

let resolve_io h sim =
  {
    io_ins =
      List.map
        (fun (wire_sets, samples) ->
          (List.map (Fsim.pad_nodes sim) wire_sets, samples))
        h.h_inputs;
    io_outs =
      List.map
        (fun (_, wires, matrix) -> (Fsim.watch_nodes sim wires, matrix))
        h.h_outputs;
    io_dets = List.map (fun (_, wires) -> Fsim.watch_nodes sim wires) h.h_detects;
  }

(* The one per-cycle DUT stepping loop: from reset, drive each cycle's
   stimulus, settle, and hand the cycle to [k]; clock into the next
   cycle while [k] asks to go on. *)
let step_dut h sim io k =
  Fsim.reset sim;
  let rec go c =
    if c < h.h_cycles then begin
      List.iter
        (fun (node_sets, samples) ->
          let v = samples.(c) in
          List.iter
            (fun nodes ->
              Array.iteri
                (fun i n ->
                  Fsim.set_node sim n (Logic.of_bool ((v asr i) land 1 = 1)))
                nodes)
            node_sets)
        io.io_ins;
      Fsim.eval sim;
      if k c then begin
        Fsim.clock sim;
        go (c + 1)
      end
    end
  in
  go 0

type observation = {
  ob_cycle : int;
  ob_outputs : Logic.t array list;
  ob_flags : Logic.t array list;
}

(* Run the DUT through the stimulus; return the first cycle where any
   functional output bit disagrees with the golden reference (or -1),
   the first cycle an in-circuit detection flag left zero (or -1), and
   the first disagreeing (port, bit, expected, got).  With detection
   flags present the run continues past a functional error until the
   flag verdict also resolves — detection latency is an observable, not
   a side effect of when we stopped.  An [observe]r sees every cycle, so
   the run then covers the whole stimulus. *)
let run_dut ?observe h sim io =
  let error_cycle = ref (-1) and mismatch = ref None in
  let detect_cycle = ref (-1) in
  let det_pending () = io.io_dets <> [] && !detect_cycle < 0 in
  let rec first_mismatch c outs ios =
    match (outs, ios) with
    | (port, _, _) :: outs, (nodes, matrix) :: ios ->
        let expected = matrix.(c) in
        let rec scan i =
          if i >= Array.length nodes then first_mismatch c outs ios
          else
            let got = Fsim.node_value sim nodes.(i) in
            if Logic.equal got expected.(i) then scan (i + 1)
            else Some (port, i, expected.(i), got)
        in
        scan 0
    | _ -> None
  in
  step_dut h sim io (fun c ->
      if !error_cycle < 0 then begin
        mismatch := first_mismatch c h.h_outputs io.io_outs;
        if Option.is_some !mismatch then error_cycle := c
      end;
      if det_pending () then begin
        let fired =
          List.exists
            (Array.exists (fun n1 ->
                 not (Logic.equal (Fsim.node_value sim n1) Logic.Zero)))
            io.io_dets
        in
        if fired then detect_cycle := c
      end;
      match observe with
      | None -> !error_cycle < 0 || det_pending ()
      | Some f ->
          let values nodes = Array.map (Fsim.node_value sim) nodes in
          f
            {
              ob_cycle = c;
              ob_outputs = List.map (fun (nodes, _) -> values nodes) io.io_outs;
              ob_flags = List.map values io.io_dets;
            };
          true);
  (!error_cycle, !detect_cycle, !mismatch)

let replay ?observe h ex =
  let ws = Lazy.force h.h_replay_ws in
  let sim = Fsim.build ~ws ex ~watch_outputs:h.h_watch in
  run_dut ?observe h sim (resolve_io h sim)

(* The fault-free per-cycle value of every node, for the differential
   engine: recorded once per worker, amortised over all its faults. *)
let record_tape h sim io =
  let tape = Fsim.tape_create ~nnodes:(Fsim.num_nodes sim) ~cycles:h.h_cycles in
  step_dut h sim io (fun c ->
      Fsim.tape_record tape sim ~cycle:c;
      true);
  tape

(* baseline: the un-faulted DUT must match the golden device *)
let check_baseline h sim io =
  match run_dut h sim io with
  | -1, -1, _ -> ()
  | -1, d, _ ->
      failwith
        (Printf.sprintf
           "Campaign %s: fault-free DUT raises an in-circuit detection flag \
            at cycle %d"
           h.h_name d)
  | c, _, m ->
      let port, i, expected, got = Option.get m in
      failwith
        (Printf.sprintf
           "Campaign %s: fault-free DUT disagrees with golden device at cycle \
            %d (port %S bit %d: expected %c, got %c)"
           h.h_name c port i (Logic.to_char expected) (Logic.to_char got))

(* ------------------------------------------------------------------ *)
(* One worker's simulator state and the scalar single-fault dispatch.
   Every fault that does not run in a batch lane goes through [inject],
   in campaign workers and in {!trace_fault} alike. *)

type worker = {
  w_h : harness;
  w_cone_skip : bool;
  w_fattr : Forensics.attrib option;  (* Some = forensics on *)
  w_ex : Extract.t;  (* flipped only while a fault runs *)
  w_ws : Fsim.workspace;
  w_scratch : Fsim.scratch;
  w_base : Fsim.t;
  w_cone : Fsim.cone;  (* golden cone snapshot, for the fast paths *)
  w_tape : Fsim.tape;  (* the fault-free tape differential faults replay *)
  w_base_watch : int array;
  (* separate diff scratches per plan path: patch faults run on the base
     simulator whose successor CSR is then cached across the whole
     campaign, instead of being evicted by every interleaved reroute *)
  w_dsc_patch : Fsim.dscratch;
  w_dsc_reroute : Fsim.dscratch;
  w_voter_nodes : Bytes.t;  (* voter bels of the golden cone, as nodes *)
  mutable w_stats : engine_stats;
  mutable w_converge : int;  (* last differential fault's convergence *)
}

let make_worker ~check ~cone_skip ~fattr h =
  let w_ex = fresh_extract h in
  let w_ws = Fsim.make_workspace h.h_impl.Impl.dev in
  let w_base = Fsim.build ~ws:w_ws w_ex ~watch_outputs:h.h_watch in
  let w_cone = Fsim.snapshot_cone w_ws in
  let io = resolve_io h w_base in
  if check then check_baseline h w_base io;
  let w_tape = record_tape h w_base io in
  let w_voter_nodes =
    match fattr with
    | None -> Bytes.empty
    | Some a ->
        let nb = Bytes.make (Fsim.num_nodes w_base) '\000' in
        Array.iteri
          (fun bel isv ->
            if isv then begin
              let n = Fsim.cone_node_of_bel w_cone bel in
              if n >= 0 && n < Bytes.length nb then Bytes.set nb n '\001'
            end)
          a.Forensics.bel_voter;
        nb
  in
  { w_h = h; w_cone_skip = cone_skip; w_fattr = fattr; w_ex; w_ws;
    w_scratch = Fsim.make_scratch (); w_base; w_cone; w_tape;
    w_base_watch = Array.concat (List.map fst io.io_outs @ io.io_dets);
    w_dsc_patch = Fsim.make_dscratch (); w_dsc_reroute = Fsim.make_dscratch ();
    w_voter_nodes; w_stats = no_stats; w_converge = -1 }

let bump w f = w.w_stats <- f w.w_stats

let note_converge w cv =
  w.w_converge <- cv;
  if cv >= 0 then begin
    bump w (fun s -> { s with converged = s.converged + 1 });
    Tmr_obs.Metrics.observe m_converge cv
  end

(* The forensic record: structural attribution on every plan path;
   divergence fields from the diff scratch when the fault ran
   differentially.  [masked_at_voter]: the fault corrupted cone state
   yet stayed silent, and some voter in its fanout cone never left the
   baseline — the corruption was out-voted (as opposed to logically
   masked before reaching any voter). *)
let forensic_of w bit error_cycle dsc_opt =
  match w.w_fattr with
  | None -> None
  | Some a ->
      let f = Forensics.structural a bit in
      let f =
        match dsc_opt with
        | None -> f
        | Some dsc ->
            let d = Fsim.diff_forensics dsc in
            if not d.Fsim.df_collected then f
            else begin
              let voter_nodes = w.w_voter_nodes in
              let masked =
                error_cycle < 0
                && d.Fsim.df_diverged > 0
                && Array.exists
                     (fun n ->
                       n < Bytes.length voter_nodes
                       && Bytes.get voter_nodes n <> '\000'
                       && not (Fsim.diff_node_diverged dsc n))
                     (Fsim.diff_cone dsc)
              in
              {
                f with
                Forensics.masked_at_voter = masked;
                diverged = d.Fsim.df_diverged;
                first_diverged_node = d.Fsim.df_first_node;
                diverge_cycle = d.Fsim.df_first_cycle;
                depth = d.Fsim.df_depth;
                cone_nodes = d.Fsim.df_cone;
              }
            end
      in
      Some f

let finish w ?dsc ?(detect = -1) bit error_cycle =
  if error_cycle >= 0 then Tmr_obs.Metrics.observe m_first_error error_cycle;
  {
    bit;
    outcome = (if error_cycle >= 0 then Wrong_answer else Silent);
    effect = Classify.classify w.w_h.h_impl bit;
    first_error_cycle = error_cycle;
    detect_cycle = detect;
    forensics = forensic_of w bit error_cycle dsc;
  }

(* One fault on the scalar engines.  Returns the result and the path the
   engine actually took (a failed reroute executes as a rebuild and is
   reported as one). *)
let inject w bit =
  let h = w.w_h and ex = w.w_ex and cone = w.w_cone and base = w.w_base in
  let forensics = w.w_fattr <> None in
  let plan =
    if w.w_cone_skip then Fsim.plan_fault cone ex bit else Fsim.Path_rebuild
  in
  let diff ~scratch ~sim ~seeds ~watch =
    let err, cv, det =
      Fsim.diff_run ~ndetect:h.h_ndetect ~forensics ~scratch ~tape:w.w_tape
        ~base ~sim ~seeds ~watch ~base_watch:w.w_base_watch
        ~expected:h.h_expected ()
    in
    note_converge w cv;
    (finish w ~dsc:scratch ~detect:det bit err, Fsim.Path_diff)
  in
  match plan with
  | Fsim.Path_silent ->
      bump w (fun s -> { s with skipped = s.skipped + 1 });
      (finish w bit (-1), Fsim.Path_silent)
  | Fsim.Path_diff -> assert false (* never planned *)
  | Fsim.Path_patch ->
      bump w (fun s -> { s with patched = s.patched + 1; diffed = s.diffed + 1 });
      Extract.apply_bit_flip ex bit;
      Fun.protect
        ~finally:(fun () -> Extract.apply_bit_flip ex bit)
        (fun () ->
          let seed = Fsim.patch_node cone ex bit in
          Fsim.with_patch cone base ex bit (fun sim ->
              diff ~scratch:w.w_dsc_patch ~sim ~seeds:(Fsim.Seed_node seed)
                ~watch:w.w_base_watch))
  | Fsim.Path_reroute | Fsim.Path_rebuild -> (
      Extract.apply_bit_flip ex bit;
      Fun.protect
        ~finally:(fun () -> Extract.apply_bit_flip ex bit)
        (fun () ->
          let rerouted =
            match plan with
            | Fsim.Path_reroute ->
                Fsim.reroute ~scratch:w.w_scratch cone base ex bit
            | _ -> None
          in
          match rerouted with
          | Some sim ->
              bump w (fun s ->
                  { s with rerouted = s.rerouted + 1; diffed = s.diffed + 1 });
              let watch =
                if Fsim.same_io base sim then w.w_base_watch
                else Fsim.watch_nodes sim h.h_watch
              in
              diff ~scratch:w.w_dsc_reroute ~sim ~seeds:Fsim.Seed_derived ~watch
          | None ->
              bump w (fun s -> { s with rebuilt = s.rebuilt + 1 });
              let sim = Fsim.build ~ws:w.w_ws ex ~watch_outputs:h.h_watch in
              let err, det, _ = run_dut h sim (resolve_io h sim) in
              (finish w ~detect:det bit err, Fsim.Path_rebuild)))

type trace = {
  tr_result : fault_result;
  tr_plan : Fsim.fault_path;
  tr_converge : int;
  tr_cone : int;
  tr_seeds : int;
  tr_frontier : int;
  tr_first_bel : int;
}

let trace_fault ~attrib h bit =
  let w = make_worker ~check:true ~cone_skip:true ~fattr:(Some attrib) h in
  let plan = Fsim.plan_fault w.w_cone w.w_ex bit in
  let r, path = inject w bit in
  let untraced =
    { tr_result = r; tr_plan = plan; tr_converge = -1; tr_cone = -1;
      tr_seeds = -1; tr_frontier = -1; tr_first_bel = -1 }
  in
  match (path, r.forensics) with
  | Fsim.Path_diff, Some f ->
      let d =
        Fsim.diff_forensics
          (if plan = Fsim.Path_patch then w.w_dsc_patch else w.w_dsc_reroute)
      in
      let nbels = h.h_impl.Impl.dev.Device.nbels in
      let rec bel b =
        if b >= nbels then -1
        else if Fsim.cone_node_of_bel w.w_cone b = f.Forensics.first_diverged_node
        then b
        else bel (b + 1)
      in
      { untraced with tr_converge = w.w_converge; tr_cone = d.Fsim.df_cone;
        tr_seeds = d.Fsim.df_seeds; tr_frontier = d.Fsim.df_frontier;
        tr_first_bel = bel 0 }
  | _ -> untraced

(* Sequential-stopping monitor.  Results land in arbitrary order, but the
   stopping decision must be a function of the fault *prefix* in index
   order, or the stop point would depend on scheduling.  So: a flag per
   fault, a prefix cursor advanced under a mutex one index at a time, and
   the CI test evaluated at every prefix length exactly once.  The first
   prefix length that satisfies the rule becomes the stop index — the
   same number a sequential run would compute. *)
type monitor = {
  mon_mutex : Mutex.t;
  mon_flags : Bytes.t;  (* '\000' pending, '\001' silent, '\002' wrong *)
  mutable mon_prefix : int;  (* completed prefix length *)
  mutable mon_wrong : int;  (* wrong answers within the prefix *)
  mon_stop : int Atomic.t;  (* stop index; max_int = keep going *)
  mon_rule : Tmr_obs.Stats.stop_rule;
}

let monitor_note m i wrong =
  Mutex.lock m.mon_mutex;
  Bytes.set m.mon_flags i (if wrong then '\002' else '\001');
  let total = Bytes.length m.mon_flags in
  while
    m.mon_prefix < total && Bytes.get m.mon_flags m.mon_prefix <> '\000'
  do
    if Bytes.get m.mon_flags m.mon_prefix = '\002' then
      m.mon_wrong <- m.mon_wrong + 1;
    m.mon_prefix <- m.mon_prefix + 1;
    if
      Atomic.get m.mon_stop = max_int
      && Tmr_obs.Stats.should_stop m.mon_rule ~n:m.mon_prefix ~k:m.mon_wrong
    then Atomic.set m.mon_stop m.mon_prefix
  done;
  Mutex.unlock m.mon_mutex

(* Pool work units: one fault on the scalar engine, or a batch of fault
   indices for the bit-parallel engine (at most {!Fsim_batch.width}). *)
type unit_work =
  | Single of int
  | Batch of int array

(* Structural grouping key for batch packing: faults whose fanout cones
   are likely to coincide share a key, so their union cone (what the
   batch engine actually walks) stays close to each individual cone.
   Config bits of one LUT/FF bel share that bel; routing bits share the
   destination wire of the pip they control.  Grouping is an efficiency
   heuristic only — correctness never depends on it, since the batch
   engine evaluates the union cone exactly. *)
let group_key dev db bit =
  match Bitdb.resource db bit with
  | Bitdb.Lut_bit (b, _)
  | Bitdb.Ff_init b
  | Bitdb.Out_sel b
  | Bitdb.Ce_inv b
  | Bitdb.Sr_inv b
  | Bitdb.In_inv (b, _) -> (4 * b) + 0
  | Bitdb.Pip p -> (4 * dev.Device.pip_dst.(p)) + 1
  | Bitdb.Pad_enable p | Bitdb.Pad_cfg (p, _) -> (4 * p) + 2

type detection_counts = {
  dc_silent_correct : int;
  dc_detected_corrected : int;
  dc_detected_wrong : int;
  dc_silent_wrong : int;
}

let count_verdicts results =
  Array.fold_left
    (fun acc r ->
      match verdict_of r with
      | Silent_correct -> { acc with dc_silent_correct = acc.dc_silent_correct + 1 }
      | Detected_corrected ->
          { acc with dc_detected_corrected = acc.dc_detected_corrected + 1 }
      | Detected_wrong ->
          { acc with dc_detected_wrong = acc.dc_detected_wrong + 1 }
      | Silent_wrong -> { acc with dc_silent_wrong = acc.dc_silent_wrong + 1 })
    {
      dc_silent_correct = 0;
      dc_detected_corrected = 0;
      dc_detected_wrong = 0;
      dc_silent_wrong = 0;
    }
    results

let run_body ?progress ?workers ?(cone_skip = true) ?(forensics = false)
    ?stop_at_ci ~name ~impl ~golden ~stimulus ~faults () =
  let workers =
    match workers with Some w -> max 1 w | None -> default_workers ()
  in
  (* a registered forensics sink implies collection, like tracing *)
  let forensics = forensics || Forensics.enabled () in
  (* The batch engine has no forensic instrumentation, and sequential
     stopping needs per-fault completion order; both force the scalar
     differential engine.  The rebuild oracle plans nothing to batch. *)
  let batched = cone_skip && (not forensics) && stop_at_ci = None in
  let fattr =
    if forensics then
      Some
        (Tmr_obs.Trace.with_span "forensics_attrib" (fun () ->
             Forensics.attrib_of_impl impl))
    else None
  in
  let h = harness ~name ~impl ~golden ~stimulus in
  let ndetect = h.h_ndetect in
  let dev = impl.Impl.dev and db = impl.Impl.db in
  let total = Array.length faults in
  let dummy =
    { bit = -1; outcome = Silent; effect = Classify.Other_effect;
      first_error_cycle = -1; detect_cycle = -1; forensics = None }
  in
  let results = Array.make total dummy in
  (* Batch schedule: one planning pass over the (un-flipped) golden
     extract classifies every fault; patch- and reroute-planned faults
     group by {!group_key} and pack, in first-index order, into batches
     of at most {!Fsim_batch.width} lanes.  Silent and rebuild faults —
     and everything when batching is off — stay scalar singles.  The
     schedule only affects which engine runs each fault, never its
     verdict, so results are independent of it. *)
  let units =
    if not batched then Array.init total (fun i -> Single i)
    else
      Tmr_obs.Trace.with_span "batch_plan" (fun () ->
          let pex = fresh_extract h in
          let pws = Fsim.make_workspace dev in
          let _psim = Fsim.build ~ws:pws pex ~watch_outputs:h.h_watch in
          let pcone = Fsim.snapshot_cone pws in
          let groups : (int, int list ref) Hashtbl.t = Hashtbl.create 1024 in
          let order = ref [] in
          let singles = ref [] in
          for i = 0 to total - 1 do
            match Fsim.plan_fault pcone pex faults.(i) with
            | Fsim.Path_patch | Fsim.Path_reroute ->
                let k = group_key dev db faults.(i) in
                (match Hashtbl.find_opt groups k with
                | Some g -> g := i :: !g
                | None ->
                    Hashtbl.add groups k (ref [ i ]);
                    order := k :: !order)
            | _ -> singles := i :: !singles
          done;
          let units = ref [] in
          let buf = Array.make Fsim_batch.width 0 in
          let nbuf = ref 0 in
          let flush () =
            if !nbuf = 1 then units := Single buf.(0) :: !units
            else if !nbuf > 1 then
              units := Batch (Array.sub buf 0 !nbuf) :: !units;
            nbuf := 0
          in
          (* pack neighbouring keys together: bel and wire indices are
             spatially local, so adjacent keys drive overlapping fanout
             cones and the batch engine walks a tighter union cone *)
          List.iter
            (fun k ->
              List.iter
                (fun i ->
                  buf.(!nbuf) <- i;
                  incr nbuf;
                  if !nbuf = Fsim_batch.width then flush ())
                (List.rev !(Hashtbl.find groups k)))
            (List.sort compare !order);
          flush ();
          List.iter (fun i -> units := Single i :: !units) !singles;
          Array.of_list (List.rev !units))
  in
  (* fault-level completion count for the progress line — the pool only
     counts units, whose sizes vary from 1 to {!Fsim_batch.width} faults *)
  let faults_done = Atomic.make 0 in
  let monitor =
    Option.map
      (fun rule ->
        {
          mon_mutex = Mutex.create ();
          mon_flags = Bytes.make total '\000';
          mon_prefix = 0;
          mon_wrong = 0;
          mon_stop = Atomic.make max_int;
          mon_rule = rule;
        })
      stop_at_ci
  in
  (* running wrong-answer count for the live progress line; display-only,
     so a moment of slack against [completed] is fine *)
  let wrong_live = Atomic.make 0 in
  (* publish one verdict: result slot, live counters, CI monitor *)
  let store i r =
    results.(i) <- r;
    let is_wrong = r.outcome = Wrong_answer in
    if is_wrong then ignore (Atomic.fetch_and_add wrong_live 1);
    ignore (Atomic.fetch_and_add faults_done 1);
    Option.iter (fun m -> monitor_note m i is_wrong) monitor
  in
  (* per-worker simulator state, injection and setup time; each cell is
     written by its owner only, and Domain.join publishes it to the
     caller *)
  let states = Array.make workers None in
  let busy_ns = Array.make workers 0 in
  let setup_ns = Array.make workers 0 in
  let worker wid =
    let t_setup = Tmr_obs.Clock.now_ns () in
    let w = make_worker ~check:(wid = 0) ~cone_skip ~fattr h in
    states.(wid) <- Some w;
    let ex = w.w_ex and cone = w.w_cone and base = w.w_base in
    let do_fault i =
      let bit = faults.(i) in
      let t0 = Tmr_obs.Clock.now_ns () in
      let r, path = inject w bit in
      let dt = Tmr_obs.Clock.now_ns () - t0 in
      busy_ns.(wid) <- busy_ns.(wid) + dt;
      Tmr_obs.Metrics.observe (fault_hist path) dt;
      if Tmr_obs.Trace.enabled () then
        Tmr_obs.Trace.emit_complete
          ~args:
            [ ("bit", string_of_int bit); ("path", Fsim.path_name path) ]
          ~name:"fault" ~start_ns:t0 ~dur_ns:dt ();
      store i r
    in
    let batcher = if batched then Some (Fsim_batch.create base cone) else None in
    (* One batch: derive each lane's structural overlay against the base
       simulator (the extract is flipped only while the delta is taken),
       run every derivable lane word-parallel, and fan the per-lane
       verdicts back out as ordinary scalar-shaped results.  Lanes with
       no derivable overlay — and the whole batch when the union cone is
       ineligible — fall back to the scalar engine fault by fault. *)
    let do_batch idxs =
      match batcher with
      | Some bt ->
          let t0 = Tmr_obs.Clock.now_ns () in
          let succ_off, succ = Fsim_batch.csr bt in
          let bel_of = Fsim_batch.bel_of bt in
          let n = Array.length idxs in
          let deltas = Array.make n None in
          for j = 0 to n - 1 do
            let bit = faults.(idxs.(j)) in
            match Fsim.plan_fault cone ex bit with
            | (Fsim.Path_patch | Fsim.Path_reroute) as plan ->
                Extract.apply_bit_flip ex bit;
                Fun.protect
                  ~finally:(fun () -> Extract.apply_bit_flip ex bit)
                  (fun () ->
                    let d =
                      match plan with
                      | Fsim.Path_patch -> Some (Fsim.patch_delta cone ex bit)
                      | _ ->
                          Fsim.fault_delta ~scratch:w.w_scratch cone base ex bit
                            ~succ_off ~succ ~bel_of
                    in
                    match d with
                    | Some d -> deltas.(j) <- Some (plan, d)
                    | None -> ())
            | _ -> ()
          done;
          let lane_js =
            Array.of_seq
              (Seq.filter (fun j -> deltas.(j) <> None) (Seq.init n Fun.id))
          in
          let lanes =
            Array.map (fun j -> snd (Option.get deltas.(j))) lane_js
          in
          let verdicts =
            if Array.length lanes = 0 then None
            else
              Fsim_batch.run bt ~ndetect ~tape:w.w_tape ~expected:h.h_expected
                ~watch:w.w_base_watch ~lanes ()
          in
          (match verdicts with
          | Some vs ->
              let dt = Tmr_obs.Clock.now_ns () - t0 in
              busy_ns.(wid) <- busy_ns.(wid) + dt;
              let nl =
                Array.fold_left
                  (fun acc v -> if v <> None then acc + 1 else acc)
                  0 vs
              in
              if nl > 0 then begin
                Tmr_obs.Metrics.incr ~by:nl m_batch_lanes;
                Tmr_obs.Metrics.observe m_batch_occupancy nl;
                if Tmr_obs.Events.enabled () then
                  Tmr_obs.Events.publish
                    (Tmr_obs.Events.Batch_dispatched { design = name; lanes = nl });
                if Tmr_obs.Trace.enabled () then
                  Tmr_obs.Trace.emit_complete
                    ~args:[ ("lanes", string_of_int nl) ]
                    ~name:"batch" ~start_ns:t0 ~dur_ns:dt ()
              end;
              let per = dt / max 1 nl in
              (* each consumer-visible fault still gets its own trace
                 span: the batch interval is sliced into [nl] adjacent
                 child spans, so per-fault spans nest inside "batch"
                 and tooling that counts faults keeps working *)
              let ks = ref 0 in
              Array.iteri
                (fun k j ->
                  match vs.(k) with
                  | None ->
                      (* lane declined (its rewiring closed a
                         combinational loop): scalar fallback *)
                      deltas.(j) <- None
                  | Some v ->
                      let i = idxs.(j) in
                      let plan, _ = Option.get deltas.(j) in
                      bump w (fun s ->
                          let s =
                            match plan with
                            | Fsim.Path_patch ->
                                { s with patched = s.patched + 1 }
                            | _ -> { s with rerouted = s.rerouted + 1 }
                          in
                          {
                            s with
                            diffed = s.diffed + 1;
                            batched = s.batched + 1;
                          });
                      note_converge w v.Fsim_batch.bv_converge_cycle;
                      Tmr_obs.Metrics.observe m_fault_batch per;
                      if Tmr_obs.Trace.enabled () then begin
                        Tmr_obs.Trace.emit_complete
                          ~args:
                            [
                              ("bit", string_of_int faults.(i));
                              ("path", Fsim.path_name Fsim.Path_diff);
                            ]
                          ~name:"fault"
                          ~start_ns:(t0 + (!ks * per))
                          ~dur_ns:per ();
                        incr ks
                      end;
                      store i
                        (finish w ~detect:v.Fsim_batch.bv_detect_cycle
                           faults.(i) v.Fsim_batch.bv_error_cycle))
                lane_js;
              for j = 0 to n - 1 do
                if deltas.(j) = None then begin
                  Tmr_obs.Metrics.incr m_batch_scalar;
                  do_fault idxs.(j)
                end
              done
          | None ->
              (* union cone ineligible (cyclic SCC / overlay cycle):
                 every lane runs scalar; the verdicts are identical
                 either way, only slower *)
              busy_ns.(wid) <- busy_ns.(wid) + (Tmr_obs.Clock.now_ns () - t0);
              Tmr_obs.Metrics.incr ~by:n m_batch_scalar;
              Array.iter do_fault idxs)
      | None -> Array.iter do_fault idxs
    in
    setup_ns.(wid) <- Tmr_obs.Clock.now_ns () - t_setup;
    fun u ->
      match units.(u) with
      | Single i -> do_fault i
      | Batch idxs -> do_batch idxs
  in
  (* Snapshot the event-bus state once: a sink installed mid-run would
     otherwise see a campaign with no start event. *)
  let emit_events = Tmr_obs.Events.enabled () in
  let pool_progress =
    if Option.is_none progress && not emit_events then None
    else
      Some
        (fun _completed _total ->
          let completed = Atomic.get faults_done in
          let wrong = Atomic.get wrong_live in
          if emit_events then
            Tmr_obs.Events.publish
              (Tmr_obs.Events.Campaign_progress
                 { design = name; completed; total; wrong });
          match progress with
          | Some f ->
              f { p_completed = completed; p_total = total; p_wrong = wrong }
          | None -> ())
  in
  let should_stop =
    Option.map
      (fun m () -> Atomic.get m.mon_stop < max_int)
      monitor
  in
  if emit_events then
    Tmr_obs.Events.publish
      (Tmr_obs.Events.Campaign_started
         { design = name; faults = total; workers });
  let t_start = Tmr_obs.Clock.now_ns () in
  Tmr_obs.Trace.with_span
    ~args:
      [
        ("design", name);
        ("workers", string_of_int workers);
        ("faults", string_of_int total);
      ]
    "campaign"
    (fun () ->
      Pool.run ?progress:pool_progress ?should_stop ~workers
        ~total:(Array.length units) worker);
  let wall_ns = Tmr_obs.Clock.now_ns () - t_start in
  let busy_total = Array.fold_left ( + ) 0 busy_ns in
  let setup_total = Array.fold_left ( + ) 0 setup_ns in
  Tmr_obs.Metrics.incr ~by:busy_total m_busy;
  Tmr_obs.Metrics.incr ~by:setup_total m_setup;
  Tmr_obs.Metrics.set m_wall (float_of_int wall_ns);
  Tmr_obs.Metrics.set m_util
    (if wall_ns > 0 then
       float_of_int (busy_total + setup_total)
       /. (float_of_int workers *. float_of_int wall_ns)
     else 0.0);
  let stats =
    Array.fold_left
      (fun acc -> function Some w -> add_stats acc w.w_stats | None -> acc)
      no_stats states
  in
  (* CI stop: keep exactly the prefix that triggered the rule.  Chunks in
     flight at the stop may have completed faults past the index (that
     work shows in [stats]/[busy_ns]), but the kept results are the
     index-order prefix — bit-identical to a full campaign truncated at
     the same point, whatever the scheduling. *)
  let effective =
    match monitor with
    | Some m when Atomic.get m.mon_stop < max_int -> Atomic.get m.mon_stop
    | _ -> total
  in
  let results =
    if effective < total then Array.sub results 0 effective else results
  in
  let wrong =
    Array.fold_left
      (fun acc r -> if r.outcome = Wrong_answer then acc + 1 else acc)
      0 results
  in
  (* Verdict accounting over the kept prefix, aggregated post-hoc in the
     main thread: deterministic for a fixed fault list (workers racing
     atomic counters past a CI stop would overcount), and only on
     designs that actually carry detection logic.  Detection latency is
     measured from the fault's first recorded internal divergence (the
     forensic provenance) when available, else from injection. *)
  if ndetect > 0 then begin
    let d = count_verdicts results in
    Array.iter
      (fun r ->
        if r.detect_cycle >= 0 then begin
          let from =
            match r.forensics with
            | Some f when f.Forensics.diverge_cycle >= 0 ->
                f.Forensics.diverge_cycle
            | _ -> 0
          in
          Tmr_obs.Metrics.observe m_det_latency (r.detect_cycle - from)
        end)
      results;
    Tmr_obs.Metrics.incr ~by:d.dc_silent_correct m_det_silent_correct;
    Tmr_obs.Metrics.incr ~by:d.dc_detected_corrected m_det_corrected;
    Tmr_obs.Metrics.incr ~by:d.dc_detected_wrong m_det_wrong;
    Tmr_obs.Metrics.incr ~by:d.dc_silent_wrong m_det_silent_wrong;
    Tmr_obs.Metrics.set m_sdc_rate
      (if effective > 0 then
         float_of_int d.dc_silent_wrong /. float_of_int effective
       else 0.0);
    if emit_events then
      Tmr_obs.Events.publish
        (Tmr_obs.Events.Campaign_detection
           {
             design = name;
             silent_correct = d.dc_silent_correct;
             detected_corrected = d.dc_detected_corrected;
             detected_wrong = d.dc_detected_wrong;
             silent_wrong = d.dc_silent_wrong;
           })
  end;
  if emit_events then begin
    Tmr_obs.Events.publish
      (Tmr_obs.Events.Plan_paths
         {
           design = name;
           silent = stats.skipped;
           patched = stats.patched;
           rerouted = stats.rerouted;
           rebuilt = stats.rebuilt;
           diffed = stats.diffed;
           converged = stats.converged;
           batched = stats.batched;
         });
    Tmr_obs.Events.publish
      (Tmr_obs.Events.Campaign_stopped
         { design = name; requested = total; injected = effective; wrong; wall_ns })
  end;
  (* stream the forensic records post-hoc in fault-index order: workers
     never write the sink, so the file is deterministic for a fixed
     fault list regardless of worker count or scheduling *)
  (match fattr with
  | Some a when Forensics.enabled () ->
      Array.iter
        (fun r ->
          match r.forensics with
          | Some f ->
              Forensics.emit ~design:name ~bit:r.bit
                ~effect:(Classify.name r.effect)
                ~wrong:(r.outcome = Wrong_answer)
                ~first_error_cycle:r.first_error_cycle a f
          | None -> ())
        results
  | _ -> ());
  { design = name; requested = total; injected = effective; wrong; results;
    workers; stats; wall_ns; busy_ns; setup_ns }

(* Liveness gauge for the /healthz endpoint: campaigns currently inside
   {!run} in this process.  Forked shard workers keep their own count —
   the probe answers for the process that serves the scrape. *)
let active = Atomic.make 0
let active_campaigns () = Atomic.get active

let run ?progress ?workers ?cone_skip ?forensics ?stop_at_ci ~name ~impl
    ~golden ~stimulus ~faults () =
  Atomic.incr active;
  Fun.protect
    ~finally:(fun () -> Atomic.decr active)
    (fun () ->
      run_body ?progress ?workers ?cone_skip ?forensics ?stop_at_ci ~name ~impl
        ~golden ~stimulus ~faults ())

let wrong_percent t =
  if t.injected = 0 then 0.0
  else 100.0 *. float_of_int t.wrong /. float_of_int t.injected

let ci ?confidence t =
  Tmr_obs.Stats.wilson ?confidence ~n:t.injected ~k:t.wrong ()

let wrong_by_effect t eff =
  Array.fold_left
    (fun acc r -> if r.effect = eff && r.outcome = Wrong_answer then acc + 1 else acc)
    0 t.results

(* ------------------------------------------------------------------ *)
(* Detection taxonomy aggregation. *)

let detection_counts t = count_verdicts t.results

let sdc_percent t =
  if t.injected = 0 then 0.0
  else
    100.0
    *. float_of_int (detection_counts t).dc_silent_wrong
    /. float_of_int t.injected

let detected_percent t =
  if t.injected = 0 then 0.0
  else
    let d = detection_counts t in
    100.0
    *. float_of_int (d.dc_detected_corrected + d.dc_detected_wrong)
    /. float_of_int t.injected

(* ------------------------------------------------------------------ *)
(* Forensic aggregation: the per-design numbers that explain Table 2's
   ordering — how many faults straddle redundancy domains, and how often
   the vote (rather than plain logic masking) absorbed a real upset. *)

type forensic_summary = {
  fs_faults : int;  (* faults carrying a forensic record *)
  fs_cross : int;  (* cross-domain faults *)
  fs_cross_wrong : int;  (* cross-domain among wrong answers *)
  fs_multi_part : int;  (* faults touching >= 2 voter partitions *)
  fs_voter_touch : int;  (* faults touching voter logic or voter nets *)
  fs_diverged : int;  (* faults with observed internal divergence *)
  fs_silent_diverged : int;  (* diverged yet silent *)
  fs_voter_masked : int;  (* silent-diverged absorbed at a voter *)
}

let forensic_summary t =
  let s =
    Array.fold_left
      (fun acc r ->
        match r.forensics with
        | None -> acc
        | Some f ->
            let wrong = r.outcome = Wrong_answer in
            {
              fs_faults = acc.fs_faults + 1;
              fs_cross = (acc.fs_cross + if f.Forensics.cross_domain then 1 else 0);
              fs_cross_wrong =
                (acc.fs_cross_wrong
                + if wrong && f.Forensics.cross_domain then 1 else 0);
              fs_multi_part =
                (acc.fs_multi_part
                + if Array.length f.Forensics.partitions >= 2 then 1 else 0);
              fs_voter_touch =
                (acc.fs_voter_touch + if f.Forensics.voter_touch then 1 else 0);
              fs_diverged =
                (acc.fs_diverged + if f.Forensics.diverged > 0 then 1 else 0);
              fs_silent_diverged =
                (acc.fs_silent_diverged
                + if (not wrong) && f.Forensics.diverged > 0 then 1 else 0);
              fs_voter_masked =
                (acc.fs_voter_masked
                + if f.Forensics.masked_at_voter then 1 else 0);
            })
      {
        fs_faults = 0;
        fs_cross = 0;
        fs_cross_wrong = 0;
        fs_multi_part = 0;
        fs_voter_touch = 0;
        fs_diverged = 0;
        fs_silent_diverged = 0;
        fs_voter_masked = 0;
      }
      t.results
  in
  if s.fs_faults = 0 then None else Some s

(* ------------------------------------------------------------------ *)
(* Machine-readable engine summary (tmrtool inject --json). *)

let summary_json ?(confidence = 0.95) t =
  let b = Buffer.create 512 in
  let i = ci ~confidence t in
  Buffer.add_string b
    (Printf.sprintf
       "{\"design\":\"%s\",\"requested\":%d,\"injected\":%d,\"wrong\":%d,\"wrong_percent\":%.4f,\"ci\":{\"confidence\":%g,\"lo\":%.6f,\"hi\":%.6f},\"workers\":%d,\"wall_ns\":%d,\"utilization\":%.4f,\"inject_utilization\":%.4f"
       (Tmr_obs.Jsonl.escape t.design)
       t.requested t.injected t.wrong (wrong_percent t) confidence
       i.Tmr_obs.Stats.lo
       i.Tmr_obs.Stats.hi t.workers t.wall_ns (utilization t)
       (inject_utilization t));
  Buffer.add_string b
    (Printf.sprintf
       ",\"plan_paths\":{\"silent\":%d,\"patched\":%d,\"rerouted\":%d,\"rebuilt\":%d,\"diffed\":%d,\"converged\":%d,\"batched\":%d}"
       t.stats.skipped t.stats.patched t.stats.rerouted t.stats.rebuilt
       t.stats.diffed t.stats.converged t.stats.batched);
  (* wrong answers per structural effect class, Table 4 row order *)
  Buffer.add_string b ",\"wrong_by_effect\":{";
  List.iteri
    (fun i e ->
      let n = wrong_by_effect t e in
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf "\"%s\":%d" (Tmr_obs.Jsonl.escape (Classify.name e)) n))
    Classify.all;
  Buffer.add_char b '}';
  (* the four-way detected-vs-silent verdict split; the four counts
     always sum to [injected] *)
  (let d = detection_counts t in
   Buffer.add_string b
     (Printf.sprintf
        ",\"detection\":{\"silent_correct\":%d,\"detected_corrected\":%d,\"detected_wrong\":%d,\"silent_wrong\":%d,\"sdc_percent\":%.4f,\"detected_percent\":%.4f}"
        d.dc_silent_correct d.dc_detected_corrected d.dc_detected_wrong
        d.dc_silent_wrong (sdc_percent t) (detected_percent t)));
  (match forensic_summary t with
  | None -> Buffer.add_string b ",\"forensics\":null"
  | Some s ->
      Buffer.add_string b
        (Printf.sprintf
           ",\"forensics\":{\"faults\":%d,\"cross_domain\":%d,\"cross_domain_wrong\":%d,\"multi_partition\":%d,\"voter_touch\":%d,\"diverged\":%d,\"silent_diverged\":%d,\"voter_masked\":%d}"
           s.fs_faults s.fs_cross s.fs_cross_wrong s.fs_multi_part
           s.fs_voter_touch s.fs_diverged s.fs_silent_diverged
           s.fs_voter_masked));
  Buffer.add_char b '}';
  Buffer.contents b
