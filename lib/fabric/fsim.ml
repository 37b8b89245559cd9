module Logic = Tmr_logic.Logic
module Device = Tmr_arch.Device
module Bitdb = Tmr_arch.Bitdb

(* Node kinds, encoded for tight loops. *)
let k_constx = 0
let k_pad = 1
let k_bel_comb = 2
let k_bel_reg = 3
let k_resolve = 4

(* Node 0 is always the constant-X node (first allocation in [build]). *)
let x_node_id = 0

(* Scratch arrays for the SCC pass, reused across invocations so the
   per-fault path stays allocation-free (minor-GC barriers are
   stop-the-world across every domain). *)
type scc_scratch = {
  mutable sc_cap : int;  (* node capacity of the arrays below *)
  mutable sc_index : int array;
  mutable sc_low : int array;
  mutable sc_onstack : Bytes.t;
  mutable sc_sstack : int array;  (* Tarjan value stack *)
  mutable sc_cnode : int array;  (* DFS call stack: node *)
  mutable sc_ci : int array;  (* DFS call stack: next child index *)
  mutable sc_off : int array;  (* nsccs+1 offsets into sc_nodes *)
  mutable sc_nodes : int array;  (* SCC members, evaluation order *)
  mutable sc_cyclic : Bytes.t;  (* per SCC: '\001' when cyclic *)
}

let make_scc_scratch () =
  {
    sc_cap = 0;
    sc_index = [||];
    sc_low = [||];
    sc_onstack = Bytes.empty;
    sc_sstack = [||];
    sc_cnode = [||];
    sc_ci = [||];
    sc_off = [||];
    sc_nodes = [||];
    sc_cyclic = Bytes.empty;
  }

let scc_ensure s n =
  if s.sc_cap < n then begin
    let cap = max n (max 256 (2 * s.sc_cap)) in
    s.sc_cap <- cap;
    s.sc_index <- Array.make cap 0;
    s.sc_low <- Array.make cap 0;
    s.sc_onstack <- Bytes.make cap '\000';
    s.sc_sstack <- Array.make cap 0;
    s.sc_cnode <- Array.make cap 0;
    s.sc_ci <- Array.make cap 0;
    s.sc_off <- Array.make (cap + 1) 0;
    s.sc_nodes <- Array.make cap 0;
    s.sc_cyclic <- Bytes.make cap '\000'
  end

type workspace = {
  ws_dev : Device.t;
  mutable epoch : int;
  wire_mark : int array;  (* cone membership stamp *)
  bel_mark : int array;
  res_stamp : int array;  (* wire -> epoch of res_node validity *)
  res_node : int array;  (* wire -> node id *)
  ing_stamp : int array;  (* wire -> epoch when in-progress *)
  bel_node_stamp : int array;
  bel_node_id : int array;
  ws_scc : scc_scratch;
}

let make_workspace dev =
  {
    ws_dev = dev;
    epoch = 0;
    wire_mark = Array.make dev.Device.nwires 0;
    bel_mark = Array.make dev.Device.nbels 0;
    res_stamp = Array.make dev.Device.nwires 0;
    res_node = Array.make dev.Device.nwires 0;
    ing_stamp = Array.make dev.Device.nwires 0;
    bel_node_stamp = Array.make dev.Device.nbels 0;
    bel_node_id = Array.make dev.Device.nbels 0;
    ws_scc = make_scc_scratch ();
  }

type t = {
  nnodes : int;
  kind : int array;
  inputs : int array array;  (* resolve inputs; bel pin nodes (len 4, -1 unused) *)
  res_wires : int array array;
      (* resolve nodes: the driver wire behind each input — lets a fault
         re-derive the inputs when routing changes upstream *)
  table : int array;  (* bel nodes: LUT table *)
  inv : int array;  (* bel nodes: pin inversion mask *)
  ce_frozen : bool array;  (* bel nodes: clock-enable inverted *)
  q_init : Logic.t array;
  q : Logic.t array;
  values : Logic.t array;
  last : Logic.t array;
      (* settled value of each node at the end of the previous cycle; used
         by the drive-conflict glitch rule on shorted nodes *)
  nsccs : int;
  scc_off : int array;  (* nsccs+1 offsets into scc_nodes (may have slack) *)
  scc_nodes : int array;  (* flat SCC members, evaluation order *)
  scc_cyclic : Bytes.t;  (* per SCC *)
  reg_nodes : int array;  (* node ids with kind = k_bel_reg, ascending *)
  pad_node : (int, int) Hashtbl.t;  (* PadIn wire -> node *)
  watch_node : (int, int) Hashtbl.t;  (* PadOut wire -> node *)
  has_loop : bool;
}

(* The registered-bel index: [clock] used to scan every node testing
   [kind = k_bel_reg] each cycle; the membership is fixed at build time
   (only an Out_sel fault moves it, handled by [reroute]). *)
let collect_reg_nodes kind n =
  let c = ref 0 in
  for node = 0 to n - 1 do
    if kind.(node) = k_bel_reg then incr c
  done;
  let regs = Array.make !c 0 in
  let i = ref 0 in
  for node = 0 to n - 1 do
    if kind.(node) = k_bel_reg then begin
      regs.(!i) <- node;
      incr i
    end
  done;
  regs

let support_mask table =
  let m = ref 0 in
  for j = 0 to 3 do
    let differs = ref false in
    for idx = 0 to 15 do
      if (table lsr idx) land 1 <> (table lsr (idx lxor (1 lsl j))) land 1 then
        differs := true
    done;
    if !differs then m := !m lor (1 lsl j)
  done;
  !m

(* Growable node store. *)
type builder = {
  mutable n : int;
  mutable b_kind : int array;
  mutable b_table : int array;
  mutable b_inv : int array;
  mutable b_ce : bool array;
  mutable b_qi : Logic.t array;
}

let builder_create () =
  {
    n = 0;
    b_kind = Array.make 256 0;
    b_table = Array.make 256 0;
    b_inv = Array.make 256 0;
    b_ce = Array.make 256 false;
    b_qi = Array.make 256 Logic.X;
  }

let builder_alloc b k ~table ~inv ~ce ~qi =
  if b.n >= Array.length b.b_kind then begin
    let grow a fill = Array.append a (Array.make (Array.length a) fill) in
    b.b_kind <- grow b.b_kind 0;
    b.b_table <- grow b.b_table 0;
    b.b_inv <- grow b.b_inv 0;
    b.b_ce <- grow b.b_ce false;
    b.b_qi <- grow b.b_qi Logic.X
  end;
  let id = b.n in
  b.b_kind.(id) <- k;
  b.b_table.(id) <- table;
  b.b_inv.(id) <- inv;
  b.b_ce.(id) <- ce;
  b.b_qi.(id) <- qi;
  b.n <- id + 1;
  id

(* SCC decomposition of the combinational graph (iterative Tarjan).
   Combinational dependencies: resolve -> inputs; comb bel -> pins.
   Registered bels, pads and constants are sources.  Tarjan emits an SCC
   only after everything it depends on has been emitted, so the emission
   order written to [sc_nodes] is already inputs-first.  Works entirely in
   [scratch]; returns [(nsccs, has_loop)]. *)
let rec self_dep deps node i =
  i < Array.length deps && (deps.(i) = node || self_dep deps node (i + 1))

let compute_sccs ~scratch:s ~nnodes:n ~kind ~inputs =
  scc_ensure s n;
  let index = s.sc_index and low = s.sc_low and onstack = s.sc_onstack in
  Array.fill index 0 n (-1);
  Bytes.fill onstack 0 n '\000';
  let dep node =
    let k = kind.(node) in
    if k = k_resolve || k = k_bel_comb then inputs.(node) else [||]
  in
  let counter = ref 0 in
  let sp = ref 0 in (* Tarjan value stack top *)
  let nsccs = ref 0 in
  let out = ref 0 in (* write position in sc_nodes *)
  let has_loop = ref false in
  for root = 0 to n - 1 do
    if index.(root) < 0 then begin
      let csp = ref 0 in
      let push v =
        index.(v) <- !counter;
        low.(v) <- !counter;
        incr counter;
        s.sc_sstack.(!sp) <- v;
        incr sp;
        Bytes.set onstack v '\001';
        s.sc_cnode.(!csp) <- v;
        s.sc_ci.(!csp) <- 0;
        incr csp
      in
      push root;
      while !csp > 0 do
        let node = s.sc_cnode.(!csp - 1) in
        let i = s.sc_ci.(!csp - 1) in
        let deps = dep node in
        if i < Array.length deps then begin
          s.sc_ci.(!csp - 1) <- i + 1;
          let child = deps.(i) in
          if child >= 0 then begin
            if index.(child) < 0 then push child
            else if Bytes.get onstack child <> '\000' then
              low.(node) <- min low.(node) index.(child)
          end
        end
        else begin
          decr csp;
          if !csp > 0 then begin
            let parent = s.sc_cnode.(!csp - 1) in
            low.(parent) <- min low.(parent) low.(node)
          end;
          if low.(node) = index.(node) then begin
            let start = !out in
            let continue = ref true in
            while !continue do
              decr sp;
              let w = s.sc_sstack.(!sp) in
              Bytes.set onstack w '\000';
              s.sc_nodes.(!out) <- w;
              incr out;
              if w = node then continue := false
            done;
            let cyc =
              !out - start > 1
              || self_dep (dep s.sc_nodes.(start)) s.sc_nodes.(start) 0
            in
            s.sc_off.(!nsccs) <- start;
            Bytes.set s.sc_cyclic !nsccs (if cyc then '\001' else '\000');
            if cyc then has_loop := true;
            incr nsccs
          end
        end
      done
    end
  done;
  s.sc_off.(!nsccs) <- !out;
  (!nsccs, !has_loop)

let build ?ws ex ~watch_outputs =
  let dev = Extract.device ex in
  let ws =
    match ws with
    | Some w ->
        if w.ws_dev != dev then
          invalid_arg "Fsim.build: workspace built for another device";
        w
    | None -> make_workspace dev
  in
  ws.epoch <- ws.epoch + 1;
  let ep = ws.epoch in
  (* ---- Phase 1: collect the observable cone (wires and bels) ---- *)
  let bel_list = ref [] in
  let stack = ref [] in
  let push_wire w =
    if ws.wire_mark.(w) <> ep then begin
      ws.wire_mark.(w) <- ep;
      stack := w :: !stack
    end
  in
  Array.iter push_wire watch_outputs;
  let visit_bel b =
    if ws.bel_mark.(b) <> ep then begin
      ws.bel_mark.(b) <- ep;
      let mask = support_mask (Extract.lut_table ex b) in
      bel_list := (b, mask) :: !bel_list;
      Array.iteri
        (fun j pinw -> if (mask lsr j) land 1 = 1 then push_wire pinw)
        dev.Device.bel_in.(b)
    end
  in
  let rec drain () =
    match !stack with
    | [] -> ()
    | w :: rest ->
        stack := rest;
        (match dev.Device.wkind.(w) with
        | Device.BelOut -> visit_bel dev.Device.wire_bel.(w)
        | Device.PadIn -> ()
        | Device.HSingle | Device.VSingle | Device.HDouble | Device.VDouble
        | Device.HLong | Device.VLong | Device.BelIn | Device.PadOut ->
            List.iter push_wire (Extract.drivers ex w);
            List.iter push_wire (Extract.links ex w));
        drain ()
  in
  drain ();
  (* ---- Phase 2: allocate nodes ---- *)
  let bld = builder_create () in
  let alloc = builder_alloc bld in
  let x_node = alloc k_constx ~table:0 ~inv:0 ~ce:false ~qi:Logic.X in
  List.iter
    (fun (b, _mask) ->
      let registered = Extract.out_sel ex b in
      let id =
        alloc
          (if registered then k_bel_reg else k_bel_comb)
          ~table:(Extract.lut_table ex b)
          ~inv:(Extract.in_inv_mask ex b)
          ~ce:(Extract.ce_inv ex b)
          ~qi:(Extract.ff_init ex b)
      in
      ws.bel_node_stamp.(b) <- ep;
      ws.bel_node_id.(b) <- id)
    !bel_list;
  let pad_node = Hashtbl.create 64 in
  let resolve_inputs = Hashtbl.create 64 in
  let resolve_wires = Hashtbl.create 64 in
  let set_resolved w n =
    ws.res_stamp.(w) <- ep;
    ws.res_node.(w) <- n
  in
  let rec wire_node w =
    if ws.res_stamp.(w) = ep then ws.res_node.(w)
    else if ws.ing_stamp.(w) = ep then x_node (* pure driver loop: floats *)
    else begin
      match dev.Device.wkind.(w) with
      | Device.PadIn ->
          let pad = dev.Device.wire_pad.(w) in
          let n =
            if Extract.pad_enabled ex pad then begin
              match Hashtbl.find_opt pad_node w with
              | Some n -> n
              | None ->
                  let n = alloc k_pad ~table:0 ~inv:0 ~ce:false ~qi:Logic.X in
                  Hashtbl.add pad_node w n;
                  n
            end
            else x_node
          in
          set_resolved w n;
          n
      | Device.BelOut ->
          let b = dev.Device.wire_bel.(w) in
          let n =
            if ws.bel_node_stamp.(b) = ep then ws.bel_node_id.(b)
            else x_node (* outside the collected cone *)
          in
          set_resolved w n;
          n
      | Device.HSingle | Device.VSingle | Device.HDouble | Device.VDouble
      | Device.HLong | Device.VLong | Device.BelIn | Device.PadOut ->
          (* The electrical node is the whole component of wires shorted
             together by ON pass pips; its drivers are every buffered
             driver of any member. *)
          let members = ref [] in
          let rec collect u =
            if ws.ing_stamp.(u) <> ep then begin
              ws.ing_stamp.(u) <- ep;
              members := u :: !members;
              List.iter collect (Extract.links ex u)
            end
          in
          collect w;
          let members = !members in
          let drvs = List.concat_map (fun u -> Extract.drivers ex u) members in
          let finish n =
            List.iter (fun u -> set_resolved u n) members;
            n
          in
          (match drvs with
          | [] -> finish x_node
          | [ u ] ->
              let n = wire_node u in
              finish n
          | us ->
              let n = alloc k_resolve ~table:0 ~inv:0 ~ce:false ~qi:Logic.X in
              (* register before resolving inputs so cycles hit the node,
                 not infinite recursion *)
              ignore (finish n);
              Hashtbl.replace resolve_wires n (Array.of_list us);
              Hashtbl.replace resolve_inputs n
                (Array.of_list (List.map wire_node us));
              n)
    end
  in
  (* bel pins *)
  let bel_pins = Hashtbl.create 256 in
  List.iter
    (fun (b, mask) ->
      let pins =
        Array.init 4 (fun j ->
            if (mask lsr j) land 1 = 1 then wire_node dev.Device.bel_in.(b).(j)
            else -1)
      in
      Hashtbl.add bel_pins ws.bel_node_id.(b) pins)
    !bel_list;
  let watch_node = Hashtbl.create 32 in
  Array.iter
    (fun w ->
      let pad = dev.Device.wire_pad.(w) in
      let n =
        if pad >= 0 && not (Extract.pad_enabled ex pad) then x_node
        else wire_node w
      in
      Hashtbl.replace watch_node w n)
    watch_outputs;
  let n = bld.n in
  let kind = Array.sub bld.b_kind 0 n in
  let table = Array.sub bld.b_table 0 n in
  let inv = Array.sub bld.b_inv 0 n in
  let ce_frozen = Array.sub bld.b_ce 0 n in
  let q_init = Array.sub bld.b_qi 0 n in
  let inputs = Array.make n [||] in
  let res_wires = Array.make n [||] in
  Hashtbl.iter (fun node ins -> inputs.(node) <- ins) resolve_inputs;
  Hashtbl.iter (fun node ws_ -> res_wires.(node) <- ws_) resolve_wires;
  Hashtbl.iter (fun node pins -> inputs.(node) <- pins) bel_pins;
  (* ---- Phase 3: evaluation order ---- *)
  let nsccs, has_loop =
    compute_sccs ~scratch:ws.ws_scc ~nnodes:n ~kind ~inputs
  in
  (* copy exact-size out of the workspace scratch: this simulator must
     survive later builds/reroutes that reuse the same workspace *)
  {
    nnodes = n;
    kind;
    inputs;
    res_wires;
    table;
    inv;
    ce_frozen;
    q_init;
    q = Array.copy q_init;
    values = Array.make n Logic.X;
    last = Array.make n Logic.X;
    nsccs;
    scc_off = Array.sub ws.ws_scc.sc_off 0 (nsccs + 1);
    scc_nodes = Array.sub ws.ws_scc.sc_nodes 0 n;
    scc_cyclic = Bytes.sub ws.ws_scc.sc_cyclic 0 nsccs;
    reg_nodes = collect_reg_nodes kind n;
    pad_node;
    watch_node;
    has_loop;
  }

let num_nodes t = t.nnodes
let has_comb_loop t = t.has_loop

let reset t =
  Array.blit t.q_init 0 t.q 0 t.nnodes;
  Array.fill t.values 0 t.nnodes Logic.X;
  Array.fill t.last 0 t.nnodes Logic.X

let set_pad t wire v =
  match Hashtbl.find_opt t.pad_node wire with
  | Some n -> t.values.(n) <- v
  | None -> ()

(* LUT evaluation on node values with inversion mask; X-aware.

   The value-representation primitives (pin scan, Kleene completion over
   X pins, driver resolution with the glitch rule) live in
   {!Fsim_backend.Scalar}, shared as semantics-of-record with the
   bit-sliced lane backend ({!Fsim_backend.Lanes}) that {!Fsim_batch}
   evaluates 32 faults at a time.  Calls are fully qualified so ocamlopt
   keeps them direct (and inlines the small ones) — this is the
   simulator's innermost loop. *)

let lut_x_const = Fsim_backend.Scalar.lut_x_const

let lut_eval t node =
  Fsim_backend.Scalar.lut_eval ~values:t.values ~pins:t.inputs.(node)
    ~table:t.table.(node) ~inv:t.inv.(node)

let resolve_settle = Fsim_backend.Scalar.resolve_settle
let resolve_glitch = Fsim_backend.Scalar.resolve_glitch

let eval_node t node =
  let k = t.kind.(node) in
  if k = k_resolve then begin
    (* A multiply-driven node: the drivers fight.  The settled value is
       their agreement; beyond that we are pessimistic about skew — if any
       driver transitioned this cycle, the fight glitches and the node
       reads unknown (two copies of the same TMR signal are shorted
       harmlessly in a zero-delay model, but not in silicon). *)
    let ins = t.inputs.(node) in
    let len = Array.length ins in
    if len = 0 then Logic.X
    else
      let v = resolve_settle t.values ins 1 len t.values.(ins.(0)) in
      match v with
      | Logic.X -> Logic.X
      | Logic.Zero | Logic.One -> resolve_glitch t.last ins 0 len v
  end
  else if k = k_bel_comb then lut_eval t node
  else if k = k_bel_reg then t.q.(node)
  else if k = k_constx then Logic.X
  else (* k_pad *) t.values.(node)

let eval t =
  let off = t.scc_off and nodes = t.scc_nodes in
  for si = 0 to t.nsccs - 1 do
    if Bytes.get t.scc_cyclic si = '\000' then begin
      let node = nodes.(off.(si)) in
      t.values.(node) <- eval_node t node
    end
    else begin
      (* Kleene iteration from X *)
      let lo = off.(si) and hi = off.(si + 1) in
      for i = lo to hi - 1 do
        t.values.(nodes.(i)) <- Logic.X
      done;
      let changed = ref true in
      let guard = ref ((3 * (hi - lo)) + 4) in
      while !changed && !guard > 0 do
        changed := false;
        decr guard;
        for i = lo to hi - 1 do
          let node = nodes.(i) in
          let v = eval_node t node in
          if not (Logic.equal v t.values.(node)) then begin
            t.values.(node) <- v;
            changed := true
          end
        done
      done
    end
  done

let clock t =
  (* Only registered bels ever read [q]; combinational bels re-evaluate
     from their pins on every [eval]. *)
  let regs = t.reg_nodes in
  for i = 0 to Array.length regs - 1 do
    let node = regs.(i) in
    if not t.ce_frozen.(node) then t.q.(node) <- lut_eval t node
  done;
  Array.blit t.values 0 t.last 0 t.nnodes

let step t =
  eval t;
  clock t;
  eval t

let read t wire =
  match Hashtbl.find_opt t.watch_node wire with
  | Some n -> t.values.(n)
  | None -> invalid_arg "Fsim.read: wire is not watched"

(* Node-id access: resolving wires to node ids once per simulator keeps
   the per-cycle IO loop free of hash lookups (and their option cells). *)

let watch_nodes t wires =
  Array.map
    (fun w ->
      match Hashtbl.find_opt t.watch_node w with
      | Some n -> n
      | None -> invalid_arg "Fsim.watch_nodes: wire is not watched")
    wires

let pad_nodes t wires =
  Array.map
    (fun w ->
      match Hashtbl.find_opt t.pad_node w with Some n -> n | None -> -1)
    wires

let node_value t n = t.values.(n)
let set_node t n v = if n >= 0 then t.values.(n) <- v

(* ------------------------------------------------------------------ *)
(* Cone snapshot: what the last [build] in a workspace observed.       *)

type cone = {
  c_dev : Device.t;
  c_marked : Bytes.t;  (* wire -> '\001' when in the observable cone *)
  c_wire_node : int array;  (* wire -> node id, -1 when unresolved *)
  c_bels : int array;  (* cone bels *)
  c_bel_node : int array;  (* bel -> node id, -1 outside the cone *)
}

let snapshot_cone ws =
  let dev = ws.ws_dev in
  let ep = ws.epoch in
  let nw = dev.Device.nwires in
  let marked = Bytes.make nw '\000' in
  let wire_node = Array.make nw (-1) in
  for w = 0 to nw - 1 do
    if ws.wire_mark.(w) = ep then Bytes.set marked w '\001';
    if ws.res_stamp.(w) = ep then wire_node.(w) <- ws.res_node.(w)
  done;
  let bels = ref [] in
  let bel_node = Array.make dev.Device.nbels (-1) in
  for b = dev.Device.nbels - 1 downto 0 do
    if ws.bel_node_stamp.(b) = ep then begin
      bel_node.(b) <- ws.bel_node_id.(b);
      bels := b :: !bels
    end
  done;
  {
    c_dev = dev;
    c_marked = marked;
    c_wire_node = wire_node;
    c_bels = Array.of_list !bels;
    c_bel_node = bel_node;
  }

let cone_marked c w = Bytes.get c.c_marked w <> '\000'
let cone_node_of_bel c b = c.c_bel_node.(b)

(* ------------------------------------------------------------------ *)
(* Per-fault planning: how cheaply can one bit flip be simulated?      *)

type fault_path =
  | Path_silent
  | Path_patch
  | Path_reroute
  | Path_rebuild
  | Path_diff
      (* execution outcome, never returned by [plan_fault]: a patch or
         reroute fault that ran on the differential engine *)

let path_name = function
  | Path_silent -> "silent"
  | Path_patch -> "patch"
  | Path_reroute -> "reroute"
  | Path_rebuild -> "rebuild"
  | Path_diff -> "diff"

(* Decide, against the *golden* (un-flipped) extract state, how the flip
   of [bit] can be handled.  Every branch below is exact: [Path_silent]
   means a full rebuild would produce a simulator with identical watched
   behaviour, [Path_patch] means the change is a pure cell-content edit of
   an existing node, [Path_reroute] means only wire-component structure
   changes.  Anything unprovable falls back to [Path_rebuild]. *)
let plan_fault c ex bit =
  let dev = Extract.device ex in
  let db = Extract.database ex in
  let marked w = cone_marked c w in
  match Bitdb.resource db bit with
  | Bitdb.Pad_cfg _ -> Path_silent  (* electrically benign *)
  | Bitdb.Pad_enable pad ->
      if marked dev.Device.pad_wire.(pad) then Path_rebuild else Path_silent
  | Bitdb.Lut_bit (b, idx) ->
      if c.c_bel_node.(b) < 0 then Path_silent
      else
        let old_t = Extract.lut_table ex b in
        let new_t = old_t lxor (1 lsl idx) in
        (* a shrinking support keeps every wired pin valid (the table just
           ignores it); a growing support needs pins the cone never wired,
           which [reroute] resolves incrementally *)
        if support_mask new_t land lnot (support_mask old_t) = 0 then
          Path_patch
        else Path_reroute
  | Bitdb.In_inv (b, _) ->
      if c.c_bel_node.(b) < 0 then Path_silent else Path_patch
  | Bitdb.Ff_init b | Bitdb.Sr_inv b | Bitdb.Ce_inv b ->
      if c.c_bel_node.(b) < 0 then Path_silent
      else if Extract.out_sel ex b then Path_patch
      else Path_silent (* flip-flop state is never read on a comb bel *)
  | Bitdb.Out_sel b ->
      (* comb <-> reg retargets one node's kind; the wiring (pins are
         collected independently of registered-ness) is untouched *)
      if c.c_bel_node.(b) < 0 then Path_silent else Path_reroute
  | Bitdb.Pip p ->
      let s = dev.Device.pip_src.(p) and d = dev.Device.pip_dst.(p) in
      let on = Extract.bit_is_set ex bit in
      if dev.Device.pip_bidir.(p) then
        if on then
          (* removing a short *)
          if marked s || marked d then Path_reroute else Path_silent
        else begin
          (* adding a short *)
          match (marked s, marked d) with
          | false, false -> Path_silent
          | true, true -> Path_reroute
          | ms, _ ->
              (* antenna: shorting an isolated floating wire onto a cone
                 wire adds a driverless member to its component — the
                 resolved node is unchanged and nothing in the cone reads
                 the floating side *)
              let u = if ms then d else s in
              if Extract.drivers ex u = [] && Extract.links ex u = [] then
                Path_silent
              else Path_reroute
        end
      else if marked d then Path_reroute
      else Path_silent (* only [drivers dst] changes, and the cone never
                          reads it *)

(* Apply a bel-content fault in place on [base], run [f], undo.  The bit
   must already be flipped in [ex]; [plan_fault] must have said
   [Path_patch]. *)
let with_patch c base ex bit f =
  let db = Extract.database ex in
  let patch_cell arr node v =
    let old = arr.(node) in
    arr.(node) <- v;
    Fun.protect ~finally:(fun () -> arr.(node) <- old) (fun () -> f base)
  in
  match Bitdb.resource db bit with
  | Bitdb.Lut_bit (b, _) ->
      patch_cell base.table c.c_bel_node.(b) (Extract.lut_table ex b)
  | Bitdb.In_inv (b, _) ->
      patch_cell base.inv c.c_bel_node.(b) (Extract.in_inv_mask ex b)
  | Bitdb.Ff_init b | Bitdb.Sr_inv b ->
      patch_cell base.q_init c.c_bel_node.(b) (Extract.ff_init ex b)
  | Bitdb.Ce_inv b ->
      patch_cell base.ce_frozen c.c_bel_node.(b) (Extract.ce_inv ex b)
  | _ -> invalid_arg "Fsim.with_patch: not a patchable bit"

(* The single node whose cell content a [Path_patch] fault edits — the
   differential engine seeds its fanout cone from it. *)
let patch_node c ex bit =
  let db = Extract.database ex in
  match Bitdb.resource db bit with
  | Bitdb.Lut_bit (b, _)
  | Bitdb.In_inv (b, _)
  | Bitdb.Ff_init b
  | Bitdb.Sr_inv b
  | Bitdb.Ce_inv b ->
      let n = c.c_bel_node.(b) in
      if n < 0 then invalid_arg "Fsim.patch_node: bel outside the cone";
      n
  | _ -> invalid_arg "Fsim.patch_node: not a patchable bit"

(* ------------------------------------------------------------------ *)
(* Reroute: derive a fault simulator from [base] without a full rebuild.
   The flipped bit is already applied to [ex].  For a routing bit only
   the electrical components containing the pip endpoints changed: we
   re-resolve those components, remap every reader whose resolution
   passed through them, and re-run the SCC pass on the (slightly grown)
   node graph.  A support-widening LUT bit or an out_sel flip changes no
   wiring at all — just one cell's pins/kind — but still needs the
   incremental resolution and SCC machinery, so it lands here too.
   Returns [None] when the change reaches outside what the base cone
   knows (new bels, live out-of-cone nets, driver loops) — the caller
   falls back to a full rebuild.

   With [?scratch], all large per-call arrays live in the caller-owned
   scratch and are reused: the returned simulator is valid only until the
   next [reroute] with the same scratch.  This keeps the per-fault
   allocation near zero, which matters under multiple domains: every
   minor collection is a stop-the-world rendezvous. *)

exception Too_hard

type scratch = {
  s_scc : scc_scratch;
  mutable s_cap : int;
  mutable s_kind : int array;
  mutable s_table : int array;
  mutable s_inv : int array;
  mutable s_ce : bool array;
  mutable s_qi : Logic.t array;
  mutable s_q : Logic.t array;
  mutable s_values : Logic.t array;
  mutable s_last : Logic.t array;
  mutable s_inputs : int array array;
  mutable s_res_wires : int array array;
  (* Epoch-stamped per-wire and per-node maps replacing what would
     otherwise be six fresh hashtables per fault. *)
  mutable s_epoch : int;
  mutable s_wcap : int;
  mutable s_wn_stamp : int array;  (* wire -> epoch of s_wn validity *)
  mutable s_wn : int array;  (* wire -> resolved node (memo + override) *)
  mutable s_wc_stamp : int array;  (* wire -> epoch of s_wc validity *)
  mutable s_wc : int array;  (* wire -> affected component index *)
  mutable s_ing : int array;  (* wire -> epoch when resolution in progress *)
  mutable s_orph_cap : int;
  mutable s_orph : int array;  (* old node id -> epoch when orphaned *)
}

let make_scratch () =
  {
    s_scc = make_scc_scratch ();
    s_cap = 0;
    s_kind = [||];
    s_table = [||];
    s_inv = [||];
    s_ce = [||];
    s_qi = [||];
    s_q = [||];
    s_values = [||];
    s_last = [||];
    s_inputs = [||];
    s_res_wires = [||];
    s_epoch = 0;
    s_wcap = 0;
    s_wn_stamp = [||];
    s_wn = [||];
    s_wc_stamp = [||];
    s_wc = [||];
    s_ing = [||];
    s_orph_cap = 0;
    s_orph = [||];
  }

let scratch_ensure s n =
  if s.s_cap < n then begin
    let cap = max n (max 1024 (2 * s.s_cap)) in
    s.s_cap <- cap;
    s.s_kind <- Array.make cap 0;
    s.s_table <- Array.make cap 0;
    s.s_inv <- Array.make cap 0;
    s.s_ce <- Array.make cap false;
    s.s_qi <- Array.make cap Logic.X;
    s.s_q <- Array.make cap Logic.X;
    s.s_values <- Array.make cap Logic.X;
    s.s_last <- Array.make cap Logic.X;
    s.s_inputs <- Array.make cap [||];
    s.s_res_wires <- Array.make cap [||]
  end

let scratch_wires_ensure s nw =
  if s.s_wcap < nw then begin
    s.s_wcap <- nw;
    s.s_wn_stamp <- Array.make nw 0;
    s.s_wn <- Array.make nw 0;
    s.s_wc_stamp <- Array.make nw 0;
    s.s_wc <- Array.make nw 0;
    s.s_ing <- Array.make nw 0
  end

let scratch_orph_ensure s n =
  if s.s_orph_cap < n then begin
    s.s_orph_cap <- max n (2 * s.s_orph_cap);
    s.s_orph <- Array.make s.s_orph_cap 0
  end

(* Phase A, shared between {!reroute} (which then materialises a whole
   derived simulator) and {!fault_delta} (which only records the
   overlay): re-resolve the electrical components affected by the flip
   under the post-flip extract, memoising wire->node resolutions and
   reserving appended resolve nodes.  Raises [Too_hard] whenever the
   change reaches outside what the base cone knows. *)

type phase_a = {
  pa_n_extra : int;
  pa_extras : (int, int array * int array ref) Hashtbl.t;
      (* appended node id -> (driver wires, resolved inputs) *)
  pa_cell : [ `None | `Lut of int * int * int array | `Out of int * bool ];
  pa_node_of : int -> int;  (* valid until the scratch's next epoch *)
  pa_orphaned : int -> bool;
  pa_orph : int list;  (* old node ids whose resolution went stale *)
  pa_have_orphans : bool;
}

let phase_a ~scratch:s c base ex bit =
  let dev = Extract.device ex in
  let db = Extract.database ex in
  let seeds, cell =
    match Bitdb.resource db bit with
    | Bitdb.Pip p ->
        let sw = dev.Device.pip_src.(p) and dw = dev.Device.pip_dst.(p) in
        ((if dev.Device.pip_bidir.(p) then [ sw; dw ] else [ dw ]), `None)
    | Bitdb.Lut_bit (b, _) -> ([], `Lut b)
    | Bitdb.Out_sel b -> ([], `Out b)
    | _ -> invalid_arg "Fsim.reroute: bit is not reroutable"
  in
  scratch_wires_ensure s dev.Device.nwires;
  scratch_orph_ensure s base.nnodes;
  s.s_epoch <- s.s_epoch + 1;
  let ep = s.s_epoch in
  (* the affected components under the post-flip extract *)
  let comps = ref [] in
    let ncomps = ref 0 in
    let add_comp seed =
      if s.s_wc_stamp.(seed) <> ep then begin
        let members = ref [] in
        let rec collect u =
          if s.s_wc_stamp.(u) <> ep then begin
            s.s_wc_stamp.(u) <- ep;
            s.s_wc.(u) <- !ncomps;
            members := u :: !members;
            List.iter collect (Extract.links ex u)
          end
        in
        collect seed;
        let members = List.rev !members in
        let drivers = List.concat_map (fun u -> Extract.drivers ex u) members in
        comps := (members, drivers) :: !comps;
        incr ncomps
      end
    in
    List.iter add_comp seeds;
    let comp_arr = Array.of_list (List.rev !comps) in
    (* Old node ids whose wire->node association may now be stale: every
       reader that resolved through an affected component got that
       component's old node id (single-driver chains collapse onto it). *)
    let norph = ref 0 in
    let orph = ref [] in
    Array.iter
      (fun (members, _) ->
        List.iter
          (fun w ->
            let n = c.c_wire_node.(w) in
            if n >= 0 && s.s_orph.(n) <> ep then begin
              s.s_orph.(n) <- ep;
              orph := n :: !orph;
              incr norph
            end)
          members)
      comp_arr;
    let orphaned n = n < base.nnodes && s.s_orph.(n) = ep in
    (* New resolve nodes appended past the base graph *)
    let n_extra = ref 0 in
    let extras = Hashtbl.create 8 in (* id -> (driver wires, inputs ref) *)
    let reserve_resolve us =
      let id = base.nnodes + !n_extra in
      incr n_extra;
      Hashtbl.replace extras id (us, ref [||]);
      id
    in
    let set_node w n =
      s.s_wn_stamp.(w) <- ep;
      s.s_wn.(w) <- n
    in
    let comp_state = Array.make (Array.length comp_arr) 0 in
    let rec node_of w =
      if s.s_wn_stamp.(w) = ep then s.s_wn.(w) (* memo and overrides *)
      else if s.s_wc_stamp.(w) = ep then begin
        process_comp s.s_wc.(w);
        s.s_wn.(w)
      end
      else begin
        if s.s_ing.(w) = ep then raise Too_hard;
        s.s_ing.(w) <- ep;
        let n =
          match dev.Device.wkind.(w) with
          | Device.PadIn ->
              let old = c.c_wire_node.(w) in
              if old >= 0 then old
              else
                let pad = dev.Device.wire_pad.(w) in
                if pad >= 0 && Extract.pad_enabled ex pad then
                  raise Too_hard (* live pad the base never saw *)
                else x_node_id
          | Device.BelOut ->
              let b = dev.Device.wire_bel.(w) in
              let bn = c.c_bel_node.(b) in
              if bn >= 0 then bn
              else raise Too_hard (* bel outside the base cone *)
          | Device.HSingle | Device.VSingle | Device.HDouble | Device.VDouble
          | Device.HLong | Device.VLong | Device.BelIn | Device.PadOut -> (
              let old = c.c_wire_node.(w) in
              if old >= 0 && not (orphaned old) then old
              else begin
                (* this component's own structure is unchanged (it
                   contains no pip endpoint), but its resolution may pass
                   through affected ones *)
                let members = ref [] in
                let rec collect u =
                  if not (List.mem u !members) then begin
                    members := u :: !members;
                    List.iter collect (Extract.links ex u)
                  end
                in
                collect w;
                let drvs =
                  List.concat_map (fun u -> Extract.drivers ex u) !members
                in
                match drvs with
                | [] -> x_node_id
                | [ u ] -> node_of u
                | _ ->
                    (* multi-driven: its private resolve node still stands
                       (inputs are fixed by the global remap below) *)
                    if old >= 0 then old else raise Too_hard
              end)
        in
        set_node w n;
        n
      end
    and process_comp ci =
      if comp_state.(ci) = 1 then raise Too_hard (* pure driver loop *)
      else if comp_state.(ci) = 0 then begin
        comp_state.(ci) <- 1;
        let members, drvs = comp_arr.(ci) in
        (match drvs with
        | [] ->
            List.iter (fun u -> set_node u x_node_id) members;
            comp_state.(ci) <- 2
        | [ u ] ->
            let n = node_of u in
            List.iter (fun m -> set_node m n) members;
            comp_state.(ci) <- 2
        | us ->
            (* register the node first so combinational cycles through the
               component terminate on it, as in [build] *)
            let us = Array.of_list us in
            let id = reserve_resolve us in
            List.iter (fun m -> set_node m id) members;
            comp_state.(ci) <- 2;
            let _, ins = Hashtbl.find extras id in
            ins := Array.map node_of us)
      end
    in
    for ci = 0 to Array.length comp_arr - 1 do
      process_comp ci
    done;
    (* Resolve the cell override (may raise Too_hard, may touch memo but
       never allocates extras) while [n_extra] is still growing — after
       this point the node count is final. *)
    let cell =
      match cell with
      | `None -> `None
      | `Lut b ->
          let table = Extract.lut_table ex b in (* post-flip *)
          let mask = support_mask table in
          let row =
            Array.init 4 (fun j ->
                if (mask lsr j) land 1 = 1 then
                  node_of dev.Device.bel_in.(b).(j)
                else -1)
          in
          `Lut (c.c_bel_node.(b), table, row)
      | `Out b ->
          `Out (c.c_bel_node.(b), Extract.out_sel ex b)
    in
    {
      pa_n_extra = !n_extra;
      pa_extras = extras;
      pa_cell = cell;
      pa_node_of = node_of;
      pa_orphaned = orphaned;
      pa_orph = !orph;
      pa_have_orphans = !norph > 0;
    }

let reroute ~scratch:s c base ex bit =
  let dev = Extract.device ex in
  if dev != c.c_dev then invalid_arg "Fsim.reroute: cone from another device";
  try
    let pa = phase_a ~scratch:s c base ex bit in
    let node_of = pa.pa_node_of
    and orphaned = pa.pa_orphaned
    and extras = pa.pa_extras
    and cell = pa.pa_cell in
    (* Phase B/C: size the derived arrays (scratch-backed when given),
       then remap every reader whose resolution went stale. *)
    let n = base.nnodes + pa.pa_n_extra in
    scratch_ensure s n;
    Array.blit base.kind 0 s.s_kind 0 base.nnodes;
    Array.fill s.s_kind base.nnodes (n - base.nnodes) k_resolve;
    Array.blit base.table 0 s.s_table 0 base.nnodes;
    Array.blit base.inv 0 s.s_inv 0 base.nnodes;
    Array.blit base.ce_frozen 0 s.s_ce 0 base.nnodes;
    Array.blit base.q_init 0 s.s_qi 0 base.nnodes;
    Array.fill s.s_qi base.nnodes (n - base.nnodes) Logic.X;
    Array.blit base.inputs 0 s.s_inputs 0 base.nnodes;
    Array.blit base.res_wires 0 s.s_res_wires 0 base.nnodes;
    let kind, table, inv, ce_frozen, q_init, q, values, last, inputs', res_wires,
        scc =
      ( s.s_kind, s.s_table, s.s_inv, s.s_ce, s.s_qi, s.s_q, s.s_values,
        s.s_last, s.s_inputs, s.s_res_wires, s.s_scc )
    in
    for id = base.nnodes to n - 1 do
      let us, ins = Hashtbl.find extras id in
      inputs'.(id) <- !ins;
      res_wires.(id) <- us
    done;
    let have_orphans = pa.pa_have_orphans in
    let stale row =
      let st = ref false in
      Array.iter (fun nd -> if nd >= 0 && orphaned nd then st := true) row;
      !st
    in
    if have_orphans then begin
      Array.iteri
        (fun node wires ->
          if Array.length wires > 0 && stale base.inputs.(node) then
            inputs'.(node) <- Array.map node_of wires)
        base.res_wires;
      Array.iter
        (fun b ->
          let node = c.c_bel_node.(b) in
          let pins = base.inputs.(node) in
          if stale pins then
            inputs'.(node) <-
              Array.mapi
                (fun j p ->
                  if p < 0 then -1 else node_of dev.Device.bel_in.(b).(j))
                pins)
        c.c_bels
    end;
    (match cell with
    | `None -> ()
    | `Lut (node, t', row) ->
        table.(node) <- t';
        inputs'.(node) <- row
    | `Out (node, registered) ->
        kind.(node) <- (if registered then k_bel_reg else k_bel_comb));
    let watch_node =
      let needs_remap =
        have_orphans
        && Hashtbl.fold
             (fun _ nd acc -> acc || orphaned nd)
             base.watch_node false
      in
      if not needs_remap then base.watch_node
      else begin
        let tbl = Hashtbl.create (Hashtbl.length base.watch_node) in
        Hashtbl.iter
          (fun w nd ->
            let nd' =
              if not (orphaned nd) then nd
              else
                let pad = dev.Device.wire_pad.(w) in
                if pad >= 0 && not (Extract.pad_enabled ex pad) then x_node_id
                else node_of w
            in
            Hashtbl.replace tbl w nd')
          base.watch_node;
        tbl
      end
    in
    let nsccs, has_loop =
      compute_sccs ~scratch:scc ~nnodes:n ~kind ~inputs:inputs'
    in
    let reg_nodes =
      (* extras are resolve nodes; only an Out_sel cell flip can move the
         registered-bel membership *)
      match cell with
      | `Out _ -> collect_reg_nodes kind n
      | `None | `Lut _ -> base.reg_nodes
    in
    Array.blit q_init 0 q 0 n;
    Array.fill values 0 n Logic.X;
    Array.fill last 0 n Logic.X;
    Some
      {
        nnodes = n;
        kind;
        inputs = inputs';
        res_wires;
        table;
        inv;
        ce_frozen;
        q_init;
        q;
        values;
        last;
        nsccs;
        scc_off = scc.sc_off;
        scc_nodes = scc.sc_nodes;
        scc_cyclic = scc.sc_cyclic;
        reg_nodes;
        pad_node = base.pad_node;
        watch_node;
        has_loop;
      }
  with Too_hard -> None

(* A derived simulator shares [base]'s pad/watch wire->node tables
   physically unless [reroute] had to remap an orphaned watch node. *)
let same_io a b = a.pad_node == b.pad_node && a.watch_node == b.watch_node

(* ------------------------------------------------------------------ *)
(* Read-only graph view + fault overlays: what the bit-parallel batched
   engine ({!Fsim_batch}) needs from a base simulator.  The view shares
   the arrays (no copy); treat them as immutable. *)

type view = {
  v_nnodes : int;
  v_kind : int array;
  v_inputs : int array array;
  v_table : int array;
  v_inv : int array;
  v_ce_frozen : bool array;
  v_q_init : Logic.t array;
  v_nsccs : int;
  v_scc_off : int array;
  v_scc_nodes : int array;
  v_scc_cyclic : Bytes.t;
}

let view t =
  {
    v_nnodes = t.nnodes;
    v_kind = t.kind;
    v_inputs = t.inputs;
    v_table = t.table;
    v_inv = t.inv;
    v_ce_frozen = t.ce_frozen;
    v_q_init = t.q_init;
    v_nsccs = t.nsccs;
    v_scc_off = t.scc_off;
    v_scc_nodes = t.scc_nodes;
    v_scc_cyclic = t.scc_cyclic;
  }

let kind_constx = k_constx
let kind_pad = k_pad
let kind_bel_comb = k_bel_comb
let kind_bel_reg = k_bel_reg
let kind_resolve = k_resolve

(* Reverse CSR over [inputs] (successors of each node), standalone: the
   batch engine builds it once per worker over the base graph and keeps
   it for the whole campaign. *)
let reader_csr sim =
  let n = sim.nnodes in
  let off = Array.make (n + 1) 0 in
  for node = 0 to n - 1 do
    let ins = sim.inputs.(node) in
    for j = 0 to Array.length ins - 1 do
      let p = ins.(j) in
      if p >= 0 then off.(p + 1) <- off.(p + 1) + 1
    done
  done;
  for i = 1 to n do
    off.(i) <- off.(i) + off.(i - 1)
  done;
  let succ = Array.make (max 1 off.(n)) 0 in
  let cursor = Array.copy off in
  for node = 0 to n - 1 do
    let ins = sim.inputs.(node) in
    for j = 0 to Array.length ins - 1 do
      let p = ins.(j) in
      if p >= 0 then begin
        succ.(cursor.(p)) <- node;
        cursor.(p) <- cursor.(p) + 1
      end
    done
  done;
  (off, succ)

(* Inverse of the cone's bel -> node map, for resolving which device bel
   a comb/reg node came from (bel pins live on the device, not the
   graph).  Built once per worker. *)
let bel_map c base =
  let m = Array.make base.nnodes (-1) in
  Array.iter
    (fun b ->
      let n = c.c_bel_node.(b) in
      if n >= 0 && n < base.nnodes then m.(n) <- b)
    c.c_bels;
  m

type cell_patch =
  | Cp_table of int
  | Cp_inv of int
  | Cp_qinit of Logic.t
  | Cp_ce of bool

type delta = {
  dl_cell : (int * cell_patch) option;
  dl_rows : (int * int array) array;
  dl_extras : (int array * int array) array;
}

(* A [Path_patch] fault as an overlay: one cell-content override,
   mirroring [with_patch]'s dispatch.  The bit is already flipped in
   [ex]. *)
let patch_delta c ex bit =
  let db = Extract.database ex in
  let cell =
    match Bitdb.resource db bit with
    | Bitdb.Lut_bit (b, _) ->
        (c.c_bel_node.(b), Cp_table (Extract.lut_table ex b))
    | Bitdb.In_inv (b, _) ->
        (c.c_bel_node.(b), Cp_inv (Extract.in_inv_mask ex b))
    | Bitdb.Ff_init b | Bitdb.Sr_inv b ->
        (c.c_bel_node.(b), Cp_qinit (Extract.ff_init ex b))
    | Bitdb.Ce_inv b -> (c.c_bel_node.(b), Cp_ce (Extract.ce_inv ex b))
    | _ -> invalid_arg "Fsim.patch_delta: not a patchable bit"
  in
  { dl_cell = Some cell; dl_rows = [||]; dl_extras = [||] }

(* A [Path_reroute] fault as an overlay over the *base* graph: runs
   phase A only, then finds the stale reader rows through the base
   reader CSR from the orphaned nodes instead of [reroute]'s O(n)
   scan — the remap itself is identical ([node_of] over the same
   wires).  [None] falls back to the scalar engine: the places
   [reroute] would bail, plus an [Out_sel] kind change (lanes share
   node kinds) and an orphaned watch node (lanes share the watch
   resolution). *)
let fault_delta ~scratch:s c base ex bit ~succ_off ~succ ~bel_of =
  let dev = Extract.device ex in
  if dev != c.c_dev then
    invalid_arg "Fsim.fault_delta: cone from another device";
  try
    let pa = phase_a ~scratch:s c base ex bit in
    let node_of = pa.pa_node_of and orphaned = pa.pa_orphaned in
    let cell =
      match pa.pa_cell with
      | `Out _ -> raise Too_hard
      | `None -> None
      | `Lut (node, table, _) -> Some (node, Cp_table table)
    in
    if pa.pa_have_orphans then
      Hashtbl.iter
        (fun _ nd -> if orphaned nd then raise Too_hard)
        base.watch_node;
    let rows = ref [] in
    let row_done = Hashtbl.create 8 in
    let add_cell_row () =
      match pa.pa_cell with
      | `Lut (node, _, row) ->
          Hashtbl.add row_done node ();
          rows := (node, row) :: !rows
      | `None | `Out _ -> ()
    in
    add_cell_row ();
    let add_row node =
      if not (Hashtbl.mem row_done node) then begin
        Hashtbl.add row_done node ();
        if Array.length base.res_wires.(node) > 0 then
          rows := (node, Array.map node_of base.res_wires.(node)) :: !rows
        else
          let k = base.kind.(node) in
          if k = k_bel_comb || k = k_bel_reg then begin
            let b = bel_of.(node) in
            if b < 0 then raise Too_hard;
            let pins = base.inputs.(node) in
            let row =
              Array.mapi
                (fun j p ->
                  if p < 0 then -1 else node_of dev.Device.bel_in.(b).(j))
                pins
            in
            rows := (node, row) :: !rows
          end
          (* pads and constants have no input rows *)
      end
    in
    List.iter
      (fun n ->
        for e = succ_off.(n) to succ_off.(n + 1) - 1 do
          add_row succ.(e)
        done)
      pa.pa_orph;
    let extras =
      Array.init pa.pa_n_extra (fun i ->
          let us, ins = Hashtbl.find pa.pa_extras (base.nnodes + i) in
          (!ins, us))
    in
    Some { dl_cell = cell; dl_rows = Array.of_list !rows; dl_extras = extras }
  with Too_hard -> None

(* ------------------------------------------------------------------ *)
(* Baseline tape: the fault-free per-cycle value of every node, packed
   2 bits per three-valued logic value.  One tape per worker amortises
   the single fault-free run over every fault the worker executes. *)

type tape = {
  tp_nnodes : int;
  tp_cycles : int;
  tp_stride : int;  (* bytes per cycle *)
  tp_data : Bytes.t;
}

let logic_code = Fsim_backend.Scalar.logic_code
let code_logic = Fsim_backend.Scalar.code_logic

let tape_create ~nnodes ~cycles =
  if nnodes < 0 || cycles < 0 then invalid_arg "Fsim.tape_create";
  let stride = (nnodes + 3) / 4 in
  {
    tp_nnodes = nnodes;
    tp_cycles = cycles;
    tp_stride = stride;
    tp_data = Bytes.make (max 1 (stride * cycles)) '\000';
  }

let tape_nnodes tp = tp.tp_nnodes
let tape_cycles tp = tp.tp_cycles

let tape_set tp ~cycle ~node v =
  if cycle < 0 || cycle >= tp.tp_cycles || node < 0 || node >= tp.tp_nnodes
  then invalid_arg "Fsim.tape_set";
  let i = (tp.tp_stride * cycle) + (node lsr 2) in
  let sh = (node land 3) * 2 in
  let b = Char.code (Bytes.get tp.tp_data i) in
  Bytes.set tp.tp_data i
    (Char.chr ((b land lnot (3 lsl sh)) lor (logic_code v lsl sh)))

(* Unchecked read for the per-cycle hot loops below; bounds are
   established once per fault. *)
let tape_get_u tp cycle node =
  let b =
    Char.code
      (Bytes.unsafe_get tp.tp_data ((tp.tp_stride * cycle) + (node lsr 2)))
  in
  code_logic ((b lsr ((node land 3) * 2)) land 3)

let tape_get tp ~cycle ~node =
  if cycle < 0 || cycle >= tp.tp_cycles || node < 0 || node >= tp.tp_nnodes
  then invalid_arg "Fsim.tape_get";
  tape_get_u tp cycle node

let tape_record tp t ~cycle =
  if t.nnodes <> tp.tp_nnodes then
    invalid_arg "Fsim.tape_record: tape sized for another simulator";
  if cycle < 0 || cycle >= tp.tp_cycles then invalid_arg "Fsim.tape_record";
  let base = tp.tp_stride * cycle in
  let n = t.nnodes in
  let v = t.values in
  let node = ref 0 in
  let i = ref 0 in
  while !node < n do
    let lim = min 4 (n - !node) in
    let b = ref 0 in
    for j = 0 to lim - 1 do
      b := !b lor (logic_code v.(!node + j) lsl (j * 2))
    done;
    Bytes.set tp.tp_data (base + !i) (Char.chr !b);
    incr i;
    node := !node + 4
  done

(* ------------------------------------------------------------------ *)
(* Differential fault simulation.

   A fault disturbs only the static fanout cone of its seed nodes: the
   transitive closure over graph successors (reverse edges of [inputs],
   which covers resolve inputs, comb pins *and* register pins, so the
   closure crosses register boundaries).  The engine simulates only the
   cone; any input read from outside it comes from the baseline tape.
   Within the cone a dirty-stamp event scheme skips nodes whose inputs
   did not change this cycle, and a convergence check at each cycle
   boundary abandons the fault early once it provably can no longer
   diverge from the baseline.

   Convergence needs care because the fault is *persistent* (the flipped
   configuration bit stays flipped): cone state equal to the baseline at
   cycle c does not by itself imply equality forever — a flipped LUT row
   may first be exercised at a later cycle.  The sound rule used here is
   state equality (cone values and cone register state match the tape at
   the boundary) *plus* a seed replay: only the seed nodes are evaluated
   against pure tape inputs for every remaining cycle, and each old-node
   seed must reproduce its taped value.  If so, every non-seed cone node
   keeps seeing baseline inputs and the whole cone provably tracks the
   tape; the fault's outcome is decided.  The replay is skipped (no
   early exit) when a seed sits in a cyclic SCC, where single-node
   re-evaluation is not the fixpoint the full engine computes. *)

type dscratch = {
  mutable dd_csr_for : t option;  (* simulator the CSR below was built for *)
  mutable dd_ncap : int;  (* node capacity *)
  mutable dd_off : int array;  (* CSR row offsets, nnodes+1 *)
  mutable dd_cursor : int array;
  mutable dd_ecap : int;
  mutable dd_succ : int array;  (* CSR successor lists *)
  mutable dd_mark : Bytes.t;  (* '\001' = cone member *)
  mutable dd_fmark : Bytes.t;  (* '\001' = frontier member *)
  mutable dd_smark : Bytes.t;  (* '\001' = seed *)
  mutable dd_cone : int array;  (* cone nodes, evaluation order *)
  mutable dd_ncone : int;
  mutable dd_grp : int array;  (* group starts into dd_cone, dd_ngrp+1 *)
  mutable dd_gcyc : Bytes.t;  (* per group: cyclic SCC *)
  mutable dd_ngrp : int;
  mutable dd_regs : int array;  (* cone registers *)
  mutable dd_nregs : int;
  mutable dd_frontier : int array;  (* non-cone inputs of cone nodes *)
  mutable dd_nfrontier : int;
  mutable dd_seeds : int array;  (* seeds, evaluation order *)
  mutable dd_nseeds : int;
  mutable dd_suspect : int array;  (* watch indices that can differ *)
  mutable dd_scap : int;
  mutable dd_nsuspect : int;
  mutable dd_dirty : int array;  (* per node: tick stamp of dirtiness *)
  mutable dd_rdirty : int array;  (* per register: tick stamp *)
  mutable dd_tick : int;  (* monotone across faults *)
  mutable dd_old : Logic.t array;  (* cyclic-group pre-eval values *)
  mutable dd_rv : Logic.t array;  (* replay overlay: value *)
  mutable dd_rvl : Logic.t array;  (* replay overlay: last *)
  mutable dd_rq : Logic.t array;  (* replay overlay: register state *)
  mutable dd_depth : int array;  (* per node: BFS depth from the seeds *)
  mutable dd_divmark : Bytes.t;  (* '\001' = diverged from the tape *)
  (* forensic summary of the last forensics-enabled [diff_run] *)
  mutable dd_fcollect : bool;
  mutable dd_fdiverged : int;
  mutable dd_ffirst_node : int;
  mutable dd_ffirst_cycle : int;
  mutable dd_fdepth : int;
}

let make_dscratch () =
  {
    dd_csr_for = None;
    dd_ncap = 0;
    dd_off = [||];
    dd_cursor = [||];
    dd_ecap = 0;
    dd_succ = [||];
    dd_mark = Bytes.empty;
    dd_fmark = Bytes.empty;
    dd_smark = Bytes.empty;
    dd_cone = [||];
    dd_ncone = 0;
    dd_grp = [||];
    dd_gcyc = Bytes.empty;
    dd_ngrp = 0;
    dd_regs = [||];
    dd_nregs = 0;
    dd_frontier = [||];
    dd_nfrontier = 0;
    dd_seeds = [||];
    dd_nseeds = 0;
    dd_suspect = [||];
    dd_scap = 0;
    dd_nsuspect = 0;
    dd_dirty = [||];
    dd_rdirty = [||];
    dd_tick = 0;
    dd_old = [||];
    dd_rv = [||];
    dd_rvl = [||];
    dd_rq = [||];
    dd_depth = [||];
    dd_divmark = Bytes.empty;
    dd_fcollect = false;
    dd_fdiverged = 0;
    dd_ffirst_node = -1;
    dd_ffirst_cycle = -1;
    dd_fdepth = -1;
  }

let dscratch_ensure d n =
  if d.dd_ncap < n then begin
    let cap = max n (max 1024 (2 * d.dd_ncap)) in
    d.dd_ncap <- cap;
    d.dd_off <- Array.make (cap + 1) 0;
    d.dd_cursor <- Array.make (cap + 1) 0;
    d.dd_mark <- Bytes.make cap '\000';
    d.dd_fmark <- Bytes.make cap '\000';
    d.dd_smark <- Bytes.make cap '\000';
    d.dd_cone <- Array.make cap 0;
    d.dd_grp <- Array.make (cap + 1) 0;
    d.dd_gcyc <- Bytes.make cap '\000';
    d.dd_regs <- Array.make cap 0;
    d.dd_frontier <- Array.make cap 0;
    d.dd_seeds <- Array.make cap 0;
    (* fresh stamp arrays start at 0 < any live tick: never stale-dirty *)
    d.dd_dirty <- Array.make cap 0;
    d.dd_rdirty <- Array.make cap 0;
    d.dd_old <- Array.make cap Logic.X;
    d.dd_rv <- Array.make cap Logic.X;
    d.dd_rvl <- Array.make cap Logic.X;
    d.dd_rq <- Array.make cap Logic.X;
    d.dd_depth <- Array.make cap 0;
    d.dd_divmark <- Bytes.make cap '\000';
    d.dd_csr_for <- None
  end

let dscratch_suspect_ensure d n =
  if d.dd_scap < n then begin
    d.dd_scap <- max n (2 * d.dd_scap);
    d.dd_suspect <- Array.make d.dd_scap 0
  end

(* Reverse CSR over [inputs]: successors of each node.  Cached while the
   physical simulator is unchanged — cell-content patches ([with_patch])
   never alter the edge set, so the base simulator's CSR survives a whole
   campaign; derived reroute simulators get a rebuild. *)
let build_csr d sim =
  let n = sim.nnodes in
  let off = d.dd_off in
  Array.fill off 0 (n + 1) 0;
  for node = 0 to n - 1 do
    let ins = sim.inputs.(node) in
    for j = 0 to Array.length ins - 1 do
      let p = ins.(j) in
      if p >= 0 then off.(p + 1) <- off.(p + 1) + 1
    done
  done;
  for i = 1 to n do
    off.(i) <- off.(i) + off.(i - 1)
  done;
  let e = off.(n) in
  if d.dd_ecap < e then begin
    d.dd_ecap <- max e (2 * d.dd_ecap);
    d.dd_succ <- Array.make d.dd_ecap 0
  end;
  Array.blit off 0 d.dd_cursor 0 (n + 1);
  for node = 0 to n - 1 do
    let ins = sim.inputs.(node) in
    for j = 0 to Array.length ins - 1 do
      let p = ins.(j) in
      if p >= 0 then begin
        d.dd_succ.(d.dd_cursor.(p)) <- node;
        d.dd_cursor.(p) <- d.dd_cursor.(p) + 1
      end
    done
  done

(* Allocation-free LUT evaluation over an arbitrary pin-value reader,
   for the seed replay (values come from overlays or the tape). *)
let replay_lut t node rv0 rv1 rv2 rv3 =
  let table = t.table.(node) in
  let inv = t.inv.(node) in
  let pins = t.inputs.(node) in
  let acc = ref 0 in
  for j = 0 to 3 do
    if pins.(j) >= 0 then begin
      let v = if j = 0 then rv0 else if j = 1 then rv1 else if j = 2 then rv2 else rv3 in
      (match v with
      | Logic.Zero -> acc := !acc lor (((inv lsr j) land 1) lsl j)
      | Logic.One -> acc := !acc lor ((1 - ((inv lsr j) land 1)) lsl j)
      | Logic.X -> acc := !acc lor (1 lsl (j + 4)))
    end
  done;
  let idx = !acc land 0xf and xmask = !acc lsr 4 in
  let first = (table lsr idx) land 1 in
  if xmask = 0 then Logic.of_bool (first = 1)
  else if lut_x_const table idx xmask xmask first then Logic.of_bool (first = 1)
  else Logic.X

type dseeds = Seed_node of int | Seed_derived

let diff_run ?(ndetect = 0) ~forensics ~scratch:d ~tape:tp ~base ~sim ~seeds
    ~watch ~base_watch ~expected () =
  let n = sim.nnodes in
  let cycles = tp.tp_cycles in
  if tp.tp_nnodes <> base.nnodes then
    invalid_arg "Fsim.diff_run: tape recorded for another simulator";
  if Array.length expected <> cycles then
    invalid_arg "Fsim.diff_run: expected matrix / tape cycle mismatch";
  if Array.length watch <> Array.length base_watch then
    invalid_arg "Fsim.diff_run: watch array length mismatch";
  if ndetect < 0 || ndetect > Array.length watch then
    invalid_arg "Fsim.diff_run: ndetect out of range";
  (* watch layout: functional outputs first, then [ndetect] detection
     nodes (voter disagreement flags, expected Zero on the baseline) *)
  let nfunc = Array.length watch - ndetect in
  dscratch_ensure d n;
  dscratch_suspect_ensure d (Array.length watch);
  (match d.dd_csr_for with
  | Some s when s == sim -> ()  (* content patches keep the edge set *)
  | _ ->
      build_csr d sim;
      d.dd_csr_for <- Some sim);
  Bytes.fill d.dd_mark 0 n '\000';
  Bytes.fill d.dd_fmark 0 n '\000';
  Bytes.fill d.dd_smark 0 n '\000';
  d.dd_fcollect <- forensics;
  if forensics then begin
    Bytes.fill d.dd_divmark 0 n '\000';
    d.dd_fdiverged <- 0;
    d.dd_ffirst_node <- -1;
    d.dd_ffirst_cycle <- -1;
    d.dd_fdepth <- -1
  end;
  (* ---- seeds and cone closure (BFS over the CSR).  The queue is
     emptied in FIFO order, so the depth recorded at first visit is the
     BFS distance from the seed set. ---- *)
  let qtail = ref 0 in
  let queue = d.dd_cone in (* BFS visit list; rebuilt in eval order below *)
  let push v dep =
    if Bytes.get d.dd_mark v = '\000' then begin
      Bytes.set d.dd_mark v '\001';
      d.dd_depth.(v) <- dep;
      queue.(!qtail) <- v;
      incr qtail
    end
  in
  let seed v =
    if Bytes.get d.dd_smark v = '\000' then begin
      Bytes.set d.dd_smark v '\001';
      push v 0
    end
  in
  (match seeds with
  | Seed_node s -> seed s
  | Seed_derived ->
      (* every node whose cell content or pin wiring differs from the
         base, plus every appended node *)
      let bn = base.nnodes in
      for node = 0 to bn - 1 do
        if
          sim.kind.(node) <> base.kind.(node)
          || sim.table.(node) <> base.table.(node)
          || sim.inv.(node) <> base.inv.(node)
          || sim.ce_frozen.(node) <> base.ce_frozen.(node)
          || (not (Logic.equal sim.q_init.(node) base.q_init.(node)))
          || sim.inputs.(node) != base.inputs.(node)
             && sim.inputs.(node) <> base.inputs.(node)
        then seed node
      done;
      for node = bn to n - 1 do
        seed node
      done);
  let qhead = ref 0 in
  while !qhead < !qtail do
    let v = queue.(!qhead) in
    incr qhead;
    let dep = d.dd_depth.(v) + 1 in
    for e = d.dd_off.(v) to d.dd_off.(v + 1) - 1 do
      push d.dd_succ.(e) dep
    done
  done;
  (* ---- cone in evaluation order, grouped by the simulator's SCCs.
     SCC edges are a subset of CSR edges, so reaching one member of a
     cyclic SCC reaches them all: groups are never split. ---- *)
  d.dd_ncone <- 0;
  d.dd_ngrp <- 0;
  d.dd_nregs <- 0;
  d.dd_nseeds <- 0;
  let no_replay = ref false in
  let off = sim.scc_off and snodes = sim.scc_nodes in
  for si = 0 to sim.nsccs - 1 do
    let lo = off.(si) and hi = off.(si + 1) in
    let any = ref false in
    for i = lo to hi - 1 do
      if Bytes.get d.dd_mark snodes.(i) <> '\000' then any := true
    done;
    if !any then begin
      let cyc = Bytes.get sim.scc_cyclic si <> '\000' in
      d.dd_grp.(d.dd_ngrp) <- d.dd_ncone;
      Bytes.set d.dd_gcyc d.dd_ngrp (if cyc then '\001' else '\000');
      d.dd_ngrp <- d.dd_ngrp + 1;
      for i = lo to hi - 1 do
        let node = snodes.(i) in
        d.dd_cone.(d.dd_ncone) <- node;
        d.dd_ncone <- d.dd_ncone + 1;
        if sim.kind.(node) = k_bel_reg then begin
          d.dd_regs.(d.dd_nregs) <- node;
          d.dd_nregs <- d.dd_nregs + 1
        end;
        if Bytes.get d.dd_smark node <> '\000' then begin
          d.dd_seeds.(d.dd_nseeds) <- node;
          d.dd_nseeds <- d.dd_nseeds + 1;
          if cyc then no_replay := true
        end
      done
    end
  done;
  d.dd_grp.(d.dd_ngrp) <- d.dd_ncone;
  (* ---- frontier: non-cone inputs of cone nodes ---- *)
  d.dd_nfrontier <- 0;
  for i = 0 to d.dd_ncone - 1 do
    let ins = sim.inputs.(d.dd_cone.(i)) in
    for j = 0 to Array.length ins - 1 do
      let p = ins.(j) in
      if
        p >= 0
        && Bytes.get d.dd_mark p = '\000'
        && Bytes.get d.dd_fmark p = '\000'
      then begin
        Bytes.set d.dd_fmark p '\001';
        d.dd_frontier.(d.dd_nfrontier) <- p;
        d.dd_nfrontier <- d.dd_nfrontier + 1
      end
    done
  done;
  (* ---- suspect watch indices: remapped by [reroute] or inside the
     cone; every other watched node provably reads its taped value ---- *)
  d.dd_nsuspect <- 0;
  let remapped_old = ref false and remapped_extra = ref false in
  for i = 0 to Array.length watch - 1 do
    let w = watch.(i) in
    let rm = w <> base_watch.(i) in
    if rm || Bytes.get d.dd_mark w <> '\000' then begin
      d.dd_suspect.(d.dd_nsuspect) <- i;
      d.dd_nsuspect <- d.dd_nsuspect + 1;
      if rm then
        if w >= tp.tp_nnodes then remapped_extra := true
        else remapped_old := true
    end
  done;
  (* ---- initial state: X values, q_init registers, fresh dirty ticks
     (everything in the cone is dirty at cycle 0) ---- *)
  let values = sim.values and last = sim.last and q = sim.q in
  for i = 0 to d.dd_ncone - 1 do
    let node = d.dd_cone.(i) in
    values.(node) <- Logic.X;
    last.(node) <- Logic.X
  done;
  for i = 0 to d.dd_nfrontier - 1 do
    let f = d.dd_frontier.(i) in
    values.(f) <- Logic.X;
    last.(f) <- Logic.X
  done;
  for i = 0 to d.dd_nregs - 1 do
    let r = d.dd_regs.(i) in
    q.(r) <- sim.q_init.(r)
  done;
  let tick0 = d.dd_tick + 1 in
  d.dd_tick <- tick0 + cycles + 2;
  for i = 0 to d.dd_ncone - 1 do
    d.dd_dirty.(d.dd_cone.(i)) <- tick0
  done;
  for i = 0 to d.dd_nregs - 1 do
    d.dd_rdirty.(d.dd_regs.(i)) <- tick0
  done;
  (* A node's settled value changed at [tick]: schedule its readers.
     Registers re-latch at this cycle's clock; resolve readers also
     re-evaluate next cycle because the glitch rule reads [last]. *)
  let mark_readers node tick =
    for e = d.dd_off.(node) to d.dd_off.(node + 1) - 1 do
      let s = d.dd_succ.(e) in
      if Bytes.get d.dd_mark s <> '\000' then begin
        let k = sim.kind.(s) in
        if k = k_bel_reg then begin
          if d.dd_rdirty.(s) < tick then d.dd_rdirty.(s) <- tick
        end
        else begin
          let target = if k = k_resolve then tick + 1 else tick in
          if d.dd_dirty.(s) < target then d.dd_dirty.(s) <- target
        end
      end
    done
  in
  (* Seed replay: from a boundary where the cone state equals the tape,
     evaluate only the seeds against taped inputs for every remaining
     cycle.  Old-node seeds must reproduce their taped values; then no
     non-seed cone node can ever see a non-baseline input again. *)
  let rv = d.dd_rv and rvl = d.dd_rvl and rq = d.dd_rq in
  let getv cy p =
    if Bytes.get d.dd_smark p <> '\000' then rv.(p) else tape_get_u tp cy p
  in
  let getl cy p =
    if Bytes.get d.dd_smark p <> '\000' then rvl.(p)
    else tape_get_u tp (cy - 1) p
  in
  let replay_eval cy s =
    let k = sim.kind.(s) in
    if k = k_bel_reg then rq.(s)
    else if k = k_bel_comb then begin
      let pins = sim.inputs.(s) in
      let pv j = if pins.(j) < 0 then Logic.X else getv cy pins.(j) in
      replay_lut sim s (pv 0) (pv 1) (pv 2) (pv 3)
    end
    else if k = k_resolve then begin
      let ins = sim.inputs.(s) in
      let len = Array.length ins in
      if len = 0 then Logic.X
      else begin
        let v = ref (getv cy ins.(0)) in
        for i = 1 to len - 1 do
          v := Logic.resolve !v (getv cy ins.(i))
        done;
        match !v with
        | Logic.X -> Logic.X
        | (Logic.Zero | Logic.One) as sv ->
            let glitch = ref false in
            for i = 0 to len - 1 do
              if not (Logic.equal (getl cy ins.(i)) sv) then glitch := true
            done;
            if !glitch then Logic.X else sv
      end
    end
    else Logic.X (* constx; pads and constants are never seeds *)
  in
  let replay_converges cy =
    for i = 0 to d.dd_nseeds - 1 do
      let s = d.dd_seeds.(i) in
      rv.(s) <- values.(s);
      rvl.(s) <- last.(s);
      if sim.kind.(s) = k_bel_reg then rq.(s) <- q.(s)
    done;
    let ok = ref true in
    let cy' = ref (cy + 1) in
    while !ok && !cy' < cycles do
      let cc = !cy' in
      let i = ref 0 in
      while !ok && !i < d.dd_nseeds do
        let s = d.dd_seeds.(!i) in
        let v = replay_eval cc s in
        rv.(s) <- v;
        if s < tp.tp_nnodes && not (Logic.equal v (tape_get_u tp cc s)) then
          ok := false;
        incr i
      done;
      if !ok then begin
        for i = 0 to d.dd_nseeds - 1 do
          let s = d.dd_seeds.(i) in
          if sim.kind.(s) = k_bel_reg && not sim.ce_frozen.(s) then begin
            let pins = sim.inputs.(s) in
            let pv j = if pins.(j) < 0 then Logic.X else getv cc pins.(j) in
            rq.(s) <- replay_lut sim s (pv 0) (pv 1) (pv 2) (pv 3)
          end
        done;
        for i = 0 to d.dd_nseeds - 1 do
          let s = d.dd_seeds.(i) in
          rvl.(s) <- rv.(s)
        done
      end;
      incr cy'
    done;
    !ok
  in
  let state_matches cy =
    let bn = tp.tp_nnodes in
    let ok = ref true in
    let i = ref 0 in
    while !ok && !i < d.dd_ncone do
      let node = d.dd_cone.(!i) in
      if node < bn && not (Logic.equal values.(node) (tape_get_u tp cy node))
      then ok := false;
      incr i
    done;
    let i = ref 0 in
    while !ok && !i < d.dd_nregs do
      let r = d.dd_regs.(!i) in
      (* cone registers are base nodes; the tape holds the baseline's q
         at the *next* boundary via its settled value then *)
      if not (Logic.equal q.(r) (tape_get_u tp (cy + 1) r)) then ok := false;
      incr i
    done;
    !ok
  in
  (* ---- the per-cycle loop ---- *)
  let error_cycle = ref (-1) in
  let converge_cycle = ref (-1) in
  (* first cycle a detection watch node left Zero; the loop keeps running
     past a functional error until detection also resolves (fires,
     converges away, or the stimulus ends) — and vice versa *)
  let detect_cycle = ref (-1) in
  let det_pending () = ndetect > 0 && !detect_cycle < 0 in
  let cy = ref 0 in
  while
    (!error_cycle < 0 || det_pending ())
    && !converge_cycle < 0
    && !cy < cycles
  do
    let c = !cy in
    let tick = tick0 + c in
    (* frontier values come from the tape; a change schedules readers *)
    for i = 0 to d.dd_nfrontier - 1 do
      let f = d.dd_frontier.(i) in
      let v = tape_get_u tp c f in
      if not (Logic.equal v values.(f)) then begin
        values.(f) <- v;
        mark_readers f tick
      end
    done;
    (* event-driven cone evaluation in SCC order *)
    for g = 0 to d.dd_ngrp - 1 do
      let lo = d.dd_grp.(g) and hi = d.dd_grp.(g + 1) in
      if Bytes.get d.dd_gcyc g = '\000' then begin
        let node = d.dd_cone.(lo) in
        if d.dd_dirty.(node) >= tick then begin
          let v = eval_node sim node in
          if not (Logic.equal v values.(node)) then begin
            values.(node) <- v;
            mark_readers node tick
          end
        end
      end
      else begin
        let dirty = ref false in
        for i = lo to hi - 1 do
          if d.dd_dirty.(d.dd_cone.(i)) >= tick then dirty := true
        done;
        if !dirty then begin
          for i = lo to hi - 1 do
            let node = d.dd_cone.(i) in
            d.dd_old.(node) <- values.(node);
            values.(node) <- Logic.X
          done;
          let changed = ref true in
          let guard = ref ((3 * (hi - lo)) + 4) in
          while !changed && !guard > 0 do
            changed := false;
            decr guard;
            for i = lo to hi - 1 do
              let node = d.dd_cone.(i) in
              let v = eval_node sim node in
              if not (Logic.equal v values.(node)) then begin
                values.(node) <- v;
                changed := true
              end
            done
          done;
          for i = lo to hi - 1 do
            let node = d.dd_cone.(i) in
            if not (Logic.equal values.(node) d.dd_old.(node)) then
              mark_readers node tick
          done
        end
      end
    done;
    (* forensic divergence scan: compare the settled cone against the
       baseline tape.  Read-only with respect to the simulation state, so
       results are bit-identical whether or not it runs. *)
    if forensics then begin
      let bn = tp.tp_nnodes in
      for i = 0 to d.dd_ncone - 1 do
        let node = d.dd_cone.(i) in
        if
          node < bn
          && Bytes.get d.dd_divmark node = '\000'
          && not (Logic.equal values.(node) (tape_get_u tp c node))
        then begin
          Bytes.set d.dd_divmark node '\001';
          d.dd_fdiverged <- d.dd_fdiverged + 1;
          if d.dd_ffirst_node < 0 then begin
            (* dd_cone is in evaluation order: the first hit on the first
               diverging cycle is the topologically-first divergence *)
            d.dd_ffirst_node <- node;
            d.dd_ffirst_cycle <- c
          end;
          if d.dd_depth.(node) > d.dd_fdepth then
            d.dd_fdepth <- d.dd_depth.(node)
        end
      done
    end;
    (* cone-aware output check: only suspects can differ from golden *)
    let exp = expected.(c) in
    let i = ref 0 in
    while (!error_cycle < 0 || det_pending ()) && !i < d.dd_nsuspect do
      let wi = d.dd_suspect.(!i) in
      let w = watch.(wi) in
      let v =
        if Bytes.get d.dd_mark w <> '\000' then values.(w)
        else tape_get_u tp c w
      in
      if not (Logic.equal v exp.(wi)) then
        if wi < nfunc then begin
          if !error_cycle < 0 then error_cycle := c
        end
        else if !detect_cycle < 0 then detect_cycle := c;
      incr i
    done;
    if !error_cycle < 0 || det_pending () then begin
      (* clock the cone registers; a q change dirties readers next cycle *)
      for i = 0 to d.dd_nregs - 1 do
        let r = d.dd_regs.(i) in
        if d.dd_rdirty.(r) >= tick && not sim.ce_frozen.(r) then begin
          let nq = lut_eval sim r in
          if not (Logic.equal nq q.(r)) then begin
            q.(r) <- nq;
            if d.dd_dirty.(r) < tick + 1 then d.dd_dirty.(r) <- tick + 1
          end
        end
      done;
      for i = 0 to d.dd_ncone - 1 do
        let node = d.dd_cone.(i) in
        last.(node) <- values.(node)
      done;
      for i = 0 to d.dd_nfrontier - 1 do
        let f = d.dd_frontier.(i) in
        last.(f) <- values.(f)
      done;
      (* convergence early-exit *)
      if
        c < cycles - 1
        && (not !no_replay)
        && (not !remapped_extra)
        && state_matches c
        && replay_converges c
      then begin
        converge_cycle := c;
        (* a remapped watch keeps reading a different (old) node than
           the baseline run compared: scan its taped values over the
           skipped cycles *)
        if !remapped_old then begin
          let c' = ref (c + 1) in
          while (!error_cycle < 0 || det_pending ()) && !c' < cycles do
            let exp = expected.(!c') in
            let si = ref 0 in
            while (!error_cycle < 0 || det_pending ()) && !si < d.dd_nsuspect
            do
              let wi = d.dd_suspect.(!si) in
              let w = watch.(wi) in
              if
                w <> base_watch.(wi)
                && not (Logic.equal (tape_get_u tp !c' w) exp.(wi))
              then
                if wi < nfunc then begin
                  if !error_cycle < 0 then error_cycle := !c'
                end
                else if !detect_cycle < 0 then detect_cycle := !c';
              incr si
            done;
            incr c'
          done
        end
      end
    end;
    incr cy
  done;
  (!error_cycle, !converge_cycle, !detect_cycle)

(* Forensic view of the last [diff_run]. *)
type diff_forensics = {
  df_collected : bool;
  df_cone : int;
  df_seeds : int;
  df_frontier : int;
  df_diverged : int;
  df_first_node : int;
  df_first_cycle : int;
  df_depth : int;
}

let diff_forensics d =
  {
    df_collected = d.dd_fcollect;
    df_cone = d.dd_ncone;
    df_seeds = d.dd_nseeds;
    df_frontier = d.dd_nfrontier;
    df_diverged = (if d.dd_fcollect then d.dd_fdiverged else -1);
    df_first_node = (if d.dd_fcollect then d.dd_ffirst_node else -1);
    df_first_cycle = (if d.dd_fcollect then d.dd_ffirst_cycle else -1);
    df_depth = (if d.dd_fcollect then d.dd_fdepth else -1);
  }

let diff_node_diverged d node =
  d.dd_fcollect
  && node < Bytes.length d.dd_divmark
  && Bytes.get d.dd_divmark node <> '\000'

(* Test hooks: the cone computed by the last [diff_run]. *)
let diff_cone d = Array.sub d.dd_cone 0 d.dd_ncone

let diff_cone_is_closed d sim =
  let ok = ref true in
  for node = 0 to sim.nnodes - 1 do
    if Bytes.get d.dd_mark node = '\000' then begin
      let ins = sim.inputs.(node) in
      for j = 0 to Array.length ins - 1 do
        let p = ins.(j) in
        if p >= 0 && Bytes.get d.dd_mark p <> '\000' then ok := false
      done
    end
  done;
  !ok

(* ------------------------------------------------------------------ *)
(* Telemetry: shadowing wrappers so every caller is measured.  The
   histograms are process-global Tmr_obs instruments; recording is one
   atomic add per call and needs no registered sink. *)

let m_build_ns = Tmr_obs.Metrics.histogram "fsim.build_ns"
let m_reroute_ns = Tmr_obs.Metrics.histogram "fsim.reroute_ns"
let m_reroute_fallback = Tmr_obs.Metrics.counter "fsim.reroute_fallback"

let build ?ws ex ~watch_outputs =
  let t0 = Tmr_obs.Clock.now_ns () in
  let t = build ?ws ex ~watch_outputs in
  Tmr_obs.Metrics.observe m_build_ns (Tmr_obs.Clock.now_ns () - t0);
  t

let reroute ~scratch c base ex bit =
  let t0 = Tmr_obs.Clock.now_ns () in
  let r = reroute ~scratch c base ex bit in
  Tmr_obs.Metrics.observe m_reroute_ns (Tmr_obs.Clock.now_ns () - t0);
  if Option.is_none r then Tmr_obs.Metrics.incr m_reroute_fallback;
  r
