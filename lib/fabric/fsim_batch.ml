(* Bit-parallel batched differential fault simulation.

   Packs up to [width] = 64 faults into the lanes of 32-bit "possibility
   plane" words ({!Fsim_backend.Lanes}) and runs ONE event-driven cone
   evaluation over the union of the lanes' fanout cones against the
   shared baseline tape, instead of one scalar [Fsim.diff_run] per
   fault.  Each lane's effective circuit is the base graph plus its
   fault overlay ({!Fsim.delta}): truth-table / inversion / init /
   clock-enable cell patches apply word-parallel through per-lane
   masks, while rewired input rows and appended resolve nodes are
   spliced per lane (scalar evaluation of just that lane's bit).

   Verdicts are bit-identical to the scalar differential engine fault
   by fault: the per-cycle plane values of a lane equal the values the
   scalar engine computes for that fault (the union cone is a closed
   superset of each lane's own cone, and nodes a fault does not reach
   reproduce the tape exactly), the watched-output check runs at the
   same point of the cycle, and the per-lane convergence early-exit
   replays the same seed set under the same rules.

   The union graph may be cyclic even though every lane's effective
   circuit is acyclic: lane A's rewired row can read a node that is
   downstream of lane B's cone.  Such cycles are harmless — the
   per-cycle evaluation sweeps the members until no plane changes, and
   since every lane's own dependency graph is acyclic the sweeps reach
   each lane's unique (scalar-identical) fixpoint.  What IS rejected
   ([run] returns [None], scalar fallback): any union-cone node in a
   cyclic SCC of the base graph (the scalar engine iterates those to a
   Kleene fixpoint with different intra-cycle semantics), and any lane
   whose own effective circuit is cyclic (a bridge fault closing a
   combinational loop). *)

module Logic = Tmr_logic.Logic
module Lanemask = Tmr_logic.Bitvec.Lanemask
module Lanes = Fsim_backend.Lanes
module Scalar = Fsim_backend.Scalar
module F = Fsim

exception Ineligible

let bail (_reason : string) = raise Ineligible

type verdict = {
  bv_error_cycle : int;
  bv_converge_cycle : int;
  bv_detect_cycle : int;
}

let width = 64
let stride = width / 32  (* plane words per node *)

type t = {
  base : F.t;
  view : F.view;
  csr_off : int array;
  csr_succ : int array;
  bel_of : int array;
  cyc_node : Bytes.t;  (* per base node: in a cyclic SCC *)
  base_pos : int array;  (* per base node: base evaluation-order index *)
  (* capacity-managed per-node state (base nodes + appended extras) *)
  mutable cap : int;
  mutable h : int array;  (* value planes, node * stride + sub *)
  mutable l : int array;
  mutable lh : int array;  (* previous-cycle planes (glitch rule) *)
  mutable ll : int array;
  mutable qh : int array;  (* register state planes *)
  mutable ql : int array;
  mutable mark : Bytes.t;  (* '\001' = union-cone member *)
  mutable fmark : Bytes.t;  (* '\001' = frontier *)
  mutable dirty : int array;  (* per node: tick stamp *)
  mutable rdirty : int array;  (* per register: tick stamp *)
  mutable rstamp : int array;  (* per node: replay epoch stamp *)
  mutable order : int array;  (* members in topological order *)
  mutable pos : int array;  (* member -> topological index *)
  mutable indeg : int array;
  mutable queue : int array;
  mutable members : int array;
  mutable frontier : int array;
  mutable regs : int array;
  mutable tick : int;  (* monotone across runs *)
  mutable repoch : int;  (* monotone across replays *)
  mutable rv : Logic.t array;  (* replay overlay: value *)
  mutable rvl : Logic.t array;  (* replay overlay: last *)
  mutable rq : Logic.t array;  (* replay overlay: register state *)
  (* evaluation scratch *)
  t1s : int array;  (* 16: per-minterm table lane-masks of one sub *)
  phs : int array;  (* 4: per-pin H planes, inversion applied *)
  pls : int array;
  newh : int array;  (* stride: the value being built *)
  newl : int array;
  mutable resh : int array;  (* growable resolve-driver scratch *)
  mutable resl : int array;
  mutable reslh : int array;
  mutable resll : int array;
  (* divergence state, all-zero between runs (each run clears the
     entries of its own members on the way out) *)
  mutable dv : int array;  (* per node: lanes diverged from the tape *)
  mutable dvl : int array;  (* divergence as of the last boundary *)
  mutable dq : int array;  (* register-state divergence *)
  mutable dmark : Bytes.t;  (* '\001' = on [dlist] *)
  mutable dlist : int array;  (* nodes with a non-empty [dv] word *)
  (* tape-value broadcast memo, stamped by cycle; valid across runs
     while the worker keeps handing in the same tape *)
  tb_h : int array;
  tb_l : int array;
  tb_c : int array;
  tpb_h : int array;
  tpb_l : int array;
  tpb_c : int array;
  mutable last_tape : F.tape option;
  mutable last_cone : int array;  (* test hook *)
  mutable last_nm : int;
}

let ensure t n =
  if t.cap < n then begin
    let cap = max n (max 1024 (2 * t.cap)) in
    t.cap <- cap;
    let ps = cap * stride in
    t.h <- Array.make ps 0;
    t.l <- Array.make ps 0;
    t.lh <- Array.make ps 0;
    t.ll <- Array.make ps 0;
    t.qh <- Array.make ps 0;
    t.ql <- Array.make ps 0;
    t.mark <- Bytes.make cap '\000';
    t.fmark <- Bytes.make cap '\000';
    (* fresh stamps start at 0 < any live tick/epoch: never stale *)
    t.dirty <- Array.make cap 0;
    t.rdirty <- Array.make cap 0;
    t.rstamp <- Array.make cap 0;
    t.order <- Array.make cap 0;
    t.pos <- Array.make cap 0;
    t.indeg <- Array.make cap 0;
    t.queue <- Array.make cap 0;
    t.members <- Array.make cap 0;
    t.frontier <- Array.make cap 0;
    t.regs <- Array.make cap 0;
    t.rv <- Array.make cap Logic.X;
    t.rvl <- Array.make cap Logic.X;
    t.rq <- Array.make cap Logic.X;
    t.dv <- Array.make ps 0;
    t.dvl <- Array.make ps 0;
    t.dq <- Array.make ps 0;
    t.dmark <- Bytes.make cap '\000';
    t.dlist <- Array.make (cap + 1) 0
  end

let res_ensure t n =
  if Array.length t.resh < n then begin
    let c = max n ((2 * Array.length t.resh) + 8) in
    t.resh <- Array.make c 0;
    t.resl <- Array.make c 0;
    t.reslh <- Array.make c 0;
    t.resll <- Array.make c 0
  end

let create base cone =
  let v = F.view base in
  let csr_off, csr_succ = F.reader_csr base in
  let bel_of = F.bel_map cone base in
  let bn = v.F.v_nnodes in
  let cyc_node = Bytes.make (max 1 bn) '\000' in
  for si = 0 to v.F.v_nsccs - 1 do
    if Bytes.get v.F.v_scc_cyclic si <> '\000' then
      for i = v.F.v_scc_off.(si) to v.F.v_scc_off.(si + 1) - 1 do
        Bytes.set cyc_node v.F.v_scc_nodes.(i) '\001'
      done
  done;
  let base_pos = Array.make (max 1 bn) 0 in
  Array.iteri (fun i u -> base_pos.(u) <- i) v.F.v_scc_nodes;
  let t =
    {
      base;
      view = v;
      csr_off;
      csr_succ;
      bel_of;
      cyc_node;
      base_pos;
      cap = 0;
      h = [||];
      l = [||];
      lh = [||];
      ll = [||];
      qh = [||];
      ql = [||];
      mark = Bytes.empty;
      fmark = Bytes.empty;
      dirty = [||];
      rdirty = [||];
      rstamp = [||];
      order = [||];
      pos = [||];
      indeg = [||];
      queue = [||];
      members = [||];
      frontier = [||];
      regs = [||];
      tick = 0;
      repoch = 0;
      rv = [||];
      rvl = [||];
      rq = [||];
      t1s = Array.make 16 0;
      phs = Array.make 4 0;
      pls = Array.make 4 0;
      newh = Array.make stride 0;
      newl = Array.make stride 0;
      resh = [||];
      resl = [||];
      reslh = [||];
      resll = [||];
      dv = [||];
      dvl = [||];
      dq = [||];
      dmark = Bytes.empty;
      dlist = [||];
      tb_h = Array.make (max 1 bn) 0;
      tb_l = Array.make (max 1 bn) 0;
      tb_c = Array.make (max 1 bn) (-1);
      tpb_h = Array.make (max 1 bn) 0;
      tpb_l = Array.make (max 1 bn) 0;
      tpb_c = Array.make (max 1 bn) (-1);
      last_tape = None;
      last_cone = [||];
      last_nm = 0;
    }
  in
  ensure t (bn + 64);
  t

let csr t = (t.csr_off, t.csr_succ)
let bel_of t = t.bel_of
let last_cone t = Array.sub t.last_cone 0 t.last_nm

(* Index of the single set bit of [m] (an isolated power of two). *)
let rec bit_index m i = if m land 1 = 1 then i else bit_index (m lsr 1) (i + 1)

let run t ?(ndetect = 0) ~tape ~expected ~watch ~lanes () =
  let v = t.view in
  let bn = v.F.v_nnodes in
  let nlanes = Array.length lanes in
  if nlanes = 0 || nlanes > width then
    invalid_arg "Fsim_batch.run: lane count out of range";
  if ndetect < 0 || ndetect > Array.length watch then
    invalid_arg "Fsim_batch.run: ndetect out of range";
  let nfunc = Array.length watch - ndetect in
  if F.tape_nnodes tape <> bn then
    invalid_arg "Fsim_batch.run: tape recorded for another simulator";
  let cycles = F.tape_cycles tape in
  if Array.length expected <> cycles then
    invalid_arg "Fsim_batch.run: expected matrix / tape cycle mismatch";
  let ns = (nlanes + 31) / 32 in
  let fullw = Lanes.full in
  try
    (* ---- lane address space: extras of lane i live at
       [lane_extbase.(i) ..], after every base node ---- *)
    let lane_extbase = Array.make nlanes 0 in
    let tot = ref 0 in
    Array.iteri
      (fun li d ->
        lane_extbase.(li) <- bn + !tot;
        tot := !tot + Array.length d.F.dl_extras)
      lanes;
    let tot_extras = !tot in
    let nn = bn + tot_extras in
    ensure t nn;
    let ext_row = Array.make (max 1 tot_extras) [||] in
    let ext_lane = Array.make (max 1 tot_extras) 0 in
    (* ---- per-lane overlays ---- *)
    let tbl_t1 : (int, int array) Hashtbl.t = Hashtbl.create 8 in
    let tbl_im : (int, int array) Hashtbl.t = Hashtbl.create 4 in
    let tbl_ce : (int, int array) Hashtbl.t = Hashtbl.create 4 in
    let tbl_qi : (int, int array * int array) Hashtbl.t = Hashtbl.create 4 in
    let tbl_rows : (int, (int * int array) list ref) Hashtbl.t =
      Hashtbl.create 16
    in
    let radj : (int, int list ref) Hashtbl.t = Hashtbl.create 32 in
    let radj_add p r =
      match Hashtbl.find_opt radj p with
      | Some lst -> lst := r :: !lst
      | None -> Hashtbl.add radj p (ref [ r ])
    in
    let lane_cell = Array.make nlanes None in
    let lane_rows : (int * int array) list array = Array.make nlanes [] in
    let lane_seeds : int list array = Array.make nlanes [] in
    let t1_of node =
      match Hashtbl.find_opt tbl_t1 node with
      | Some a -> a
      | None ->
          let table = v.F.v_table.(node) in
          let a =
            Array.init (16 * ns) (fun i ->
                if (table lsr (i / ns)) land 1 = 1 then fullw else 0)
          in
          Hashtbl.add tbl_t1 node a;
          a
    in
    let im_of node =
      match Hashtbl.find_opt tbl_im node with
      | Some a -> a
      | None ->
          let inv = v.F.v_inv.(node) in
          let a =
            Array.init (4 * ns) (fun i ->
                if (inv lsr (i / ns)) land 1 = 1 then fullw else 0)
          in
          Hashtbl.add tbl_im node a;
          a
    in
    let ce_of node =
      match Hashtbl.find_opt tbl_ce node with
      | Some a -> a
      | None ->
          let a =
            Array.make ns (if v.F.v_ce_frozen.(node) then fullw else 0)
          in
          Hashtbl.add tbl_ce node a;
          a
    in
    let qi_of node =
      match Hashtbl.find_opt tbl_qi node with
      | Some p -> p
      | None ->
          let q = v.F.v_q_init.(node) in
          let p =
            ( Array.make ns (Lanes.broadcast_h q),
              Array.make ns (Lanes.broadcast_l q) )
          in
          Hashtbl.add tbl_qi node p;
          p
    in
    Array.iteri
      (fun li d ->
        let sub = li lsr 5 and bit = li land 31 in
        let m = 1 lsl bit in
        let seeds = ref [] in
        (match d.F.dl_cell with
        | None -> ()
        | Some (node, p) ->
            if node < 0 || node >= bn then bail "node out of range";
            lane_cell.(li) <- Some (node, p);
            seeds := node :: !seeds;
            (match p with
            | F.Cp_table tbl ->
                let a = t1_of node in
                for mt = 0 to 15 do
                  let i = (mt * ns) + sub in
                  if (tbl lsr mt) land 1 = 1 then a.(i) <- a.(i) lor m
                  else a.(i) <- a.(i) land lnot m
                done
            | F.Cp_inv iv ->
                let a = im_of node in
                for j = 0 to 3 do
                  let i = (j * ns) + sub in
                  if (iv lsr j) land 1 = 1 then a.(i) <- a.(i) lor m
                  else a.(i) <- a.(i) land lnot m
                done
            | F.Cp_qinit q ->
                let ah, al = qi_of node in
                if Lanes.broadcast_h q <> 0 then ah.(sub) <- ah.(sub) lor m
                else ah.(sub) <- ah.(sub) land lnot m;
                if Lanes.broadcast_l q <> 0 then al.(sub) <- al.(sub) lor m
                else al.(sub) <- al.(sub) land lnot m
            | F.Cp_ce b ->
                let a = ce_of node in
                if b then a.(sub) <- a.(sub) lor m
                else a.(sub) <- a.(sub) land lnot m));
        let remap p =
          if p < 0 then -1
          else if p < bn then p
          else lane_extbase.(li) + (p - bn)
        in
        Array.iter
          (fun (node, row) ->
            if node < 0 || node >= bn then bail "node out of range";
            let rrow = Array.map remap row in
            (match Hashtbl.find_opt tbl_rows node with
            | Some r -> r := (li, rrow) :: !r
            | None -> Hashtbl.add tbl_rows node (ref [ (li, rrow) ]));
            lane_rows.(li) <- (node, rrow) :: lane_rows.(li);
            seeds := node :: !seeds;
            Array.iter (fun p -> if p >= 0 then radj_add p node) rrow)
          d.F.dl_rows;
        Array.iteri
          (fun i (ins, _res_wires) ->
            let uid = lane_extbase.(li) + i in
            let rins = Array.map remap ins in
            ext_row.(uid - bn) <- rins;
            ext_lane.(uid - bn) <- li;
            seeds := uid :: !seeds;
            Array.iter (fun p -> if p >= 0 then radj_add p uid) rins)
          d.F.dl_extras;
        lane_seeds.(li) <- !seeds)
      lanes;
    (* ---- union cone: BFS closure of every lane's seeds over the base
       reader CSR plus the overlay reader edges ---- *)
    Bytes.fill t.mark 0 nn '\000';
    Bytes.fill t.fmark 0 nn '\000';
    let qhd = ref 0 and qtl = ref 0 in
    let push u =
      if Bytes.get t.mark u = '\000' then begin
        Bytes.set t.mark u '\001';
        t.queue.(!qtl) <- u;
        incr qtl
      end
    in
    Array.iter (fun sl -> List.iter push sl) lane_seeds;
    while !qhd < !qtl do
      let u = t.queue.(!qhd) in
      incr qhd;
      if u < bn then
        for e = t.csr_off.(u) to t.csr_off.(u + 1) - 1 do
          push t.csr_succ.(e)
        done;
      match Hashtbl.find_opt radj u with
      | Some lst -> List.iter push !lst
      | None -> ()
    done;
    let nm = !qtl in
    Array.blit t.queue 0 t.members 0 nm;
    (* cyclic SCCs need per-fault Kleene iteration: scalar fallback *)
    for i = 0 to nm - 1 do
      let u = t.members.(i) in
      if u < bn && Bytes.get t.cyc_node u <> '\000' then bail "cyclic SCC member"
    done;
    (* ---- edges of a member: base row, overlay rows, extra inputs ---- *)
    let iter_edges r f =
      (if r < bn then begin
         let ins = v.F.v_inputs.(r) in
         for j = 0 to Array.length ins - 1 do
           if ins.(j) >= 0 then f ins.(j)
         done
       end
       else
         let ins = ext_row.(r - bn) in
         for j = 0 to Array.length ins - 1 do
           if ins.(j) >= 0 then f ins.(j)
         done);
      match Hashtbl.find_opt tbl_rows r with
      | Some rl ->
          List.iter
            (fun (_, row) -> Array.iter (fun p -> if p >= 0 then f p) row)
            !rl
      | None -> ()
    in
    (* ---- topological order (Kahn) over member-internal combinational
       edges.  Registers are sources, exactly as in the base engine's
       Tarjan ([dep] of a register is empty): their per-cycle value is
       the q planes, and their input row is read only at the clock
       edge, after every combinational member settled.  A leftover is a
       cycle in the UNION graph; the nodes involved are appended at the
       end of the order and settled by extra evaluation sweeps — exact
       as long as each lane's own circuit is acyclic, which is checked
       below. ---- *)
    let is_reg u = u < bn && v.F.v_kind.(u) = F.kind_bel_reg in
    for i = 0 to nm - 1 do
      let r = t.members.(i) in
      if is_reg r then t.indeg.(r) <- 0
      else begin
        let c = ref 0 in
        iter_edges r (fun p -> if Bytes.get t.mark p <> '\000' then incr c);
        t.indeg.(r) <- !c
      end
    done;
    let khd = ref 0 and ktl = ref 0 in
    for i = 0 to nm - 1 do
      let u = t.members.(i) in
      if t.indeg.(u) = 0 then begin
        t.queue.(!ktl) <- u;
        incr ktl
      end
    done;
    let ot = ref 0 in
    while !khd < !ktl do
      let u = t.queue.(!khd) in
      incr khd;
      t.order.(!ot) <- u;
      t.pos.(u) <- !ot;
      incr ot;
      let dec s =
        if Bytes.get t.mark s <> '\000' && not (is_reg s) then begin
          t.indeg.(s) <- t.indeg.(s) - 1;
          if t.indeg.(s) = 0 then begin
            t.queue.(!ktl) <- s;
            incr ktl
          end
        end
      in
      if u < bn then
        for e = t.csr_off.(u) to t.csr_off.(u + 1) - 1 do
          dec t.csr_succ.(e)
        done;
      match Hashtbl.find_opt radj u with
      | Some lst -> List.iter dec !lst
      | None -> ()
    done;
    (* effective input row of [u] in lane [li]'s circuit (combinational
       reads; a register has none — its row is read at the clock) *)
    let eff_row_of li u =
      if u >= bn then ext_row.(u - bn)
      else if v.F.v_kind.(u) = F.kind_bel_reg then [||]
      else
        match List.assoc_opt u lane_rows.(li) with
        | Some r -> r
        | None -> v.F.v_inputs.(u)
    in
    let lane_dead = Array.make nlanes false in
    let kahn_len = !ot in
    let have_backedges = !ot < nm in
    let scc_starts = ref [||] in
    if have_backedges then begin
      (* Append the leftover (union-cycle) nodes grouped by the SCCs of
         the leftover subgraph, dependencies first (successors = inputs,
         mirroring the base engine's Tarjan): the per-cycle loop then
         settles each SCC locally instead of re-sweeping the whole
         suffix, and cross-SCC re-marks can only point forward.
         Exactness needs every lane's OWN circuit to be acyclic — any
         per-lane cycle lies entirely inside the leftover set (Kahn
         peels everything not on or downstream of a cycle), so DFS each
         lane's effective edges restricted to it.  A lane whose
         rewiring closed a real feedback loop (bridges can) is declined
         alone: its bits stay frozen at X and the caller reruns just
         that fault on the scalar engine. *)
      let leftover = ref [] in
      for i = nm - 1 downto 0 do
        let u = t.members.(i) in
        if Bytes.get t.mark u <> '\000' && t.indeg.(u) > 0 then
          leftover := u :: !leftover
      done;
      let in_lo p = Bytes.get t.mark p <> '\000' && t.indeg.(p) > 0 in
      let lsucc = Array.make nn [] in
      List.iter
        (fun u ->
          let acc = ref [] in
          iter_edges u (fun p -> if in_lo p then acc := p :: !acc);
          lsucc.(u) <- !acc)
        !leftover;
      let idxa = Array.make nn (-1) in
      let lowa = Array.make nn 0 in
      let onst = Bytes.make nn '\000' in
      let tstk = ref [] in
      let nidx = ref 0 in
      let starts = ref [] in
      let frames : (int * int list ref) Stack.t = Stack.create () in
      let start u =
        idxa.(u) <- !nidx;
        lowa.(u) <- !nidx;
        incr nidx;
        tstk := u :: !tstk;
        Bytes.set onst u '\001';
        Stack.push (u, ref lsucc.(u)) frames
      in
      let visit_root r =
        if idxa.(r) < 0 then begin
          start r;
          while not (Stack.is_empty frames) do
            let u, rest = Stack.top frames in
            match !rest with
            | p :: tl ->
                rest := tl;
                if idxa.(p) < 0 then start p
                else if Bytes.get onst p = '\001' && idxa.(p) < lowa.(u) then
                  lowa.(u) <- idxa.(p)
            | [] ->
                ignore (Stack.pop frames);
                let lu = lowa.(u) in
                (match Stack.top_opt frames with
                | Some (par, _) -> if lu < lowa.(par) then lowa.(par) <- lu
                | None -> ());
                if lu = idxa.(u) then begin
                  let s0 = !ot in
                  starts := s0 :: !starts;
                  let brk = ref false in
                  while not !brk do
                    match !tstk with
                    | x :: tl ->
                        tstk := tl;
                        Bytes.set onst x '\000';
                        t.order.(!ot) <- x;
                        incr ot;
                        if x = u then brk := true
                    | [] -> brk := true
                  done;
                  (* within the SCC, base evaluation order makes every
                     base edge forward — only the handful of overlay
                     back edges force extra local iterations.  An extra
                     node slots just before its first reader. *)
                  if !ot - s0 > 1 then begin
                    let key x =
                      if x < bn then 2 * t.base_pos.(x)
                      else
                        match Hashtbl.find_opt radj x with
                        | Some lst ->
                            List.fold_left
                              (fun acc r ->
                                if r < bn then
                                  min acc ((2 * t.base_pos.(r)) - 1)
                                else acc)
                              max_int !lst
                        | None -> max_int
                    in
                    let chunk = Array.sub t.order s0 (!ot - s0) in
                    Array.sort (fun a b -> compare (key a) (key b)) chunk;
                    Array.blit chunk 0 t.order s0 (!ot - s0)
                  end;
                  for i = s0 to !ot - 1 do
                    t.pos.(t.order.(i)) <- i
                  done
                end
          done
        end
      in
      List.iter visit_root !leftover;
      scc_starts := Array.of_list (List.rev !starts);
      let in_l u =
        u >= 0 && Bytes.get t.mark u <> '\000' && t.indeg.(u) > 0
      in
      let exception Lane_cycle in
      (* the base graph is acyclic here (a cyclic-SCC member bails the
         whole batch), so a lane's effective circuit can only close a
         cycle through one of its OWN overlay edges — a rerouted input
         row or an extra node's reads — and the cycle lies entirely
         inside the leftover set.  A lane with no overlay source node
         in the leftover needs no acyclicity check at all, which skips
         the DFS for every pure cell-content lane. *)
      let needs_check = Array.make nlanes false in
      for li = 0 to nlanes - 1 do
        if List.exists (fun (u, _) -> in_l u) lane_rows.(li) then
          needs_check.(li) <- true
      done;
      Array.iteri
        (fun j li -> if in_l (bn + j) then needs_check.(li) <- true)
        ext_lane;
      (* colors, epoch-stamped: [ep lsl 1] done, [(ep lsl 1) lor 1] on
         stack, older epoch = unvisited *)
      let col = Array.make nn 0 in
      let epoch = ref 0 in
      for li = 0 to nlanes - 1 do
        if needs_check.(li) then begin
          incr epoch;
          let ep = !epoch in
          let rec visit u =
            let cu = col.(u) in
            if cu asr 1 = ep then begin
              if cu land 1 = 1 then raise Lane_cycle
            end
            else if
              (* own-lane circuit only: skip other lanes' extras *)
              u < bn || ext_lane.(u - bn) = li
            then begin
              col.(u) <- (ep lsl 1) lor 1;
              Array.iter (fun p -> if in_l p then visit p) (eff_row_of li u);
              col.(u) <- ep lsl 1
            end
            else col.(u) <- ep lsl 1
          in
          try
            (* any cycle passes through an overlay edge of this lane,
               so DFS only from the overlay source nodes: the cycle is
               reachable from (in fact contains) one of them *)
            List.iter (fun (u, _) -> if in_l u then visit u) lane_rows.(li);
            for j = 0 to tot_extras - 1 do
              if ext_lane.(j) = li && in_l (bn + j) then visit (bn + j)
            done
          with Lane_cycle -> lane_dead.(li) <- true
        end
      done
    end;
    t.last_nm <- nm;
    t.last_cone <- Array.sub t.order 0 nm;
    (* live lane bits: declined lanes are masked out of every value
       commit, so their (possibly oscillating) cyclic circuits stay
       frozen at the initial X and cannot stall the sweeps *)
    let live = Array.make ns fullw in
    Array.iteri
      (fun li d ->
        if d then
          live.(li lsr 5) <- live.(li lsr 5) land lnot (1 lsl (li land 31)))
      lane_dead;
    (* ---- registers and frontier ---- *)
    let nregs = ref 0 in
    for i = 0 to nm - 1 do
      let u = t.members.(i) in
      if u < bn && v.F.v_kind.(u) = F.kind_bel_reg then begin
        t.regs.(!nregs) <- u;
        incr nregs
      end
    done;
    let nregs = !nregs in
    let nfrontier = ref 0 in
    for i = 0 to nm - 1 do
      iter_edges t.members.(i) (fun p ->
          if Bytes.get t.mark p = '\000' && Bytes.get t.fmark p = '\000'
          then begin
            Bytes.set t.fmark p '\001';
            t.frontier.(!nfrontier) <- p;
            incr nfrontier
          end)
    done;
    let nfrontier = !nfrontier in
    (* per-lane seeds, deduplicated, ordered for replay: the scalar
       replay evaluates seeds in the fault's own cone order, but only
       DIRECT seed->seed effective edges constrain it (non-seed inputs
       read the tape).  Union positions respect lane edges everywhere
       except inside the leftover set, so refine there with a stable
       seed-level Kahn over each lane's direct effective edges
       (registers read their row at the clock - no incoming edge) *)
    let lane_seed_arr =
      Array.mapi
        (fun li sl ->
          let a = Array.of_list (List.sort_uniq compare sl) in
          Array.sort (fun x y -> compare t.pos.(x) t.pos.(y)) a;
          let nsd = Array.length a in
          if lane_dead.(li) || (not have_backedges) || nsd <= 1 then a
          else begin
            let idx s =
              let r = ref (-1) in
              for j = 0 to nsd - 1 do
                if a.(j) = s then r := j
              done;
              !r
            in
            let row = Array.map (fun s -> eff_row_of li s) a in
            let done_ = Array.make nsd false in
            let out = Array.make nsd 0 in
            for k = 0 to nsd - 1 do
              let pick = ref (-1) in
              let j = ref 0 in
              while !pick < 0 && !j < nsd do
                if not done_.(!j) then begin
                  let ready = ref true in
                  Array.iter
                    (fun p ->
                      let pj = idx p in
                      if pj >= 0 && not done_.(pj) then ready := false)
                    row.(!j);
                  if !ready then pick := !j
                end;
                incr j
              done;
              if !pick < 0 then bail "cyclic seed set";
              done_.(!pick) <- true;
              out.(k) <- a.(!pick)
            done;
            out
          end)
        lane_seeds
    in
    (* suspect watch indices: inside the union cone (the engine never
       accepts watch-remapping faults, so there are no others) *)
    let suspects = ref [] in
    Array.iteri
      (fun wi w ->
        if w >= 0 && w < bn && Bytes.get t.mark w <> '\000' then
          suspects := wi :: !suspects)
      watch;
    let suspects = Array.of_list (List.rev !suspects) in
    (* ---- divergence state (PROOFS-style difference simulation).
       Stored planes are meaningful only on the lanes recorded in the
       per-node divergence word [dv]; every other lane implicitly holds
       the tape value of the current cycle, so tape switching costs
       nothing — work is proportional to actual divergence, not to cone
       activity.  [dvl] is the divergence word as of the last boundary
       (glitch-rule reads), [dq] the register-state divergence against
       the next boundary's tape.  [mcnt] counts diverged base members
       per lane — the convergence test's "cone equals the tape" is then
       a zero check.  [dlist] is the active set: nodes with a non-empty
       divergence word, woken (with their readers) at each cycle start
       because their tape-following inputs may move. *)
    let h = t.h and l = t.l and lh = t.lh and ll = t.ll in
    let dv = t.dv and dvl = t.dvl and dq = t.dq in
    let mcnt = Array.make nlanes 0 in
    let dmark = t.dmark in
    let dlist = t.dlist in
    let ndl = ref 0 in
    let dpush u =
      if Bytes.get dmark u = '\000' then begin
        Bytes.set dmark u '\001';
        dlist.(!ndl) <- u;
        incr ndl
      end
    in
    let cur_c = ref 0 in
    (* extras exist only in their own lane's circuit: permanently
       diverged there (they have no tape value), implicitly X to every
       other lane *)
    for e = 0 to tot_extras - 1 do
      let u = bn + e in
      if Bytes.get t.mark u <> '\000' then begin
        let li = ext_lane.(e) in
        let w = 1 lsl (li land 31) in
        dv.((u * stride) + (li lsr 5)) <- w;
        dvl.((u * stride) + (li lsr 5)) <- w;
        dpush u
      end
    done;
    let tick0 = t.tick + 1 in
    t.tick <- tick0 + cycles + 2;
    for i = 0 to nregs - 1 do
      let r = t.regs.(i) in
      let b = r * stride in
      (match Hashtbl.find_opt tbl_qi r with
      | Some (ah, al) ->
          for s = 0 to ns - 1 do
            t.qh.(b + s) <- ah.(s);
            t.ql.(b + s) <- al.(s)
          done
      | None ->
          let hh = Lanes.broadcast_h v.F.v_q_init.(r)
          and lw = Lanes.broadcast_l v.F.v_q_init.(r) in
          for s = 0 to ns - 1 do
            t.qh.(b + s) <- hh;
            t.ql.(b + s) <- lw
          done);
      (* initial register-state divergence (patched q-init) *)
      let tv = F.tape_get_u tape 0 r in
      let nz = ref false in
      for s = 0 to ns - 1 do
        let d =
          Lanes.mismatch ~h:t.qh.(b + s) ~l:t.ql.(b + s) tv land live.(s)
        in
        dq.(b + s) <- d;
        if d <> 0 then nz := true
      done;
      if !nz then t.dirty.(r) <- tick0
    done;
    (* fault sites, deduplicated across live lanes: woken every cycle —
       their patched logic computes from tape-following inputs, so
       divergence can (re)appear there at any cycle without any event *)
    let seed_nodes =
      let smark = Bytes.make nn '\000' in
      let acc = ref [] in
      Array.iteri
        (fun li sl ->
          if not lane_dead.(li) then
            List.iter
              (fun u ->
                if Bytes.get smark u = '\000' then begin
                  Bytes.set smark u '\001';
                  acc := u :: !acc
                end)
              sl)
        lane_seeds;
      Array.of_list !acc
    in
    let nseednodes = Array.length seed_nodes in
    (* ---- event scheme (mirrors the scalar engine's mark_readers).
       [pu] is the marking node's topological position: marking a
       combinational member at or behind it is a union-graph back edge,
       so the current sweep must run again to settle it. ---- *)
    let sweep_again = ref false in
    let mark_readers u tick ~pu =
      let m1 s =
        if Bytes.get t.mark s <> '\000' then begin
          let k = if s < bn then v.F.v_kind.(s) else F.kind_resolve in
          if k = F.kind_bel_reg then begin
            if t.rdirty.(s) < tick then t.rdirty.(s) <- tick
          end
          else begin
            let tg = if k = F.kind_resolve then tick + 1 else tick in
            if t.dirty.(s) < tg then t.dirty.(s) <- tg;
            if t.pos.(s) <= pu then sweep_again := true
          end
        end
      in
      if u < bn then
        for e = t.csr_off.(u) to t.csr_off.(u + 1) - 1 do
          m1 t.csr_succ.(e)
        done;
      match Hashtbl.find_opt radj u with
      | Some lst -> List.iter m1 !lst
      | None -> ()
    in
    (* ---- per-lane effective circuit (row splices and replay) ---- *)
    let eff_table li u =
      match lane_cell.(li) with
      | Some (n, F.Cp_table tb) when n = u -> tb
      | _ -> v.F.v_table.(u)
    in
    let eff_inv li u =
      match lane_cell.(li) with
      | Some (n, F.Cp_inv iv) when n = u -> iv
      | _ -> v.F.v_inv.(u)
    in
    let eff_frozen li u =
      match lane_cell.(li) with
      | Some (n, F.Cp_ce b) when n = u -> b
      | _ -> v.F.v_ce_frozen.(u)
    in
    (* single-lane reads (scalar splice paths and replay): an
       undiverged lane holds the tape value implicitly *)
    let lane_v p sub bit =
      let bp = (p * stride) + sub in
      if dv.(bp) land (1 lsl bit) <> 0 then Lanes.lane ~h:h.(bp) ~l:l.(bp) bit
      else if p < bn then F.tape_get_u tape !cur_c p
      else Logic.X
    in
    let lane_lv p sub bit =
      let bp = (p * stride) + sub in
      if dvl.(bp) land (1 lsl bit) <> 0 then
        Lanes.lane ~h:lh.(bp) ~l:ll.(bp) bit
      else if p < bn && !cur_c > 0 then F.tape_get_u tape (!cur_c - 1) p
      else Logic.X
    in
    let splice vv sub bit =
      let m = 1 lsl bit in
      t.newh.(sub) <-
        t.newh.(sub) land lnot m lor (Lanes.broadcast_h vv land m);
      t.newl.(sub) <-
        t.newl.(sub) land lnot m lor (Lanes.broadcast_l vv land m)
    in
    let scalar_resolve row sub bit =
      let n = Array.length row in
      if n = 0 then Logic.X
      else begin
        let vr = ref (lane_v row.(0) sub bit) in
        for i = 1 to n - 1 do
          vr := Logic.resolve !vr (lane_v row.(i) sub bit)
        done;
        match !vr with
        | Logic.X -> Logic.X
        | (Logic.Zero | Logic.One) as sv ->
            let g = ref false in
            for i = 0 to n - 1 do
              if not (Logic.equal (lane_lv row.(i) sub bit) sv) then g := true
            done;
            if !g then Logic.X else sv
      end
    in
    (* tape-value broadcast planes, memoized per node per cycle: every
       undiverged lane of [p] reads the same tape bit, and a node is
       read by several members within one cycle.  The memo survives
       across runs as long as the worker keeps the same tape. *)
    (match t.last_tape with
    | Some tp when tp == tape -> ()
    | _ ->
        Array.fill t.tb_c 0 bn (-1);
        Array.fill t.tpb_c 0 bn (-1);
        t.last_tape <- Some tape);
    let tb_h = t.tb_h and tb_l = t.tb_l and tb_c = t.tb_c in
    let tape_bcast p =
      if tb_c.(p) <> !cur_c then begin
        let tv = F.tape_get_u tape !cur_c p in
        tb_h.(p) <- Lanes.broadcast_h tv;
        tb_l.(p) <- Lanes.broadcast_l tv;
        tb_c.(p) <- !cur_c
      end
    in
    let tpb_h = t.tpb_h and tpb_l = t.tpb_l and tpb_c = t.tpb_c in
    let tape_bcast_prev p =
      (* caller guarantees [!cur_c > 0] *)
      if tpb_c.(p) <> !cur_c then begin
        let tv = F.tape_get_u tape (!cur_c - 1) p in
        tpb_h.(p) <- Lanes.broadcast_h tv;
        tpb_l.(p) <- Lanes.broadcast_l tv;
        tpb_c.(p) <- !cur_c
      end
    in
    (* word-parallel LUT of node [u] into newh/newl, per-lane table and
       inversion masks applied, then per-lane row splices.  Also the
       next-state function of registers. *)
    let comb_planes u =
      let row = v.F.v_inputs.(u) in
      let table = v.F.v_table.(u) and inv = v.F.v_inv.(u) in
      let t1o = Hashtbl.find_opt tbl_t1 u in
      let imo = Hashtbl.find_opt tbl_im u in
      for s = 0 to ns - 1 do
        (match t1o with
        | Some a ->
            for mt = 0 to 15 do
              t.t1s.(mt) <- a.((mt * ns) + s)
            done
        | None ->
            for mt = 0 to 15 do
              t.t1s.(mt) <- (if (table lsr mt) land 1 = 1 then fullw else 0)
            done);
        for j = 0 to 3 do
          let p = row.(j) in
          if p < 0 then begin
            (* unused pin: constant Zero, as the scalar scan skips it *)
            t.phs.(j) <- 0;
            t.pls.(j) <- fullw
          end
          else begin
            let bp = (p * stride) + s in
            let d = dv.(bp) in
            let ph =
              if d = fullw then h.(bp)
              else begin
                tape_bcast p;
                if d = 0 then tb_h.(p)
                else h.(bp) land d lor (tb_h.(p) land lnot d)
              end
            in
            let pl =
              if d = fullw then l.(bp)
              else if d = 0 then tb_l.(p)
              else l.(bp) land d lor (tb_l.(p) land lnot d)
            in
            let im =
              match imo with
              | Some a -> a.((j * ns) + s)
              | None -> if (inv lsr j) land 1 = 1 then fullw else 0
            in
            t.phs.(j) <- ph land lnot im lor (pl land im);
            t.pls.(j) <- pl land lnot im lor (ph land im)
          end
        done;
        let r = Lanes.lut_planes ~ph:t.phs ~pl:t.pls ~t1:t.t1s in
        t.newh.(s) <- r.Lanes.h;
        t.newl.(s) <- r.Lanes.l
      done;
      match Hashtbl.find_opt tbl_rows u with
      | None -> ()
      | Some rl ->
          List.iter
            (fun (li, rrow) ->
              let sub = li lsr 5 and bit = li land 31 in
              let tb = eff_table li u and iv = eff_inv li u in
              let acc = ref 0 in
              for j = 0 to 3 do
                let p = rrow.(j) in
                if p >= 0 then
                  match lane_v p sub bit with
                  | Logic.Zero ->
                      acc := !acc lor (((iv lsr j) land 1) lsl j)
                  | Logic.One ->
                      acc := !acc lor ((1 - ((iv lsr j) land 1)) lsl j)
                  | Logic.X -> acc := !acc lor (1 lsl (j + 4))
              done;
              splice (Scalar.lut_of_acc tb !acc) sub bit)
            !rl
    in
    let res_planes u =
      let row = v.F.v_inputs.(u) in
      let n = Array.length row in
      res_ensure t n;
      for s = 0 to ns - 1 do
        for i = 0 to n - 1 do
          let p = row.(i) in
          let bp = (p * stride) + s in
          let d = dv.(bp) and dl = dvl.(bp) in
          (if d = fullw then begin
             t.resh.(i) <- h.(bp);
             t.resl.(i) <- l.(bp)
           end
           else begin
             tape_bcast p;
             if d = 0 then begin
               t.resh.(i) <- tb_h.(p);
               t.resl.(i) <- tb_l.(p)
             end
             else begin
               t.resh.(i) <- h.(bp) land d lor (tb_h.(p) land lnot d);
               t.resl.(i) <- l.(bp) land d lor (tb_l.(p) land lnot d)
             end
           end);
          if dl = fullw then begin
            t.reslh.(i) <- lh.(bp);
            t.resll.(i) <- ll.(bp)
          end
          else begin
            let bh, bl =
              if !cur_c > 0 then begin
                tape_bcast_prev p;
                (tpb_h.(p), tpb_l.(p))
              end
              else (fullw, fullw)
            in
            if dl = 0 then begin
              t.reslh.(i) <- bh;
              t.resll.(i) <- bl
            end
            else begin
              t.reslh.(i) <- lh.(bp) land dl lor (bh land lnot dl);
              t.resll.(i) <- ll.(bp) land dl lor (bl land lnot dl)
            end
          end
        done;
        let r =
          Lanes.resolve_planes ~n ~h:t.resh ~l:t.resl ~lh:t.reslh ~ll:t.resll
        in
        t.newh.(s) <- r.Lanes.h;
        t.newl.(s) <- r.Lanes.l
      done;
      match Hashtbl.find_opt tbl_rows u with
      | None -> ()
      | Some rl ->
          List.iter
            (fun (li, rrow) ->
              let sub = li lsr 5 and bit = li land 31 in
              splice (scalar_resolve rrow sub bit) sub bit)
            !rl
    in
    let extra_planes u =
      let li = ext_lane.(u - bn) in
      let sub = li lsr 5 and bit = li land 31 in
      for s = 0 to ns - 1 do
        t.newh.(s) <- fullw;
        t.newl.(s) <- fullw
      done;
      splice (scalar_resolve ext_row.(u - bn) sub bit) sub bit
    in
    (* nodes whose value planes changed this cycle: only those need
       their previous-cycle (glitch-rule) planes refreshed at the
       boundary, instead of copying the whole union cone every cycle *)
    let chmark = Bytes.make nn '\000' in
    let chlist = Array.make (nm + nfrontier + 1) 0 in
    let nch = ref 0 in
    let note_changed u =
      if Bytes.get chmark u = '\000' then begin
        Bytes.set chmark u '\001';
        chlist.(!nch) <- u;
        incr nch
      end
    in
    let commit u tick =
      let b = u * stride in
      let obs = ref false in
      (if u >= bn then
         (* extras: divergence word is fixed (own lane); dead lanes are
            masked so a declined cyclic circuit cannot oscillate *)
         for s = 0 to ns - 1 do
           let nh = t.newh.(s) and nl = t.newl.(s) in
           let dw =
             ((h.(b + s) lxor nh) lor (l.(b + s) lxor nl)) land live.(s)
           in
           if dw <> 0 then begin
             obs := true;
             h.(b + s) <- nh;
             l.(b + s) <- nl
           end
         done
       else begin
         let tv = F.tape_get_u tape !cur_c u in
         for s = 0 to ns - 1 do
           let nh = t.newh.(s) and nl = t.newl.(s) in
           let nd = Lanes.mismatch ~h:nh ~l:nl tv land live.(s) in
           let od = dv.(b + s) in
           (* observable to readers: a lane entering/leaving divergence,
              or a value change on a diverged lane — undiverged lanes
              are read from the tape, so their stored bits don't matter *)
           let dw = ((h.(b + s) lxor nh) lor (l.(b + s) lxor nl)) land nd in
           if nd <> od || dw <> 0 then begin
             obs := true;
             h.(b + s) <- nh;
             l.(b + s) <- nl;
             if nd <> od then begin
               dv.(b + s) <- nd;
               if nd <> 0 then dpush u;
               let m = ref (nd lxor od) in
               while !m <> 0 do
                 let lsb = !m land - !m in
                 let li = (s * 32) + bit_index lsb 0 in
                 if nd land lsb <> 0 then mcnt.(li) <- mcnt.(li) + 1
                 else mcnt.(li) <- mcnt.(li) - 1;
                 m := !m land (!m - 1)
               done
             end
           end
         done
       end);
      if !obs then begin
        note_changed u;
        mark_readers u tick ~pu:t.pos.(u)
      end
    in
    let eval_member u tick =
      if t.dirty.(u) >= tick then begin
        (* consume the event so extra sweeps only revisit re-marked
           nodes; a tick+1 stamp (resolve next-cycle rule) survives *)
        if t.dirty.(u) = tick then t.dirty.(u) <- tick - 1;
        if u >= bn then begin
          extra_planes u;
          commit u tick
        end
        else begin
          let k = v.F.v_kind.(u) in
          if k = F.kind_bel_reg then begin
            let b = u * stride in
            let tv = F.tape_get_u tape !cur_c u in
            let bh = Lanes.broadcast_h tv and bl = Lanes.broadcast_l tv in
            for s = 0 to ns - 1 do
              let d = dq.(b + s) in
              t.newh.(s) <- (t.qh.(b + s) land d) lor (bh land lnot d);
              t.newl.(s) <- (t.ql.(b + s) land d) lor (bl land lnot d)
            done;
            commit u tick
          end
          else if k = F.kind_bel_comb then begin
            comb_planes u;
            commit u tick
          end
          else if k = F.kind_resolve then begin
            res_planes u;
            commit u tick
          end
        end
      end
    in
    (* ---- per-lane convergence replay (mirrors the scalar engine's
       replay exactly, over the lane's effective circuit) ---- *)
    let replay_converges li c =
      t.repoch <- t.repoch + 1;
      let ep = t.repoch in
      let seeds = lane_seed_arr.(li) in
      let nseeds = Array.length seeds in
      let sub = li lsr 5 and bit = li land 31 in
      for i = 0 to nseeds - 1 do
        let s0 = seeds.(i) in
        t.rstamp.(s0) <- ep;
        t.rv.(s0) <- lane_v s0 sub bit;
        t.rvl.(s0) <- lane_lv s0 sub bit;
        if s0 < bn && v.F.v_kind.(s0) = F.kind_bel_reg then
          t.rq.(s0) <-
            (if dq.((s0 * stride) + sub) land (1 lsl bit) <> 0 then
               Lanes.lane
                 ~h:t.qh.((s0 * stride) + sub)
                 ~l:t.ql.((s0 * stride) + sub)
                 bit
             else F.tape_get_u tape (c + 1) s0)
      done;
      let getv cy p =
        if t.rstamp.(p) = ep then t.rv.(p) else F.tape_get_u tape cy p
      in
      let getl cy p =
        if t.rstamp.(p) = ep then t.rvl.(p) else F.tape_get_u tape (cy - 1) p
      in
      let eff_row u =
        if u >= bn then ext_row.(u - bn)
        else
          match List.assoc_opt u lane_rows.(li) with
          | Some r -> r
          | None -> v.F.v_inputs.(u)
      in
      let replay_lut cy u =
        let row = eff_row u in
        let tb = eff_table li u and iv = eff_inv li u in
        let acc = ref 0 in
        for j = 0 to 3 do
          let p = row.(j) in
          if p >= 0 then
            match getv cy p with
            | Logic.Zero -> acc := !acc lor (((iv lsr j) land 1) lsl j)
            | Logic.One -> acc := !acc lor ((1 - ((iv lsr j) land 1)) lsl j)
            | Logic.X -> acc := !acc lor (1 lsl (j + 4))
        done;
        Scalar.lut_of_acc tb !acc
      in
      let replay_eval cy s =
        let k = if s < bn then v.F.v_kind.(s) else F.kind_resolve in
        if k = F.kind_bel_reg then t.rq.(s)
        else if k = F.kind_bel_comb then replay_lut cy s
        else if k = F.kind_resolve then begin
          let ins = eff_row s in
          let len = Array.length ins in
          if len = 0 then Logic.X
          else begin
            let vr = ref (getv cy ins.(0)) in
            for i = 1 to len - 1 do
              vr := Logic.resolve !vr (getv cy ins.(i))
            done;
            match !vr with
            | Logic.X -> Logic.X
            | (Logic.Zero | Logic.One) as sv ->
                let g = ref false in
                for i = 0 to len - 1 do
                  if not (Logic.equal (getl cy ins.(i)) sv) then g := true
                done;
                if !g then Logic.X else sv
          end
        end
        else Logic.X
      in
      let ok = ref true in
      let cy' = ref (c + 1) in
      while !ok && !cy' < cycles do
        let cc = !cy' in
        let i = ref 0 in
        while !ok && !i < nseeds do
          let s = seeds.(!i) in
          let vv = replay_eval cc s in
          t.rv.(s) <- vv;
          if s < bn && not (Logic.equal vv (F.tape_get_u tape cc s)) then
            ok := false;
          incr i
        done;
        if !ok then begin
          for i = 0 to nseeds - 1 do
            let s = seeds.(i) in
            if
              s < bn
              && v.F.v_kind.(s) = F.kind_bel_reg
              && not (eff_frozen li s)
            then t.rq.(s) <- replay_lut cc s
          done;
          for i = 0 to nseeds - 1 do
            t.rvl.(seeds.(i)) <- t.rv.(seeds.(i))
          done
        end;
        incr cy'
      done;
      !ok
    in
    (* a decided lane (watch error or confirmed convergence) no longer
       needs simulating: drop it from the live mask and scrub its
       divergence bits, so the active set shrinks as verdicts land
       instead of dragging every decided lane's divergence to the last
       cycle *)
    let purge_lane li =
      let s = li lsr 5 in
      let m = 1 lsl (li land 31) in
      live.(s) <- live.(s) land lnot m;
      for i = 0 to !ndl - 1 do
        let b = (dlist.(i) * stride) + s in
        dv.(b) <- dv.(b) land lnot m
      done;
      for i = 0 to nregs - 1 do
        let b = (t.regs.(i) * stride) + s in
        dq.(b) <- dq.(b) land lnot m
      done
    in
    (* ---- the per-cycle loop ---- *)
    let err_cy = Array.make nlanes (-1) in
    let conv_cy = Array.make nlanes (-1) in
    let det_cy = Array.make nlanes (-1) in
    let und = Lanemask.create nlanes in
    Lanemask.set_all und;
    Array.iteri (fun li d -> if d then Lanemask.clear und li) lane_dead;
    let cy = ref 0 in
    while (not (Lanemask.is_empty und)) && !cy < cycles do
      let c = !cy in
      let tick = tick0 + c in
      cur_c := c;
      (* wake the active set.  Fault sites recompute every cycle: their
         patched logic can diverge from the moving tape at any time
         without an upstream event (a fault-site register also clocks
         every cycle — a patched clock-enable or rerouted D input makes
         its state drift with no divergence event on the D cone) *)
      for i = 0 to nseednodes - 1 do
        let u = seed_nodes.(i) in
        if
          u < bn
          && v.F.v_kind.(u) = F.kind_bel_reg
          && t.rdirty.(u) < tick
        then t.rdirty.(u) <- tick;
        if t.dirty.(u) < tick then t.dirty.(u) <- tick
      done;
      (* diverged nodes and their readers recompute too: their
         tape-following inputs move under them (the list self-compacts
         as divergence words empty out) *)
      let j = ref 0 in
      for i = 0 to !ndl - 1 do
        let u = dlist.(i) in
        let b = u * stride in
        let nz = ref false in
        for s = 0 to ns - 1 do
          if dv.(b + s) <> 0 then nz := true
        done;
        if !nz then begin
          dlist.(!j) <- u;
          incr j;
          if t.dirty.(u) < tick then t.dirty.(u) <- tick;
          mark_readers u tick ~pu:(-1)
        end
        else Bytes.set dmark u '\000'
      done;
      ndl := !j;
      (* event-driven evaluation: the Kahn prefix in topological order
         (never re-marked behind the scan), then each leftover SCC
         iterated to its fixpoint — union-graph back edges live inside
         an SCC, so local sweeps settle every lane to its own acyclic
         circuit's unique values, and cross-SCC marks only point
         forward *)
      for i = 0 to kahn_len - 1 do
        eval_member t.order.(i) tick
      done;
      let starts = !scc_starts in
      let nscc = Array.length starts in
      for g = 0 to nscc - 1 do
        let s0 = starts.(g) in
        let s1 = if g + 1 < nscc then starts.(g + 1) else nm in
        sweep_again := true;
        while !sweep_again do
          sweep_again := false;
          for i = s0 to s1 - 1 do
            eval_member t.order.(i) tick
          done
        done
      done;
      (* watched-output check (before the clock, like the scalar
         engine).  Functional entries ([wi < nfunc]) record the first
         error; trailing detection entries record the first disagreement
         flag.  A lane is decided — and leaves the batch — once its
         functional verdict landed and no detection verdict is still
         pending, mirroring the scalar engine's continue-past-error
         rule; with [ndetect = 0] this degenerates to the historical
         retire-on-first-error behaviour. *)
      let exp = expected.(c) in
      for si = 0 to Array.length suspects - 1 do
        let wi = suspects.(si) in
        let w = watch.(wi) in
        let b = w * stride in
        let ev = exp.(wi) in
        let tv = F.tape_get_u tape c w in
        let bm =
          Lanes.mismatch ~h:(Lanes.broadcast_h tv) ~l:(Lanes.broadcast_l tv)
            ev
        in
        for s = 0 to ns - 1 do
          let d = dv.(b + s) in
          let mism =
            ((Lanes.mismatch ~h:h.(b + s) ~l:l.(b + s) ev land d)
            lor (bm land lnot d))
            land Lanemask.word und s
          in
          if mism <> 0 then begin
            let m = ref mism in
            while !m <> 0 do
              let lsb = !m land - !m in
              let li = (s * 32) + bit_index lsb 0 in
              (if wi < nfunc then begin
                 if err_cy.(li) < 0 then err_cy.(li) <- c
               end
               else if det_cy.(li) < 0 then det_cy.(li) <- c);
              if err_cy.(li) >= 0 && (ndetect = 0 || det_cy.(li) >= 0)
              then begin
                Lanemask.clear und li;
                purge_lane li
              end;
              m := !m land (!m - 1)
            done
          end
        done
      done;
      (* clock the cone registers.  A register clocks when divergence
         events reached its D cone ([rdirty]) or its state is already
         diverged ([dq], it may converge back); otherwise its next state
         tracks the tape exactly and no work is needed — the stored q
         planes go stale on undiverged lanes, which is fine because
         every read blends them through [dq].  The last cycle's next
         state is never read, so the clock is skipped entirely. *)
      if c < cycles - 1 then
        for i = 0 to nregs - 1 do
          let r = t.regs.(i) in
          let b = r * stride in
          let dqnz = ref false in
          for s = 0 to ns - 1 do
            if dq.(b + s) <> 0 then dqnz := true
          done;
          if t.rdirty.(r) >= tick || !dqnz then begin
            let fzo = Hashtbl.find_opt tbl_ce r in
            let basefz = v.F.v_ce_frozen.(r) in
            if not (basefz && fzo = None) then begin
              comb_planes r;
              let tvq = F.tape_get_u tape c r in
              let tvn = F.tape_get_u tape (c + 1) r in
              let kh = Lanes.broadcast_h tvq and kl = Lanes.broadcast_l tvq in
              let mark = ref false in
              for s = 0 to ns - 1 do
                let fzw =
                  match fzo with
                  | Some a -> a.(s)
                  | None -> if basefz then fullw else 0
                in
                let od = dq.(b + s) in
                (* a frozen lane keeps its current state: stored planes
                   where diverged, the tape's value where not *)
                let keep_h = t.qh.(b + s) land od lor (kh land lnot od) in
                let keep_l = t.ql.(b + s) land od lor (kl land lnot od) in
                let nh = t.newh.(s) land lnot fzw lor (keep_h land fzw) in
                let nl = t.newl.(s) land lnot fzw lor (keep_l land fzw) in
                let nd = Lanes.mismatch ~h:nh ~l:nl tvn land live.(s) in
                t.qh.(b + s) <- nh;
                t.ql.(b + s) <- nl;
                if nd <> 0 || od <> 0 then mark := true;
                dq.(b + s) <- nd
              done;
              if !mark && t.dirty.(r) < tick + 1 then t.dirty.(r) <- tick + 1
            end
          end
        done;
      (* previous-cycle planes and divergence words for the glitch
         rule: only nodes that committed this cycle can differ from
         their boundary copy *)
      for i = 0 to !nch - 1 do
        let u = chlist.(i) in
        Bytes.set chmark u '\000';
        let b = u * stride in
        for s = 0 to ns - 1 do
          lh.(b + s) <- h.(b + s);
          ll.(b + s) <- l.(b + s);
          dvl.(b + s) <- dv.(b + s)
        done
      done;
      nch := 0;
      (* per-lane convergence early-exit: a candidate lane has no
         diverged member ([mcnt]) and no diverged register state
         ([dq]); the scalar replay rule then confirms it *)
      if c < cycles - 1 && not (Lanemask.is_empty und) then begin
        let cand = Array.init ns (fun s -> Lanemask.word und s) in
        for li = 0 to nlanes - 1 do
          if mcnt.(li) <> 0 then
            cand.(li lsr 5) <- cand.(li lsr 5) land lnot (1 lsl (li land 31))
        done;
        let nonzero = ref false in
        for s = 0 to ns - 1 do
          if cand.(s) <> 0 then nonzero := true
        done;
        let i = ref 0 in
        while !nonzero && !i < nregs do
          let r = t.regs.(!i) in
          let b = r * stride in
          nonzero := false;
          for s = 0 to ns - 1 do
            cand.(s) <- cand.(s) land lnot dq.(b + s);
            if cand.(s) <> 0 then nonzero := true
          done;
          incr i
        done;
        if !nonzero then
          for s = 0 to ns - 1 do
            let m = ref cand.(s) in
            while !m <> 0 do
              let lsb = !m land - !m in
              m := !m land (!m - 1);
              let li = (s * 32) + bit_index lsb 0 in
              if replay_converges li c then begin
                conv_cy.(li) <- c;
                Lanemask.clear und li;
                purge_lane li
              end
            done
          done
      end;
      incr cy
    done;
    (* restore the all-zero divergence invariant for the next run:
       every touched [dv]/[dvl]/[dq]/[dmark] entry is a member's *)
    for i = 0 to nm - 1 do
      let u = t.members.(i) in
      Bytes.set dmark u '\000';
      let b = u * stride in
      for s = 0 to stride - 1 do
        dv.(b + s) <- 0;
        dvl.(b + s) <- 0;
        dq.(b + s) <- 0
      done
    done;
    Some
      (Array.init nlanes (fun li ->
           if lane_dead.(li) then None
           else
             Some
               {
                 bv_error_cycle = err_cy.(li);
                 bv_converge_cycle = conv_cy.(li);
                 bv_detect_cycle = det_cy.(li);
               }))
  with Ineligible -> None
