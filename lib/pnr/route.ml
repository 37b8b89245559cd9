module Device = Tmr_arch.Device

type iter_stats = {
  overused : int;
  rerouted : int;
  pops : int;
  stale : int;
  pres_fac : float;
}

type result = {
  net_pips : int array array;
  net_wires : int array array;
  sink_stats : (int * int * int) array array;
  iterations : int;
  iter_stats : iter_stats array;
}

(* Binary min-heap of wires on float keys.  [pop] returns the wire (or -1
   when empty) and leaves its key in [popped.(0)]; a one-cell float array
   stores it unboxed, so popping allocates nothing.  Both sifts move a hole
   and compare exactly as a swapping binary heap would: the routes depend
   on how equal keys are ordered. *)
module Heap = struct
  type t = {
    mutable keys : float array;
    mutable data : int array;
    mutable n : int;
    popped : float array;
    mutable pops : int;
  }

  let create () =
    {
      keys = Array.make 1024 0.0;
      data = Array.make 1024 0;
      n = 0;
      popped = [| 0.0 |];
      pops = 0;
    }

  let clear h = h.n <- 0

  (* inlined so that the float key is passed unboxed *)
  let[@inline] push h k v =
    if h.n >= Array.length h.keys then begin
      h.keys <- Array.append h.keys (Array.make (Array.length h.keys) 0.0);
      h.data <- Array.append h.data (Array.make (Array.length h.data) 0)
    end;
    let keys = h.keys and data = h.data in
    let i = ref h.n in
    h.n <- h.n + 1;
    let continue = ref true in
    while !continue && !i > 0 do
      let parent = (!i - 1) / 2 in
      if keys.(parent) > k then begin
        keys.(!i) <- keys.(parent);
        data.(!i) <- data.(parent);
        i := parent
      end
      else continue := false
    done;
    keys.(!i) <- k;
    data.(!i) <- v

  let pop h =
    if h.n = 0 then -1
    else begin
      let keys = h.keys and data = h.data in
      let top = data.(0) in
      h.popped.(0) <- keys.(0);
      h.pops <- h.pops + 1;
      let n = h.n - 1 in
      h.n <- n;
      let k = keys.(n) and v = data.(n) in
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let left = (2 * !i) + 1 in
        let right = left + 1 in
        let smallest = ref !i and sk = ref k in
        if left < n && keys.(left) < !sk then begin
          smallest := left;
          sk := keys.(left)
        end;
        if right < n && keys.(right) < !sk then smallest := right;
        if !smallest <> !i then begin
          keys.(!i) <- keys.(!smallest);
          data.(!i) <- data.(!smallest);
          i := !smallest
        end
        else continue := false
      done;
      keys.(!i) <- k;
      data.(!i) <- v;
      top
    end
end

let driver_wire dev pack place ni =
  let drv = pack.Pack.nets.(ni).Pack.driver in
  let s = pack.Pack.site_of_cell.(drv) in
  if s >= 0 then dev.Device.bel_out.(place.Place.site_bel.(s))
  else begin
    let pad = place.Place.pad_of_cell.(drv) in
    assert (pad >= 0);
    dev.Device.pad_wire.(pad)
  end

let sink_wire dev _pack place sink =
  match sink with
  | Pack.Site_pin (s, j) -> dev.Device.bel_in.(place.Place.site_bel.(s)).(j)
  | Pack.Out_pad c -> dev.Device.pad_wire.(place.Place.pad_of_cell.(c))

let base_cost dev w =
  match dev.Device.wkind.(w) with
  | Device.HSingle | Device.VSingle -> 1.0
  | Device.HDouble | Device.VDouble -> 1.4
  | Device.HLong | Device.VLong -> 4.0
  | Device.BelIn | Device.BelOut | Device.PadIn | Device.PadOut -> 0.6

let run ?(max_iters = 60) dev pack place =
  let nwires = dev.Device.nwires in
  let nnets = Array.length pack.Pack.nets in
  let wrow = dev.Device.wrow and wcol = dev.Device.wcol in
  (* Flat adjacency in [wire_out] order: the edges leaving wire [w] are
     [adj_off.(w)] to [adj_off.(w + 1) - 1], each a pip and the wire at its
     far end. *)
  let adj_off = Array.make (nwires + 1) 0 in
  for w = 0 to nwires - 1 do
    adj_off.(w + 1) <- adj_off.(w) + Array.length dev.Device.wire_out.(w)
  done;
  let adj_pip = Array.make adj_off.(nwires) 0 in
  let adj_far = Array.make adj_off.(nwires) 0 in
  Array.iteri
    (fun w pips ->
      Array.iteri
        (fun j pipid ->
          adj_pip.(adj_off.(w) + j) <- pipid;
          adj_far.(adj_off.(w) + j) <- Device.pip_other dev pipid w)
        pips)
    dev.Device.wire_out;
  (* long lines span the whole row/column; bounding boxes never exclude
     them *)
  let is_long =
    Array.init nwires (fun w ->
        match dev.Device.wkind.(w) with
        | Device.HLong | Device.VLong -> true
        | _ -> false)
  in
  let base = Array.init nwires (base_cost dev) in
  let occ = Array.make nwires 0 in
  let hist = Array.make nwires 0.0 in
  let pres_fac = ref 0.6 in
  (* wcost.(w) is the cost of entering wire [w], kept in step with occ.(w),
     hist.(w) and pres_fac *)
  let wcost = Array.make nwires 0.0 in
  let set_wcost w =
    let over = float_of_int occ.(w) in
    wcost.(w) <- (base.(w) *. (1.0 +. (over *. !pres_fac))) +. hist.(w)
  in
  for w = 0 to nwires - 1 do
    set_wcost w
  done;
  let cost = Array.make nwires infinity in
  let prev = Array.make nwires (-1) in
  let stamp = Array.make nwires 0 in
  let tree_stamp = Array.make nwires 0 in
  let epoch = ref 0 in
  let tree_epoch = ref 0 in
  let heap = Heap.create () in
  let stale = ref 0 in
  let net_wires = Array.make nnets [||] in
  let net_pips = Array.make nnets [||] in
  let srcs = Array.init nnets (fun ni -> driver_wire dev pack place ni) in
  let sinks =
    Array.init nnets (fun ni ->
        Array.of_list
          (List.map (sink_wire dev pack place) pack.Pack.nets.(ni).Pack.sinks))
  in
  (* Net bounding boxes (tile coordinates) with a per-iteration margin:
     rmin, rmax, cmin, cmax at [4 * ni]. *)
  let bbox = Array.make (4 * nnets) 0 in
  let compute_bbox ni margin =
    let rmin = ref max_int and rmax = ref min_int in
    let cmin = ref max_int and cmax = ref min_int in
    let touch w =
      let r = wrow.(w) and c = wcol.(w) in
      if r < !rmin then rmin := r;
      if r > !rmax then rmax := r;
      if c < !cmin then cmin := c;
      if c > !cmax then cmax := c
    in
    touch srcs.(ni);
    Array.iter touch sinks.(ni);
    bbox.(4 * ni) <- !rmin - margin;
    bbox.((4 * ni) + 1) <- !rmax + margin;
    bbox.((4 * ni) + 2) <- !cmin - margin;
    bbox.((4 * ni) + 3) <- !cmax + margin
  in
  (* A* maze expansion from every wire of [tree] to [sk] inside the box;
     true when [sk] was reached, with the path in [prev]. *)
  let search tree sk rmin rmax cmin cmax =
    incr epoch;
    let ep = !epoch in
    Heap.clear heap;
    let skr = wrow.(sk) and skc = wcol.(sk) in
    List.iter
      (fun w ->
        stamp.(w) <- ep;
        cost.(w) <- 0.0;
        prev.(w) <- -1;
        let dist = abs (wrow.(w) - skr) + abs (wcol.(w) - skc) in
        Heap.push heap (0.9 *. float_of_int dist) w)
      tree;
    let found = ref false in
    let continue = ref true in
    while !continue do
      let w = Heap.pop heap in
      if w < 0 then continue := false
      else if w = sk then begin
        found := true;
        continue := false
      end
      else begin
        let cw = cost.(w) in
        let dist = abs (wrow.(w) - skr) + abs (wcol.(w) - skc) in
        (* A key above the wire's current cost is stale: the entry pushed
           when the cost last fell has a lower key, so it was popped and
           expanded already, and expanding again would push nothing. *)
        if heap.Heap.popped.(0) > cw +. (0.9 *. float_of_int dist) then
          incr stale
        else
          for e = adj_off.(w) to adj_off.(w + 1) - 1 do
            let d = adj_far.(e) in
            if
              is_long.(d)
              ||
              let r = wrow.(d) and c = wcol.(d) in
              r >= rmin && r <= rmax && c >= cmin && c <= cmax
            then begin
              let c = cw +. wcost.(d) in
              if stamp.(d) <> ep || c < cost.(d) then begin
                stamp.(d) <- ep;
                cost.(d) <- c;
                prev.(d) <- adj_pip.(e);
                let dist = abs (wrow.(d) - skr) + abs (wcol.(d) - skc) in
                Heap.push heap (c +. (0.9 *. float_of_int dist)) d
              end
            end
          done
      end
    done;
    !found
  in
  let route_net ni =
    let src = srcs.(ni) in
    let rmin = bbox.(4 * ni) and rmax = bbox.((4 * ni) + 1) in
    let cmin = bbox.((4 * ni) + 2) and cmax = bbox.((4 * ni) + 3) in
    incr tree_epoch;
    let te = !tree_epoch in
    tree_stamp.(src) <- te;
    let tree = ref [ src ] in
    let tree_pips = ref [] in
    let failed = ref (-1) in
    Array.iter
      (fun sk ->
        if !failed < 0 && tree_stamp.(sk) <> te then begin
          if not (search !tree sk rmin rmax cmin cmax) then failed := sk
          else begin
            (* backtrack: add path wires and pips to tree *)
            let rec back w =
              if tree_stamp.(w) <> te then begin
                tree_stamp.(w) <- te;
                tree := w :: !tree;
                let pipid = prev.(w) in
                if pipid >= 0 then begin
                  tree_pips := pipid :: !tree_pips;
                  back (Device.pip_other dev pipid w)
                end
              end
            in
            back sk
          end
        end)
      sinks.(ni);
    if !failed >= 0 then Error !failed
    else begin
      net_wires.(ni) <- Array.of_list !tree;
      net_pips.(ni) <- Array.of_list !tree_pips;
      Array.iter
        (fun w ->
          occ.(w) <- occ.(w) + 1;
          set_wcost w)
        net_wires.(ni);
      Ok ()
    end
  in
  let rip_up ni =
    Array.iter
      (fun w ->
        occ.(w) <- occ.(w) - 1;
        set_wcost w)
      net_wires.(ni);
    net_wires.(ni) <- [||];
    net_pips.(ni) <- [||]
  in
  (* The routing order.  It was meant to put the longest-span nets first,
     but was sorted before any bounding box existed, so every span compared
     equal and the order is the permutation [Array.sort] makes of equal
     keys.  Every route depends on it: keep it until a change that may move
     routes. *)
  let order = Array.init nnets (fun i -> i) in
  Array.sort (fun _ _ -> 0) order;
  let result = ref None in
  let iter = ref 0 in
  let stats = ref [] in
  (* occupancy is counted per wire; a source wire occupied by its own single
     net is fine, so overuse means occ > 1 *)
  let overused w = occ.(w) > 1 in
  while !result = None && !iter < max_iters do
    let margin = 3 + (2 * !iter) in
    Array.iter (fun ni -> compute_bbox ni margin) order;
    let pops0 = heap.Heap.pops and stale0 = !stale in
    let rerouted = ref 0 in
    let route_error = ref None in
    (* PathFinder renegotiates every net each iteration: a net that is not
       itself overused may be squatting on the only access wires of a
       congested sink, and must be given the chance to move. *)
    Array.iter
      (fun ni ->
        if !route_error = None then begin
          if Array.length net_wires.(ni) > 0 then rip_up ni;
          incr rerouted;
          match route_net ni with
          | Ok () -> ()
          | Error sk ->
              route_error :=
                Some
                  (Printf.sprintf "net %d: no path to sink %s" ni
                     (Device.describe_wire dev sk))
        end)
      order;
    let over = ref 0 in
    for w = 0 to nwires - 1 do
      if overused w then incr over
    done;
    stats :=
      {
        overused = !over;
        rerouted = !rerouted;
        pops = heap.Heap.pops - pops0;
        stale = !stale - stale0;
        pres_fac = !pres_fac;
      }
      :: !stats;
    (match !route_error with
    | Some msg when !iter >= max_iters - 1 -> result := Some (Error msg)
    | Some _ -> () (* enlarge bbox next iteration and retry *)
    | None ->
        for w = 0 to nwires - 1 do
          if overused w then
            hist.(w) <- hist.(w) +. (0.5 *. float_of_int (occ.(w) - 1))
        done;
        if !over = 0 then begin
          (* success: compute per-sink stats *)
          let sink_stats =
            Array.init nnets (fun ni ->
                (* walk the tree from the source *)
                let depth = Hashtbl.create 16 in
                let spansum = Hashtbl.create 16 in
                Hashtbl.replace depth srcs.(ni) 0;
                Hashtbl.replace spansum srcs.(ni) 0;
                (* iterate pips until fixpoint (tree, so one pass in order
                   works if sorted; do simple repeated passes) *)
                let pips = net_pips.(ni) in
                let remaining = ref (Array.to_list pips) in
                let progress = ref true in
                (* tree edges; bidirectional pips may have been traversed
                   either way, so settle whichever endpoint is known *)
                while !remaining <> [] && !progress do
                  progress := false;
                  remaining :=
                    List.filter
                      (fun pipid ->
                        let s = dev.Device.pip_src.(pipid) in
                        let d = dev.Device.pip_dst.(pipid) in
                        let settle from into =
                          let df = Hashtbl.find depth from in
                          Hashtbl.replace depth into (df + 1);
                          Hashtbl.replace spansum into
                            (Hashtbl.find spansum from + Device.wire_span dev into);
                          progress := true;
                          false
                        in
                        match Hashtbl.mem depth s, Hashtbl.mem depth d with
                        | true, false -> settle s d
                        | false, true when dev.Device.pip_bidir.(pipid) ->
                            settle d s
                        | true, true -> (progress := !progress; false)
                        | _ -> true)
                      !remaining
                done;
                Array.map
                  (fun sk ->
                    match Hashtbl.find_opt depth sk with
                    | Some dp -> (sk, dp, Hashtbl.find spansum sk)
                    | None -> (sk, 0, 0))
                  sinks.(ni))
          in
          result :=
            Some
              (Ok
                 {
                   net_pips;
                   net_wires;
                   sink_stats;
                   iterations = !iter + 1;
                   iter_stats = Array.of_list (List.rev !stats);
                 })
        end
        else begin
          pres_fac := !pres_fac *. 1.7;
          for w = 0 to nwires - 1 do
            set_wcost w
          done;
          if !iter = max_iters - 1 then begin
            let examples = ref [] in
            for w = nwires - 1 downto 0 do
              if overused w && List.length !examples < 4 then
                examples :=
                  Printf.sprintf "%s(occ=%d)" (Device.describe_wire dev w) occ.(w)
                  :: !examples
            done;
            result :=
              Some
                (Error
                   (Printf.sprintf
                      "unresolved congestion on %d wires after %d iterations: %s"
                      !over max_iters
                      (String.concat ", " !examples)))
          end
        end);
    incr iter
  done;
  match !result with
  | Some r -> r
  | None -> Error "router did not converge"
