module Device = Tmr_arch.Device

type result = {
  net_pips : int array array;
  net_wires : int array array;
  sink_stats : (int * int * int) array array;
  iterations : int;
}

(* Min-heap of (cost, wire) on float keys. *)
module Heap = struct
  type t = {
    mutable keys : float array;
    mutable data : int array;
    mutable n : int;
  }

  let create () = { keys = Array.make 1024 0.0; data = Array.make 1024 0; n = 0 }

  let clear h = h.n <- 0

  let push h k v =
    if h.n >= Array.length h.keys then begin
      h.keys <- Array.append h.keys (Array.make (Array.length h.keys) 0.0);
      h.data <- Array.append h.data (Array.make (Array.length h.data) 0)
    end;
    let i = ref h.n in
    h.keys.(!i) <- k;
    h.data.(!i) <- v;
    h.n <- h.n + 1;
    let continue = ref true in
    while !continue && !i > 0 do
      let parent = (!i - 1) / 2 in
      if h.keys.(parent) > h.keys.(!i) then begin
        let tk = h.keys.(parent) and td = h.data.(parent) in
        h.keys.(parent) <- h.keys.(!i);
        h.data.(parent) <- h.data.(!i);
        h.keys.(!i) <- tk;
        h.data.(!i) <- td;
        i := parent
      end
      else continue := false
    done

  let pop h =
    if h.n = 0 then None
    else begin
      let k = h.keys.(0) and v = h.data.(0) in
      h.n <- h.n - 1;
      h.keys.(0) <- h.keys.(h.n);
      h.data.(0) <- h.data.(h.n);
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let left = (2 * !i) + 1 and right = (2 * !i) + 2 in
        let smallest = ref !i in
        if left < h.n && h.keys.(left) < h.keys.(!smallest) then smallest := left;
        if right < h.n && h.keys.(right) < h.keys.(!smallest) then
          smallest := right;
        if !smallest <> !i then begin
          let tk = h.keys.(!smallest) and td = h.data.(!smallest) in
          h.keys.(!smallest) <- h.keys.(!i);
          h.data.(!smallest) <- h.data.(!i);
          h.keys.(!i) <- tk;
          h.data.(!i) <- td;
          i := !smallest
        end
        else continue := false
      done;
      Some (k, v)
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
  let occ = Array.make nwires 0 in
  let hist = Array.make nwires 0.0 in
  let cost = Array.make nwires infinity in
  let prev = Array.make nwires (-1) in
  let stamp = Array.make nwires 0 in
  let tree_stamp = Array.make nwires 0 in
  let epoch = ref 0 in
  let tree_epoch = ref 0 in
  let heap = Heap.create () in
  let net_wires = Array.make nnets [||] in
  let net_pips = Array.make nnets [||] in
  let srcs = Array.init nnets (fun ni -> driver_wire dev pack place ni) in
  let sinks =
    Array.init nnets (fun ni ->
        Array.of_list
          (List.map (sink_wire dev pack place) pack.Pack.nets.(ni).Pack.sinks))
  in
  (* Net bounding boxes (tile coordinates) with a per-iteration margin. *)
  let bbox = Array.make nnets (0, 0, 0, 0) in
  let compute_bbox ni margin =
    let rmin = ref max_int and rmax = ref min_int in
    let cmin = ref max_int and cmax = ref min_int in
    let touch w =
      let r = dev.Device.wrow.(w) and c = dev.Device.wcol.(w) in
      if r < !rmin then rmin := r;
      if r > !rmax then rmax := r;
      if c < !cmin then cmin := c;
      if c > !cmax then cmax := c
    in
    touch srcs.(ni);
    Array.iter touch sinks.(ni);
    bbox.(ni) <- (!rmin - margin, !rmax + margin, !cmin - margin, !cmax + margin)
  in
  let in_bbox ni w =
    let rmin, rmax, cmin, cmax = bbox.(ni) in
    let r = dev.Device.wrow.(w) and c = dev.Device.wcol.(w) in
    (* long lines span the whole row/column; never exclude them *)
    match dev.Device.wkind.(w) with
    | Device.HLong | Device.VLong -> true
    | _ -> r >= rmin && r <= rmax && c >= cmin && c <= cmax
  in
  let pres_fac = ref 0.6 in
  let wire_cost w =
    let over = float_of_int occ.(w) in
    (base_cost dev w *. (1.0 +. (over *. !pres_fac))) +. hist.(w)
  in
  let route_net ni =
    let src = srcs.(ni) in
    incr tree_epoch;
    tree_stamp.(src) <- !tree_epoch;
    let tree = ref [ src ] in
    let tree_pips = ref [] in
    let failed = ref None in
    Array.iter
      (fun sk ->
        if !failed = None && tree_stamp.(sk) <> !tree_epoch then begin
          incr epoch;
          Heap.clear heap;
          (* seed with current tree *)
          List.iter
            (fun w ->
              stamp.(w) <- !epoch;
              cost.(w) <- 0.0;
              prev.(w) <- -1;
              let dist =
                abs (dev.Device.wrow.(w) - dev.Device.wrow.(sk))
                + abs (dev.Device.wcol.(w) - dev.Device.wcol.(sk))
              in
              Heap.push heap (0.9 *. float_of_int dist) w)
            !tree;
          let found = ref false in
          let continue = ref true in
          while !continue do
            match Heap.pop heap with
            | None -> continue := false
            | Some (_, w) ->
                if w = sk then begin
                  found := true;
                  continue := false
                end
                else
                  Array.iter
                    (fun pipid ->
                      let d = Device.pip_other dev pipid w in
                      if in_bbox ni d then begin
                        let c = cost.(w) +. wire_cost d in
                        if stamp.(d) <> !epoch || c < cost.(d) then begin
                          stamp.(d) <- !epoch;
                          cost.(d) <- c;
                          prev.(d) <- pipid;
                          let dist =
                            abs (dev.Device.wrow.(d) - dev.Device.wrow.(sk))
                            + abs (dev.Device.wcol.(d) - dev.Device.wcol.(sk))
                          in
                          Heap.push heap (c +. (0.9 *. float_of_int dist)) d
                        end
                      end)
                    dev.Device.wire_out.(w)
          done;
          if not !found then failed := Some sk
          else begin
            (* backtrack: add path wires and pips to tree *)
            let rec back w =
              if tree_stamp.(w) <> !tree_epoch then begin
                tree_stamp.(w) <- !tree_epoch;
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
    match !failed with
    | Some sk -> Error sk
    | None ->
        net_wires.(ni) <- Array.of_list !tree;
        net_pips.(ni) <- Array.of_list !tree_pips;
        Array.iter (fun w -> occ.(w) <- occ.(w) + 1) net_wires.(ni);
        Ok ()
  in
  let rip_up ni =
    Array.iter (fun w -> occ.(w) <- occ.(w) - 1) net_wires.(ni);
    net_wires.(ni) <- [||];
    net_pips.(ni) <- [||]
  in
  let order = Array.init nnets (fun i -> i) in
  (* route longest-span nets first *)
  Array.sort
    (fun a b ->
      let span ni =
        let rmin, rmax, cmin, cmax = bbox.(ni) in
        rmax - rmin + (cmax - cmin)
      in
      compare (span b) (span a))
    order;
  let result = ref None in
  let iter = ref 0 in
  (* occupancy is counted per wire; a source wire occupied by its own single
     net is fine, so overuse means occ > 1 *)
  let overused w = occ.(w) > 1 in
  while !result = None && !iter < max_iters do
    let margin = 3 + (2 * !iter) in
    Array.iter (fun ni -> compute_bbox ni margin) order;
    let route_error = ref None in
    Array.iter
      (fun ni ->
        if !route_error = None then begin
          (* PathFinder renegotiates every net each iteration: a net that is
             not itself overused may be squatting on the only access wires
             of a congested sink, and must be given the chance to move. *)
          let needs = true in
          if needs then begin
            if Array.length net_wires.(ni) > 0 then rip_up ni;
            (* exclude own occupancy while measuring congestion: done by
               rip-up above *)
            match route_net ni with
            | Ok () -> ()
            | Error sk ->
                route_error :=
                  Some
                    (Printf.sprintf "net %d: no path to sink %s" ni
                       (Device.describe_wire dev sk))
          end
        end)
      order;
    (match !route_error with
    | Some msg when !iter >= max_iters - 1 -> result := Some (Error msg)
    | Some _ -> () (* enlarge bbox next iteration and retry *)
    | None ->
        let over = ref 0 in
        for w = 0 to nwires - 1 do
          if overused w then begin
            incr over;
            hist.(w) <- hist.(w) +. (0.5 *. float_of_int (occ.(w) - 1))
          end
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
                 })
        end
        else begin
          pres_fac := !pres_fac *. 1.7;
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
