type scale =
  | Paper
  | Reduced

type t = {
  scale : scale;
  dev : Tmr_arch.Device.t;
  db : Tmr_arch.Bitdb.t;
  params : Tmr_filter.Fir.params;
  golden_nl : Tmr_netlist.Netlist.t;
  stimulus : Tmr_inject.Campaign.stimulus;
  seed : int;
  faults_per_design : int;
  place_moves : int option;
}

(* The device and the bit database are two Marshal values, written as
   soon as they are built: one tuple would make Marshal's sharing table
   span both graphs and raise the peak RSS (DESIGN §19). *)
let build_model ?cache arch_params =
  let build () =
    let dev =
      Tmr_obs.Trace.with_span "arch.device_build" (fun () ->
          Tmr_arch.Device.build arch_params)
    in
    let db =
      Tmr_obs.Trace.with_span "arch.bitdb_build" (fun () ->
          Tmr_arch.Bitdb.build dev)
    in
    (dev, db)
  in
  match cache with
  | None -> build ()
  | Some c ->
      Cache.memo c ~kind:"context"
        ~key:("arch=" ^ Cache.digest arch_params)
        ~read:(fun ic ->
          let dev : Tmr_arch.Device.t = Marshal.from_channel ic in
          let db : Tmr_arch.Bitdb.t = Marshal.from_channel ic in
          (dev, db))
        ~write:(fun oc (dev, db) ->
          Marshal.to_channel oc dev [];
          Marshal.to_channel oc db [])
        build

let create ?cache ?(scale = Paper) ?(seed = 1) ?(faults_per_design = 2000)
    ?(cycles = 48) () =
  let arch_params, fir_params =
    match scale with
    | Paper -> (Tmr_arch.Arch.xc2s200e, Tmr_filter.Fir.paper_params)
    | Reduced -> (Tmr_arch.Arch.small, Tmr_filter.Fir.tiny_params)
  in
  let dev, db = build_model ?cache arch_params in
  let golden_nl = Tmr_filter.Fir.build fir_params in
  let samples = Tmr_filter.Fir.stimulus ~cycles ~seed:(seed + 1000) fir_params in
  {
    scale;
    dev;
    db;
    params = fir_params;
    golden_nl;
    stimulus = { Tmr_inject.Campaign.cycles; inputs = [ ("x", samples) ] };
    seed;
    faults_per_design;
    place_moves = None;
  }
