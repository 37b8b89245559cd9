module Partition = Tmr_core.Partition
module Impl = Tmr_pnr.Impl
module Faultlist = Tmr_inject.Faultlist
module Campaign = Tmr_inject.Campaign

type design_run = {
  strategy : Partition.strategy;
  voter : Tmr_core.Voter.variant;
  nl : Tmr_netlist.Netlist.t;
  impl : Impl.t;
  faultlist : Faultlist.t;
  campaign : Campaign.t option;
}

(* What the cache keeps of an implementation: everything but the source
   netlist, the seed (both in the key) and the device and bit database,
   which come back from the context so that every campaign of a process
   shares one device. *)
type impl_parts =
  Tmr_netlist.Netlist.t
  * Tmr_pnr.Pack.t
  * Tmr_pnr.Place.t
  * Tmr_pnr.Route.result
  * Tmr_pnr.Bitgen.t
  * Tmr_pnr.Timing.report

let implement ?cache (ctx : Context.t) nl =
  let seed = ctx.Context.seed and dev = ctx.Context.dev and db = ctx.Context.db in
  let build () =
    Impl.implement_exn ~seed ?moves_per_site:ctx.Context.place_moves dev db nl
  in
  match cache with
  | None -> build ()
  | Some c ->
      let key =
        Printf.sprintf "nl=%s seed=%d moves=%s arch=%s" (Cache.digest nl) seed
          (match ctx.Context.place_moves with
          | None -> "default"
          | Some m -> string_of_int m)
          (Cache.digest dev.Tmr_arch.Device.params)
      in
      let mapped, pack, place, route, bitgen, timing =
        Cache.memo c ~kind:"impl" ~key
          ~read:(fun ic -> (Marshal.from_channel ic : impl_parts))
          ~write:(fun oc (p : impl_parts) -> Marshal.to_channel oc p [])
          (fun () ->
            let i = build () in
            Impl.(i.mapped, i.pack, i.place, i.route, i.bitgen, i.timing))
      in
      { Impl.source = nl; mapped; dev; db; pack; place; route; bitgen; timing; seed }

let implement_design ?cache ?(voter = Tmr_core.Voter.Majority)
    (ctx : Context.t) strategy =
  let nl =
    Tmr_filter.Designs.build ~params:ctx.Context.params ~voter strategy
  in
  let impl = implement ?cache ctx nl in
  {
    strategy;
    voter;
    nl;
    impl;
    faultlist = Faultlist.of_impl impl;
    campaign = None;
  }

let campaign_design ?progress ?workers ?cone_skip ?forensics ?stop_at_ci
    (ctx : Context.t) run =
  let name = Partition.name run.strategy in
  let faults =
    Faultlist.sample run.faultlist ~seed:ctx.Context.seed
      ~count:ctx.Context.faults_per_design
  in
  let progress_cb = Option.map (fun f p -> f name p) progress in
  let campaign =
    Campaign.run ?progress:progress_cb ?workers ?cone_skip ?forensics
      ?stop_at_ci ~name ~impl:run.impl
      ~golden:ctx.Context.golden_nl ~stimulus:ctx.Context.stimulus ~faults ()
  in
  { run with campaign = Some campaign }

let run_all ?cache ?progress ?workers ?forensics ?stop_at_ci ?voter ctx =
  List.map
    (fun strategy ->
      campaign_design ?progress ?workers ?forensics ?stop_at_ci ctx
        (implement_design ?cache ?voter ctx strategy))
    Partition.all_paper_designs

let coverage_of run =
  match run.campaign with
  | None -> None
  | Some c ->
      let faults = Array.map (fun r -> r.Campaign.bit) c.Campaign.results in
      Some
        (Tmr_inject.Coverage.of_faults ~db:run.impl.Impl.db
           ~faultlist:run.faultlist ~faults)
