(** Shared experimental setup: device, bit database, case-study filter,
    stimulus and campaign sizing.

    Building the XC2S200E-like device costs a couple of seconds, so every
    experiment in a process shares one context.  [scale] selects the
    paper-scale setup or a reduced one for tests and quick runs. *)

type scale =
  | Paper  (** XC2S200E-like device, 11-tap 9-bit filter *)
  | Reduced  (** small device, 3-tap filter; seconds instead of minutes *)

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

val create :
  ?cache:Cache.t ->
  ?scale:scale ->
  ?seed:int ->
  ?faults_per_design:int ->
  ?cycles:int ->
  unit ->
  t
(** Defaults: [Paper] scale, seed 1, 2000 faults per design, 48 stimulus
    cycles.  With [cache], the device and the bit database are loaded from
    it when an entry for these architecture parameters exists, and stored
    in it otherwise; without, they are always built. *)
