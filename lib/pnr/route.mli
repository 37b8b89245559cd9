(** Negotiated-congestion (PathFinder) routing over the device graph.

    Each net is routed as a tree from its driver wire (bel output pin or
    input pad) to every sink (bel input pins, output pads) with A*-guided
    maze expansion.  Wires have capacity one; congestion is resolved by
    iterating with growing present-sharing and history penalties. *)

type iter_stats = {
  overused : int;  (** wires used by more than one net after the iteration *)
  rerouted : int;  (** nets ripped up and routed again *)
  pops : int;  (** heap pops of the maze expansion *)
  stale : int;  (** pops skipped because a cheaper entry was expanded *)
  pres_fac : float;  (** present-congestion factor the iteration used *)
}
(** Telemetry of one PathFinder iteration. *)

type result = {
  net_pips : int array array;  (** net index -> pips of its routing tree *)
  net_wires : int array array;  (** net index -> wires (driver wire first) *)
  sink_stats : (int * int * int) array array;
      (** net index -> per sink (sink wire, pips on path, wire span sum) *)
  iterations : int;
  iter_stats : iter_stats array;  (** one per iteration, in order *)
}

val driver_wire : Tmr_arch.Device.t -> Pack.t -> Place.t -> int -> int
(** Physical wire driving a net (by net index). *)

val sink_wire : Tmr_arch.Device.t -> Pack.t -> Place.t -> Pack.sink -> int

val run :
  ?max_iters:int ->
  Tmr_arch.Device.t ->
  Pack.t ->
  Place.t ->
  (result, string) Stdlib.result
