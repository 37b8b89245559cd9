module Srand = Tmr_logic.Srand
module Extract = Tmr_fabric.Extract

type result = {
  trials : int;
  cap : int;
  upsets_to_failure : int array;
  mean : float;
  survived : int;
}

let accumulate ?(trials = 20) ?(cap = 60) ~seed ~impl ~golden ~stimulus
    ~faultlist () =
  let h = Campaign.harness ~name:"scrub" ~impl ~golden ~stimulus in
  let rng = Srand.create (seed * 131 + 7) in
  let bits = faultlist.Faultlist.bits in
  let upsets_to_failure =
    Array.init trials (fun _ ->
        (* a fresh (scrubbed) configuration for every trial *)
        let ex = Campaign.fresh_extract h in
        let injected = Hashtbl.create 64 in
        let rec inject k =
          if k > cap then cap + 1
          else begin
            let bit = Srand.pick rng bits in
            if Hashtbl.mem injected bit then inject k
            else begin
              Hashtbl.add injected bit ();
              Extract.apply_bit_flip ex bit;
              let err, _, _ = Campaign.replay h ex in
              if err >= 0 then k else inject (k + 1)
            end
          end
        in
        inject 1)
  in
  let mean =
    float_of_int (Array.fold_left ( + ) 0 upsets_to_failure)
    /. float_of_int (max trials 1)
  in
  let survived =
    Array.fold_left
      (fun acc v -> if v > cap then acc + 1 else acc)
      0 upsets_to_failure
  in
  { trials; cap; upsets_to_failure; mean; survived }
