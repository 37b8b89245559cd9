(* The on-disk implementation cache: a loaded implementation is the one
   the CAD flow builds, a bad entry is rebuilt with a warning instead of
   crashing the process, every input of the result is part of the key,
   and concurrent writers leave one whole entry.  Every case runs in its
   own temporary cache directory. *)

module Partition = Tmr_core.Partition
module Voter = Tmr_core.Voter
module Context = Tmr_experiments.Context
module Runs = Tmr_experiments.Runs
module Cache = Tmr_experiments.Cache
module Impl = Tmr_pnr.Impl
module Route = Tmr_pnr.Route
module Bitgen = Tmr_pnr.Bitgen
module Campaign = Tmr_inject.Campaign
module Bitstream = Tmr_arch.Bitstream
module Metrics = Tmr_obs.Metrics

let temp_counter = ref 0

let fresh_cache tag =
  incr temp_counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "tmr-cache-%s-%d-%d" tag (Unix.getpid ()) !temp_counter)
  in
  let rm () =
    if Sys.file_exists d then
      ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote d)))
  in
  rm ();
  at_exit rm;
  Cache.in_dir d

let entries ?(prefix = "") c =
  List.filter
    (fun f -> String.starts_with ~prefix f)
    (List.sort compare (Array.to_list (Sys.readdir (Cache.dir c))))

let counter name =
  Option.value ~default:0
    (List.assoc_opt name (Metrics.snapshot ()).Metrics.counters)

(* Run [f] with file descriptor 2 sent to a file; return its result and
   what it wrote to stderr. *)
let capture_stderr f =
  let tmp = Filename.temp_file "tmr-cache" ".err" in
  flush stderr;
  let saved = Unix.dup Unix.stderr in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  Unix.dup2 fd Unix.stderr;
  Unix.close fd;
  let r =
    Fun.protect
      ~finally:(fun () ->
        flush stderr;
        Unix.dup2 saved Unix.stderr;
        Unix.close saved)
      f
  in
  let text = In_channel.with_open_bin tmp In_channel.input_all in
  Sys.remove tmp;
  (r, text)

let ctx =
  lazy (Context.create ~scale:Context.Reduced ~seed:1 ~faults_per_design:300 ())

let bitstream_digest (i : Impl.t) =
  Digest.to_hex (Digest.string (Bitstream.to_hex i.Impl.bitgen.Bitgen.bitstream))

let check_same_impl what (fresh : Runs.design_run) (loaded : Runs.design_run)
    (ctx : Context.t) =
  let f = fresh.Runs.impl and l = loaded.Runs.impl in
  Alcotest.(check string) (what ^ ": bitstream digest") (bitstream_digest f)
    (bitstream_digest l);
  Alcotest.(check bool) (what ^ ": DUT bits") true
    (f.Impl.bitgen.Bitgen.dut_bits = l.Impl.bitgen.Bitgen.dut_bits);
  Alcotest.(check bool) (what ^ ": net pips") true
    (f.Impl.route.Route.net_pips = l.Impl.route.Route.net_pips);
  Alcotest.(check bool) (what ^ ": net wires") true
    (f.Impl.route.Route.net_wires = l.Impl.route.Route.net_wires);
  Alcotest.(check bool) (what ^ ": fault list") true
    (fresh.Runs.faultlist = loaded.Runs.faultlist);
  Alcotest.(check bool) (what ^ ": the context's device") true
    (l.Impl.dev == ctx.Context.dev && l.Impl.db == ctx.Context.db);
  Alcotest.(check bool) (what ^ ": the design's own netlist") true
    (l.Impl.source == loaded.Runs.nl)

(* Store, then load: the loaded implementation of every design matches a
   fresh one, and so does a campaign on it. *)
let test_loaded_equals_fresh () =
  let ctx = Lazy.force ctx in
  let c = fresh_cache "equal" in
  List.iter
    (fun strategy ->
      let what = Partition.name strategy in
      let fresh = Runs.implement_design ctx strategy in
      let misses = counter "cache.misses.impl" in
      ignore (Runs.implement_design ~cache:c ctx strategy);
      Alcotest.(check int) (what ^ ": first call builds") (misses + 1)
        (counter "cache.misses.impl");
      let hits = counter "cache.hits.impl" in
      let loaded = Runs.implement_design ~cache:c ctx strategy in
      Alcotest.(check int) (what ^ ": second call loads") (hits + 1)
        (counter "cache.hits.impl");
      check_same_impl what fresh loaded ctx;
      if strategy = Partition.Medium_partition then begin
        let results r =
          (Option.get (Runs.campaign_design ~workers:2 ctx r).Runs.campaign)
            .Campaign.results
        in
        Alcotest.(check bool) (what ^ ": 300-fault campaign") true
          (results fresh = results loaded)
      end)
    Partition.all_paper_designs;
  Alcotest.(check int) "one entry per design" 5
    (List.length (entries ~prefix:"impl-" c))

(* The device and bit database come back equal from the cache, and an
   implementation loaded against that context shares its device. *)
let test_context_roundtrip () =
  let c = fresh_cache "context" in
  let built = Context.create ~cache:c ~scale:Context.Reduced () in
  let hits = counter "cache.hits.context" in
  let loaded = Context.create ~cache:c ~scale:Context.Reduced () in
  Alcotest.(check int) "second create loads" (hits + 1)
    (counter "cache.hits.context");
  Alcotest.(check bool) "device equal" true
    (built.Context.dev = loaded.Context.dev);
  Alcotest.(check bool) "bit database equal" true
    (built.Context.db = loaded.Context.db);
  let fresh = Runs.implement_design built Partition.Medium_partition in
  ignore (Runs.implement_design ~cache:c loaded Partition.Medium_partition);
  check_same_impl "on a loaded context" fresh
    (Runs.implement_design ~cache:c loaded Partition.Medium_partition)
    loaded

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let replace_once ~sub ~by s =
  let n = String.length sub in
  let rec find i =
    if i + n > String.length s then Alcotest.failf "%S not in entry" sub
    else if String.sub s i n = sub then i
    else find (i + 1)
  in
  let i = find 0 in
  String.sub s 0 i ^ by ^ String.sub s (i + n) (String.length s - i - n)

(* Each damaged entry is rebuilt after one warning line, the rebuilt
   implementation is the right one, and the entry is whole again. *)
let test_bad_entries_rebuilt () =
  let ctx = Lazy.force ctx in
  let design = Partition.Medium_partition in
  let fresh = Runs.implement_design ctx design in
  let damages =
    [
      ( "truncated",
        fun path ->
          let s = read_file path in
          write_file path (String.sub s 0 (String.length s / 2)) );
      ( "flipped payload byte",
        fun path ->
          let b = Bytes.of_string (read_file path) in
          let i = Bytes.length b - 100 in
          Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x10));
          write_file path (Bytes.to_string b) );
      ( "wrong format version",
        fun path ->
          write_file path
            (replace_once ~sub:"\nformat 1\n" ~by:"\nformat 0\n" (read_file path)) );
      ( "header key differs from its file name",
        fun path ->
          (* another design's entry moved onto this one's file *)
          let c = Cache.in_dir (Filename.dirname path) in
          ignore (Runs.implement_design ~cache:c ctx Partition.Unprotected);
          let other =
            List.find
              (fun f -> Filename.concat (Cache.dir c) f <> path)
              (entries ~prefix:"impl-" c)
          in
          Sys.rename (Filename.concat (Cache.dir c) other) path );
    ]
  in
  List.iter
    (fun (what, damage) ->
      let c = fresh_cache "bad" in
      ignore (Runs.implement_design ~cache:c ctx design);
      let path =
        match entries ~prefix:"impl-" c with
        | [ f ] -> Filename.concat (Cache.dir c) f
        | fs -> Alcotest.failf "%s: %d entries" what (List.length fs)
      in
      damage path;
      let misses = counter "cache.misses.impl" in
      let rebuilt, err =
        capture_stderr (fun () -> Runs.implement_design ~cache:c ctx design)
      in
      Alcotest.(check int) (what ^ ": rebuilt") (misses + 1)
        (counter "cache.misses.impl");
      Alcotest.(check int)
        (what ^ ": one warning line, got " ^ String.escaped err)
        1
        (List.length (String.split_on_char '\n' (String.trim err)));
      Alcotest.(check bool) (what ^ ": the warning says so") true
        (String.starts_with ~prefix:"warning: cache: " err);
      check_same_impl what fresh rebuilt ctx;
      let hits = counter "cache.hits.impl" in
      let again, err =
        capture_stderr (fun () -> Runs.implement_design ~cache:c ctx design)
      in
      Alcotest.(check string) (what ^ ": whole again, quietly") "" err;
      Alcotest.(check int) (what ^ ": loads again") (hits + 1)
        (counter "cache.hits.impl");
      check_same_impl what fresh again ctx)
    damages

(* Seed, voter and design each change the implementation, so each gets
   its own entry. *)
let test_distinct_keys () =
  let c = fresh_cache "keys" in
  let base = Lazy.force ctx in
  let seed2 = Context.create ~scale:Context.Reduced ~seed:2 () in
  List.iter
    (fun (ctx, voter, design) ->
      ignore (Runs.implement_design ~cache:c ~voter ctx design))
    [
      (base, Voter.Majority, Partition.Medium_partition);
      (seed2, Voter.Majority, Partition.Medium_partition);
      (base, Voter.Detecting, Partition.Medium_partition);
      (base, Voter.Majority, Partition.Max_partition);
    ];
  Alcotest.(check int) "four implementations, four entries" 4
    (List.length (entries ~prefix:"impl-" c))

(* Scale changes the device (the context entry) and the implementation. *)
let test_distinct_scale () =
  let c = fresh_cache "scale" in
  List.iter
    (fun scale ->
      let ctx = Context.create ~cache:c ~scale ~seed:1 () in
      ignore (Runs.implement_design ~cache:c ctx Partition.Unprotected))
    [ Context.Reduced; Context.Paper ];
  Alcotest.(check int) "two devices, two context entries" 2
    (List.length (entries ~prefix:"context-" c));
  Alcotest.(check int) "two implementations, two entries" 2
    (List.length (entries ~prefix:"impl-" c))

(* Two domains build and store one key at once: one whole entry is left,
   and no temporary file. *)
let test_concurrent_store () =
  let c = fresh_cache "race" in
  let value = Array.init 500_000 (fun i -> i * 7) in
  let memo build =
    Cache.memo c ~kind:"race" ~key:"k"
      ~read:(fun ic -> (Marshal.from_channel ic : int array))
      ~write:(fun oc v -> Marshal.to_channel oc v [])
      build
  in
  let ds =
    Array.init 2 (fun _ -> Domain.spawn (fun () -> memo (fun () -> Array.copy value)))
  in
  Array.iter (fun d -> ignore (Domain.join d)) ds;
  Alcotest.(check int) "one entry, no temporary file" 1
    (List.length (entries c));
  Alcotest.(check int) "and it is the key's" 1
    (List.length (entries ~prefix:"race-" c));
  let loaded, err =
    capture_stderr (fun () ->
        memo (fun () -> Alcotest.fail "the entry should have loaded"))
  in
  Alcotest.(check string) "no warning" "" err;
  Alcotest.(check bool) "entry readable" true (loaded = value)

let () =
  Alcotest.run "cache"
    [
      ( "cache",
        [
          Alcotest.test_case "loaded == fresh (5 designs)" `Quick
            test_loaded_equals_fresh;
          Alcotest.test_case "context roundtrip" `Quick test_context_roundtrip;
          Alcotest.test_case "bad entries rebuilt with a warning" `Quick
            test_bad_entries_rebuilt;
          Alcotest.test_case "seed, voter, design: distinct entries" `Quick
            test_distinct_keys;
          Alcotest.test_case "scale: distinct entries" `Slow
            test_distinct_scale;
          Alcotest.test_case "two domains store one key" `Quick
            test_concurrent_store;
        ] );
    ]
