(* On-disk store of Marshal'd values: the device and bit database of
   Context.create, and the implementation of Runs.implement_design.
   DESIGN.md §19 gives the format and the rules below. *)

module Metrics = Tmr_obs.Metrics
module Trace = Tmr_obs.Trace

let magic = "TMRCACHE"
let format_version = 1

type t = { dir : string; exe : string }

let dir t = t.dir

(* Every key carries the digest of the running executable, so a rebuilt
   binary never reads an entry another build wrote — also when the source
   edit is not committed and the version string did not move. *)
let exe_digest = lazy (Digest.to_hex (Digest.file Sys.executable_name))

let digest v = Digest.to_hex (Digest.string (Marshal.to_string v []))

let warn fmt =
  Printf.ksprintf (fun s -> prerr_endline ("warning: cache: " ^ s)) fmt

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ()
  end

let in_dir dir =
  mkdir_p dir;
  if not (Sys.is_directory dir) then raise (Sys_error (dir ^ ": not a directory"));
  Unix.access dir [ Unix.W_OK; Unix.X_OK ];
  { dir; exe = Lazy.force exe_digest }

let is_build_dir name =
  String.length name = 32
  && String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) name

(* Best effort: another build's directory holds flat entry files only. *)
let remove_build_dir d =
  try
    Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
    Sys.rmdir d
  with Sys_error _ -> ()

let open_default () =
  let base =
    match Sys.getenv_opt "XDG_CACHE_HOME" with
    | Some d when d <> "" && not (Filename.is_relative d) -> Some d
    | _ -> (
        match Sys.getenv_opt "HOME" with
        | Some h when h <> "" -> Some (Filename.concat h ".cache")
        | _ -> None)
  in
  match base with
  | None ->
      warn "neither XDG_CACHE_HOME nor HOME is set; running uncached";
      None
  | Some base -> (
      let root = Filename.concat base "tmrtool" in
      match
        let exe = Lazy.force exe_digest in
        let dir = Filename.concat root exe in
        let fresh = not (Sys.file_exists dir) in
        let t = in_dir dir in
        (* one build's worth of entries: a new build drops the others *)
        if fresh then
          Array.iter
            (fun name ->
              if name <> exe && is_build_dir name then
                remove_build_dir (Filename.concat root name))
            (Sys.readdir root);
        t
      with
      | t -> Some t
      | exception (Sys_error e | Unix.Unix_error (_, _, e)) ->
          warn "%s unusable (%s); running uncached" root e;
          None)

(* Fixed-width length and checksum fields, so the header goes out first
   as a placeholder and is patched in place once the payload is written. *)
let header ~key ~len ~md5 =
  Printf.sprintf "%s\nformat %d\nkey %s\nlength %020d\nmd5 %s\n" magic
    format_version key len md5

(* Every header field and the payload's MD5 are checked before the first
   Marshal.from_channel: unmarshalling corrupt bytes can crash the
   process, so only a payload written whole by this build is ever read.
   A missing entry is the normal cold case and goes unreported. *)
let load path ~key read =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic -> (
      Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
      let bad why =
        warn "%s: %s; rebuilding it" path why;
        None
      in
      let field name =
        let l = input_line ic and p = name ^ " " in
        let n = String.length p in
        if String.length l >= n && String.sub l 0 n = p then
          Some (String.sub l n (String.length l - n))
        else None
      in
      try
        if input_line ic <> magic then bad "not a cache entry"
        else
          let format = field "format" in
          if format <> Some (string_of_int format_version) then
            bad
              (Printf.sprintf "format %s, expected %d"
                 (Option.value format ~default:"unreadable")
                 format_version)
          else if field "key" <> Some key then
            bad "its key differs from its file name"
          else
            let len = Option.bind (field "length") int_of_string_opt in
            let md5 = field "md5" in
            match (len, md5) with
            | Some len, Some md5 ->
                let start = pos_in ic in
                let have = in_channel_length ic - start in
                if have <> len then
                  bad (Printf.sprintf "payload is %d bytes, header says %d" have len)
                else if Digest.to_hex (Digest.channel ic len) <> md5 then
                  bad "payload checksum mismatch"
                else begin
                  seek_in ic start;
                  let v = read ic in
                  if pos_in ic <> start + len then bad "payload length mismatch"
                  else Some v
                end
            | _ -> bad "corrupt header"
      with End_of_file | Failure _ -> bad "truncated header")

(* Write-then-rename in the entry's directory: a concurrent reader sees
   the whole entry or none of it.  The temporary name is unique per
   process and domain, so concurrent writers of one key never share it. *)
let store path ~key write v =
  let tmp =
    Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ()) (Domain.self () :> int)
  in
  try
    let oc = open_out_gen [ Open_wronly; Open_creat; Open_trunc; Open_binary ] 0o644 tmp in
    Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () ->
        output_string oc (header ~key ~len:0 ~md5:(String.make 32 '0'));
        let start = pos_out oc in
        write oc v;
        let len = pos_out oc - start in
        flush oc;
        let md5 =
          In_channel.with_open_bin tmp (fun ic ->
              seek_in ic start;
              Digest.to_hex (Digest.channel ic len))
        in
        seek_out oc 0;
        output_string oc (header ~key ~len ~md5);
        close_out oc);
    Sys.rename tmp path
  with Sys_error e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    warn "cannot store %s (%s)" path e

let memo t ~kind ~key ~read ~write build =
  let key = key ^ " exe=" ^ t.exe in
  let path =
    Filename.concat t.dir (kind ^ "-" ^ Digest.to_hex (Digest.string key))
  in
  let args = [ ("kind", kind) ] in
  match Trace.with_span ~args "cache.load" (fun () -> load path ~key read) with
  | Some v ->
      Metrics.incr (Metrics.counter ("cache.hits." ^ kind));
      v
  | None ->
      Metrics.incr (Metrics.counter ("cache.misses." ^ kind));
      let v = build () in
      Trace.with_span ~args "cache.store" (fun () -> store path ~key write v);
      v
