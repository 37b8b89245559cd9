(** On-disk cache of the expensive, deterministic parts of a command: the
    device and bit database ({!Context.create}) and a design's
    implementation ({!Runs.implement_design}).

    Each entry is one file holding a header (magic, format version, full
    key, payload length, payload MD5) and then the payload, one or more
    [Marshal] values.  A missing entry is built and stored; a stale,
    truncated or corrupt one is rebuilt after one warning line on stderr.
    Every key includes the digest of the running executable, so entries
    never outlive the code that wrote them.  See DESIGN.md §19. *)

type t

val open_default : unit -> t option
(** The cache of the running executable:
    [$XDG_CACHE_HOME/tmrtool/<exe-digest>/], else
    [$HOME/.cache/tmrtool/<exe-digest>/].  Creating it deletes the other
    builds' directories beside it (best effort).  [None], after a warning,
    when neither location is usable. *)

val in_dir : string -> t
(** A cache in [dir], created if missing.  Raises [Sys_error] or
    [Unix.Unix_error] when [dir] cannot be used. *)

val dir : t -> string

val digest : 'a -> string
(** Hex MD5 of a value's [Marshal] image — a key component for plain
    data such as a netlist or the architecture parameters. *)

val memo :
  t ->
  kind:string ->
  key:string ->
  read:(in_channel -> 'a) ->
  write:(out_channel -> 'a -> unit) ->
  (unit -> 'a) ->
  'a
(** [memo t ~kind ~key ~read ~write build] loads the entry with [read]
    when it is present and whole, else runs [build] and stores its value
    with [write].  [read] must consume exactly what [write] produced.
    Counts [cache.hits.<kind>] or [cache.misses.<kind>], and traces
    [cache.load] and [cache.store] spans. *)
