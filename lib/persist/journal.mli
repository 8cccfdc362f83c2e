(** Durable campaign journal: a write-ahead JSONL log of every evaluated
    variant.

    A campaign directory holds one [journal.jsonl]. Its first line is a
    versioned header identifying the campaign (model, search algorithm,
    seed, a digest of the result-affecting configuration, search-space
    size); every further line is one committed
    {!Search.Variant.record}, content-addressed by its
    {!Transform.Assignment.signature} and written {e before} the campaign
    proceeds (flushed and fsynced by default), so a SIGKILL at any moment
    loses at most the record being appended.

    Record lines are emitted in commit order by {!Search.Trace}'s append
    sink, which fires under the trace mutex. The header holds nothing
    that depends on the host or the worker count, so a whole journal is
    byte-identical for every worker count and shard layout; a [workers]
    field in a journal written before that is ignored. Measurement floats are stored as lossless [%h] hex
    strings: a replayed record compares bit-identical to the original.

    {!load} tolerates a torn final line (the crash case): everything up to
    the last complete line is returned, and {!reopen} truncates the torn
    tail before appending — the write-ahead discipline for resume. *)

type header = {
  version : int;
  model : string;  (** registry name, e.g. ["mpas"] *)
  algo : string;  (** ["brute_force"], ["delta_debug"] or ["hierarchical"] *)
  seed : int;
  config_digest : string;  (** {!Core.Config} digest over result-affecting fields *)
  atoms : int;  (** search-space size; signatures must have this length *)
  caps : string list;
      (** declared optional line kinds. Writers in this tree always
          declare [["shared"]]; journals written before the field existed
          parse as [[]], and a journal may only contain a "shared"
          provenance line when its header declares the capability —
          anywhere else such a line is damage, exactly as any other
          unknown kind. *)
}

type entry = {
  e_index : int;  (** 1-based commit index *)
  e_signature : string;
  e_meas : Search.Variant.measurement;
  e_score : float option;
      (** predicted score the sensitivity scorer assigned at commit time;
          [None] on unpredicted runs and every pre-PR-9 journal (the field
          is simply absent from those lines, and absent fields parse as
          [None] — version stays 1) *)
  e_bound : float option;  (** static error bound, same presence rule *)
}

type shared = {
  sh_index : int;  (** commit index of the record line being annotated *)
  sh_signature : string;
  sh_donor : string;  (** donor job id that published the measurement *)
}
(** Cross-campaign provenance annotation: written immediately after the
    record line it attributes to the fleet-wide evaluation memo. Carries
    no measurement data, so stripping every "shared" line recovers the
    solo journal byte for byte; losing one to a crash loses provenance
    metadata only, never a record. *)

exception Corrupt of string
(** Unreadable or mismatching journal (bad header, wrong version, record
    before header, signature length mismatch). A torn {e final} line is
    not corruption — see {!load}. *)

val file : dir:string -> string
(** [dir ^ "/journal.jsonl"]. *)

val entry_of_record : Search.Variant.record -> entry
(** [e_score]/[e_bound] are [None]; a predicting caller fills them in
    before {!append}. *)

type writer

val create : ?fsync:bool -> dir:string -> header -> writer
(** Creates [dir] (and parents) if needed and the journal file with the
    header line. Fails with [Sys_error] if a journal already exists there
    — resuming must go through {!reopen}. [fsync] (default [true]) syncs
    after every line. *)

val append : writer -> entry -> unit
(** Write one record line, flush, and (by default) fsync. *)

val append_shared : writer -> shared -> unit
(** Write one provenance annotation line (immediately after the record it
    annotates). Only meaningful when the header declares the ["shared"]
    capability. *)

val close : writer -> unit

type loaded = {
  l_header : header;
  l_entries : entry list;  (** in commit order; indices are 1..n *)
  l_shared : shared list;  (** provenance annotations, in file order *)
  l_valid_bytes : int;  (** prefix length covered by complete lines *)
  l_torn : bool;  (** a trailing incomplete line was discarded *)
}

val load : dir:string -> loaded
(** Raises {!Corrupt} on a missing or malformed journal; a torn final
    line only sets [l_torn]. *)

val reopen : ?fsync:bool -> dir:string -> unit -> loaded * writer
(** {!load}, then truncate the file to [l_valid_bytes] (dropping any torn
    tail) and reopen it for appending. *)

val find_campaigns : ?max_depth:int -> root:string -> unit -> string list
(** Every directory at or below [root] (descending at most [max_depth]
    levels, default 3) that holds a [journal.jsonl], in deterministic
    depth-first lexicographic order; campaign directories are not
    descended into. Foreign files, broken symlinks and unreadable
    directories are skipped silently, so the scan is safe on a root that
    mixes campaign dirs with other state (e.g. a service root). Never
    raises; journals are located, not validated. *)
