(** Process-wide cross-campaign evaluation memo.

    One table per server process, shared by every job the scheduler
    multiplexes: pre-fault measurements keyed by {e evaluation space} ×
    signature, where a space ({!space_key}) is the equivalence class of
    campaigns whose measurements are interchangeable — same model source
    (name + content digest) and same result-affecting configuration
    ({!Config.digest}: includes the seed, excludes fault specs,
    worker counts and execution strategy). N concurrent jobs in one space
    evaluate each variant once fleet-wide; jobs in different spaces never
    share. First write wins under the mutex. The memo is in-memory only —
    a restarted server starts empty and jobs resume from their own
    journals, re-sharing fresh work as it happens.

    The campaign runners ({!Tuner.run_delta_debug} and friends, [?memo])
    consult it directly: each own-cache miss asks {!find} before
    evaluating, and each fresh evaluation is {!publish}ed under the job's
    id. It stays a separate table from the campaign's {!Search.Trace}
    cache because the two hold different values for the same signature:
    the trace caches {e post-fault} measurements (what journals hold and
    resume preloads), the memo {e pre-fault} ones (each consuming job
    applies its own fault plan). *)

type t

type stats = {
  entries : int;  (** distinct (space, signature) measurements stored *)
  finds : int;  (** lookup calls *)
  hits : int;  (** lookups answered *)
  publishes : int;  (** publish calls (first write per key wins) *)
}

val create : unit -> t

val space_key : model:Models.Registry.t -> config:Config.t -> string

val find :
  t -> space:string -> signature:string -> (Search.Variant.measurement * string) option
(** The stored pre-fault measurement and its donor job id, if any. A
    caller that finds its own id as donor must treat the answer as a miss:
    a job never cites itself (a resumed job may probe signatures it
    published in an earlier slice). *)

val publish :
  t -> space:string -> donor:string -> signature:string -> Search.Variant.measurement -> unit

val stats : t -> stats
