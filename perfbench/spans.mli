(** In-memory span recorder for the traced run.

    A span is one call the benchmark made into a layer: its name, the
    campaign it belongs to, the span that caused it, and its start and
    end on the host clock. Spans stay in memory until {!to_jsonl}. *)

type span = {
  id : int;
  name : string;
  campaign : string;
  parent : int option;
  start : float;  (** seconds, [Unix.gettimeofday] *)
  stop : float;
}

type t

val create : unit -> t

val record : t -> ?parent:int -> campaign:string -> string -> (int -> 'a) -> 'a
(** [record t ~campaign name f] runs [f id] inside a new span [id] (pass
    [id] as the [parent] of the spans [f] opens). The span is recorded
    even when [f] raises. *)

val spans : t -> span list
(** In start order. *)

val duration : span -> float

val durations : t -> ?campaign:string -> string -> float list
(** Durations of every span with this name (and campaign), in order. *)

val self_time : span -> span list -> float
(** The span's duration minus the part of its interval covered by the
    given child spans (overlapping children count once; parts of a
    child outside the parent's interval are ignored). *)

val to_jsonl : t -> string
(** One JSON object per line, in start order. *)
