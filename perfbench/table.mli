(** The benchmark's metric table: every name it prints, with its unit
    and direction. [BENCHMARK.json] lists the same names and units. *)

type kind = End_to_end | Per_layer
type better = Lower | Higher

type metric = { name : string; unit_ : string; better : better; kind : kind }

val metrics : metric list
val end_to_end : metric list
val per_layer : metric list

val find : string -> metric
(** Raises [Not_found] for a name outside the table. *)
