(** Speculative batch evaluation for the batched searches.

    Bridges {!Ddmin.minimize}'s [prefetch] hook and {!Pool} or {!Shard}:
    candidates announced by a round are evaluated in parallel into a
    side table (raw evaluations — no trace records, no budget); the
    search then consumes them sequentially through {!evaluate}, which
    commits through the {!Trace} using the speculative result when one
    exists. Records, budget accounting and the search trajectory are
    therefore identical to a sequential run. With no pool and no shard
    scheduler, both operations degrade to the plain sequential path.
    Must be driven from a single domain. *)

type t

val create :
  ?pool:Pool.t ->
  ?shard:Shard.t ->
  ?cost:(Variant.measurement -> float) ->
  trace:Trace.t ->
  evaluate:(Transform.Assignment.t -> Variant.measurement) ->
  unit ->
  t
(** [shard] replaces [pool] as the execution engine (it wins when both
    are given): each candidate becomes one work-stealing shard task and
    the scheduler's simulated cluster clock advances per batch, with
    [cost] (simulated seconds per measurement, default 0) pricing the
    tasks. A scheduler with a single simulated slot
    ([Shard.slots = 1]) disables speculation — the classic sequential
    trajectory — while still accounting every fresh evaluation
    serially. *)

val prefetch : t -> Transform.Assignment.t list -> unit
(** Evaluate the not-yet-known assignments of a batch on the pool or
    shard scheduler (deduplicated against the trace cache, earlier
    speculation, and within the batch). No-op without an engine. *)

val evaluate : t -> Transform.Assignment.t -> Variant.measurement
(** [Trace.evaluate] that serves speculative results before falling back
    to a direct evaluation. *)
