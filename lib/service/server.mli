(** The [prose serve] event loop.

    Single-threaded: the loop alternates between handling client
    requests (one request line per connection; see {!Proto}) and running
    {!Sched.step} slices, so campaign state is never touched
    concurrently. [watch] connections stay registered and stream status
    events as the scheduler progresses.

    SIGTERM/SIGINT drain the server: the in-flight slice pauses at its
    next durable record, every [Running] job is marked [Paused], the
    socket is unlinked and {!run} returns. A later server (or a solo
    [prose tune --resume]) continues every journal bit-identically with
    zero re-evaluation of the journaled prefix. *)

val run :
  ?slice_records:int ->
  ?find_model:(string -> Models.Registry.t) ->
  ?log:(string -> unit) ->
  root:string ->
  slots:int ->
  unit ->
  (unit, string) result
(** Serve the given store root on [ROOT/prose.sock] until drained.
    [slots] sizes the shared evaluation pool lent to every job slice
    ([0] = strictly sequential evaluation); job results never depend on
    it. [slice_records] (default 8) is the per-slice fresh-record
    budget. The server always keeps one process-wide cross-campaign
    evaluation memo ({!Memo}): concurrent jobs in the same evaluation
    space evaluate each variant once fleet-wide, with memo-served records
    journaled normally plus a provenance line; job results never depend
    on it. A stale socket (no listener behind it) is replaced; [Error _]
    is returned when another server is actually listening. *)
