(* Speculative batch evaluation shared by the batched searches.

   A ddmin round announces its candidates via [prefetch]; with a pool
   (or a sharded scheduler) they are evaluated in parallel into
   [results] (raw [evaluate] calls, no trace, no budget). The search
   then consumes candidates in the sequential order through [evaluate],
   which commits to the trace with the speculative result when one
   exists — so records, budget accounting and the trajectory are
   identical to a sequential run. Results are kept across rounds:
   speculation wasted in one round can still pay off later. Only
   [prefetch]'s workers run concurrently; this table and the trace
   commits stay on the submitting domain.

   With a shard scheduler, each candidate becomes one shard task priced
   at its measurement's simulated cost, and on-demand
   evaluations that bypassed a batch are accounted serially — the
   sharded cluster clock advances exactly as if the batch had run on
   the simulated shards×workers grid. A scheduler with a single slot
   disables speculation entirely: the classic sequential trajectory,
   with every fresh evaluation accounted serially. *)

type t = {
  pool : Pool.t option;
  shard : Shard.t option;
  cost : (Variant.measurement -> float) option;
  trace : Trace.t;
  evaluate : Transform.Assignment.t -> Variant.measurement;
  results : (string, Variant.measurement) Hashtbl.t;
}

let create ?pool ?shard ?cost ~trace ~evaluate () =
  { pool; shard; cost; trace; evaluate; results = Hashtbl.create 64 }

let cost_of t m = match t.cost with Some c -> c m | None -> 0.0

let fresh_batch t asgs =
  let seen = Hashtbl.create 16 in
  List.filter_map
    (fun asg ->
      let key = Transform.Assignment.signature asg in
      if
        Hashtbl.mem t.results key || Hashtbl.mem seen key
        || Trace.find_cached t.trace asg <> None
      then None
      else begin
        Hashtbl.add seen key ();
        Some (key, asg)
      end)
    asgs

let record_results t todo evaluated =
  List.iter2 (fun (key, _) m -> Hashtbl.replace t.results key m) todo evaluated

let prefetch t asgs =
  let run (_, asg) = t.evaluate asg in
  match (t.shard, t.pool) with
  | Some sh, _ when Shard.slots sh > 1 -> (
    match fresh_batch t asgs with
    | [] -> ()
    | todo -> record_results t todo (Shard.map sh ~cost:(cost_of t) run todo))
  | Some _, _ -> ()  (* single simulated slot: no speculation *)
  | None, Some pool -> (
    match fresh_batch t asgs with
    | [] -> ()
    | todo -> record_results t todo (Pool.map pool run todo))
  | None, None -> ()

let evaluate t asg =
  Trace.evaluate t.trace
    ~f:(fun asg ->
      match Hashtbl.find_opt t.results (Transform.Assignment.signature asg) with
      | Some m -> m
      | None ->
        let m = t.evaluate asg in
        (* a fresh evaluation outside any batch runs alone on the
           simulated cluster *)
        Option.iter (fun sh -> Shard.serial sh (cost_of t m)) t.shard;
        m)
    asg
