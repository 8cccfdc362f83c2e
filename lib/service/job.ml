(* A tuning request as the service persists it: what to tune (model +
   search settings, exactly the knobs `prose tune` exposes that affect
   results) plus how much simulated cluster time the tenant may burn. *)

open Persist

type spec = {
  sp_model : string;
  sp_algo : string;
  sp_seed : int;
  sp_workers : int;
  sp_max_variants : int option;
  sp_whole_model : bool;
  sp_quota_hours : float option;
  sp_faults : Core.Cluster.Faults.spec option;
  sp_tenant : string;
  sp_priority : int;  (* scheduling weight: slices per round-robin turn *)
}

type state = Queued | Running | Paused | Done | Failed of string

type t = {
  id : string;
  spec : spec;
  state : state;
  records : int;
  hours : float;
  best_speedup : float;
  shared : int;  (* records served by the fleet memo, cumulative *)
}

let make ~id spec =
  { id; spec; state = Queued; records = 0; hours = 0.0; best_speedup = 0.0; shared = 0 }

let state_name = function
  | Queued -> "queued"
  | Running -> "running"
  | Paused -> "paused"
  | Done -> "done"
  | Failed _ -> "failed"

let terminal = function Done | Failed _ -> true | Queued | Running | Paused -> false
let runnable = function Queued | Running | Paused -> true | Done | Failed _ -> false

(* The exact configuration `prose tune` builds from the same settings —
   anything less and the journal's config digest would diverge from the
   solo run the service's byte-identity invariant is stated against. *)
let config_of_spec s =
  {
    Core.Config.default with
    Core.Config.seed = s.sp_seed;
    max_variants = s.sp_max_variants;
    mode = (if s.sp_whole_model then Core.Config.Whole_model_guided else Core.Config.Hotspot_guided);
  }

let validate ~find_model s =
  if Core.Tuner.algo_of_name s.sp_algo = None then
    Error (Printf.sprintf "unknown algorithm %S (brute_force, delta_debug, hierarchical)" s.sp_algo)
  else if s.sp_workers < 0 then Error "workers must be >= 0"
  else if (match s.sp_max_variants with Some n -> n < 1 | None -> false) then
    Error "max-variants must be >= 1"
  else if (match s.sp_quota_hours with Some q -> not (q > 0.0) | None -> false) then
    Error "quota must be positive"
  else if s.sp_priority < 1 then Error "priority must be >= 1"
  else
    match s.sp_faults with
    | Some f when f.Core.Cluster.Faults.preempt_at_hours <> None ->
      (* the scheduler is the thing that decides when a job stops running;
         a job-supplied preemption boundary would fight the quota clock
         and, below the quota, pin the job in a never-progressing
         resume loop *)
      Error "job fault specs may not set a preemption boundary; use a quota instead"
    | _ -> (
      match find_model s.sp_model with
      | (_ : Models.Registry.t) -> Ok ()
      | exception Not_found -> Error (Printf.sprintf "unknown model %S" s.sp_model))

(* ------------------------------------------------------------------ *)
(* JSON codecs (Persist.Json; hex floats for bit-exact round trips)    *)

let hex = Json.hex_float

let faults_json (f : Core.Cluster.Faults.spec) =
  Json.Obj
    [
      ("seed", Json.Num (float_of_int f.Core.Cluster.Faults.fault_seed));
      ("transient", Json.Str (hex f.Core.Cluster.Faults.transient_prob));
      ("node", Json.Str (hex f.Core.Cluster.Faults.node_failure_prob));
      ("retries", Json.Num (float_of_int f.Core.Cluster.Faults.max_retries));
      ( "preempt",
        match f.Core.Cluster.Faults.preempt_at_hours with
        | Some h -> Json.Str (hex h)
        | None -> Json.Null );
    ]

let spec_json s =
  Json.Obj
    [
      ("model", Json.Str s.sp_model);
      ("algo", Json.Str s.sp_algo);
      ("seed", Json.Num (float_of_int s.sp_seed));
      ("workers", Json.Num (float_of_int s.sp_workers));
      ( "max_variants",
        match s.sp_max_variants with Some n -> Json.Num (float_of_int n) | None -> Json.Null );
      ("whole_model", Json.Bool s.sp_whole_model);
      ( "quota_hours",
        match s.sp_quota_hours with Some h -> Json.Str (hex h) | None -> Json.Null );
      ("faults", match s.sp_faults with Some f -> faults_json f | None -> Json.Null);
      ("tenant", Json.Str s.sp_tenant);
      ("priority", Json.Num (float_of_int s.sp_priority));
    ]

let to_json j =
  Json.Obj
    [
      ("id", Json.Str j.id);
      ("spec", spec_json j.spec);
      ("state", Json.Str (state_name j.state));
      ("error", match j.state with Failed m -> Json.Str m | _ -> Json.Null);
      ("records", Json.Num (float_of_int j.records));
      ("hours", Json.Str (hex j.hours));
      ("best_speedup", Json.Str (hex j.best_speedup));
      ("shared", Json.Num (float_of_int j.shared));
    ]

exception Bad of string

let get j k = match Json.member k j with Some v -> v | None -> raise (Bad ("missing " ^ k))
let need k = function Some v -> v | None -> raise (Bad ("ill-typed " ^ k))
let get_str j k = need k (Json.to_str (get j k))
let get_int j k = need k (Json.to_int (get j k))
let get_bool j k = need k (Json.to_bool (get j k))
let hex_of k v = need k (Option.bind (Json.to_str v) Json.of_hex_float)
let get_hex j k = hex_of k (get j k)
let get_opt j k f = match Json.member k j with None | Some Json.Null -> None | Some v -> Some (f k v)

let faults_of_json j =
  {
    Core.Cluster.Faults.fault_seed = get_int j "seed";
    transient_prob = get_hex j "transient";
    node_failure_prob = get_hex j "node";
    max_retries = get_int j "retries";
    preempt_at_hours = get_opt j "preempt" hex_of;
  }

let spec_of_json j =
  {
    sp_model = get_str j "model";
    sp_algo = get_str j "algo";
    sp_seed = get_int j "seed";
    sp_workers = get_int j "workers";
    sp_max_variants = get_opt j "max_variants" (fun k v -> need k (Json.to_int v));
    sp_whole_model = get_bool j "whole_model";
    sp_quota_hours = get_opt j "quota_hours" hex_of;
    sp_faults = get_opt j "faults" (fun _ v -> faults_of_json v);
    sp_tenant = get_str j "tenant";
    (* absent on pre-PR-10 state files: plain round-robin weight *)
    sp_priority =
      (match get_opt j "priority" (fun k v -> need k (Json.to_int v)) with
      | Some p -> p
      | None -> 1);
  }

let state_of_json j =
  match get_str j "state" with
  | "queued" -> Queued
  | "running" -> Running
  | "paused" -> Paused
  | "done" -> Done
  | "failed" ->
    Failed (match get_opt j "error" (fun k v -> need k (Json.to_str v)) with Some m -> m | None -> "")
  | s -> raise (Bad ("unknown state " ^ s))

let spec_result j =
  match spec_of_json j with s -> Ok s | exception Bad m -> Error m

let of_json j =
  match
    {
      id = get_str j "id";
      spec = spec_of_json (get j "spec");
      state = state_of_json j;
      records = get_int j "records";
      hours = get_hex j "hours";
      best_speedup = get_hex j "best_speedup";
      shared =
        (match get_opt j "shared" (fun k v -> need k (Json.to_int v)) with
        | Some n -> n
        | None -> 0);
    }
  with
  | j -> Ok j
  | exception Bad m -> Error m
