(* The repository benchmark. One workload per process:

     main.exe --workload hotspot|predict|fleet [--seed N] [--seconds S] [--trace 0|1]

   Every workload is a closed loop with one client on one domain
   ([workers 0], no shards, no sockets): each campaign or service slice
   starts when the previous one returns. With --trace 0 the workload is
   repeated for at least --seconds (and at least twice) with nothing
   but the benchmark's own clock reads around its calls, and the
   end-to-end metrics are medians over those passes. With --trace 1 one
   untraced pass is followed by a traced pass and a replay of that
   pass's fresh evaluations, timed call by call; the per-layer metrics
   come from those spans. Both modes check the program's outputs. The
   last line of standard output is the result object; README.md
   explains the workloads and metrics. *)

let now = Unix.gettimeofday
let pf = Printf.printf

(* ------------------------------------------------------------------ *)
(* Arguments                                                           *)

type workload = Hotspot | Predict | Fleet

(* Numbers are measured at seed 42; seed 7 is held out for checking
   claims made on them. *)
let default_seed = 42

let usage () =
  prerr_endline
    "usage: main.exe --workload hotspot|predict|fleet [--seed N] [--seconds S] [--trace 0|1]";
  exit 2

let workload, seed, seconds, traced =
  let w = ref None and seed = ref default_seed and secs = ref 10 and trace = ref false in
  let int v = match int_of_string_opt v with Some n -> n | None -> usage () in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest ->
      (w :=
         match v with
         | "hotspot" -> Some Hotspot
         | "predict" -> Some Predict
         | "fleet" -> Some Fleet
         | _ -> usage ());
      go rest
    | "--seed" :: v :: rest ->
      seed := int v;
      go rest
    | "--seconds" :: v :: rest ->
      secs := int v;
      if !secs < 1 then usage ();
      go rest
    | "--trace" :: v :: rest ->
      (trace := match v with "0" -> false | "1" -> true | _ -> usage ());
      go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match !w with Some w -> (w, !seed, float_of_int !secs, !trace) | None -> usage ()

let workload_name = function Hotspot -> "hotspot" | Predict -> "predict" | Fleet -> "fleet"

(* ------------------------------------------------------------------ *)
(* Output checks: every one counts towards [attempted]; a failure is
   reported on stderr and counts towards [failed].                      *)

let attempted = ref 0
let failed = ref 0

let check label ok =
  incr attempted;
  if not ok then begin
    incr failed;
    Printf.eprintf "FAIL %s\n%!" label
  end

let same_meas (a : Search.Variant.measurement) b = compare a b = 0

(* ------------------------------------------------------------------ *)
(* Temporary files inside the checkout                                 *)

let out_dir = ".perfbench"

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let mkdir_p path =
  let rec go p =
    if not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      Unix.mkdir p 0o755
    end
  in
  go path

let tmp_root = Filename.concat out_dir (Printf.sprintf "run-%d" (Unix.getpid ()))

let fresh_dir =
  let n = ref 0 in
  fun label ->
    incr n;
    let d = Filename.concat tmp_root (Printf.sprintf "%s-%d" label !n) in
    mkdir_p d;
    d

let slurp path = In_channel.with_open_bin path In_channel.input_all

let drop_lines_with sub s =
  let has l =
    let n = String.length sub and m = String.length l in
    let rec at i = i + n <= m && (String.sub l i n = sub || at (i + 1)) in
    at 0
  in
  String.split_on_char '\n' s |> List.filter (fun l -> not (has l)) |> String.concat "\n"

(* ------------------------------------------------------------------ *)
(* Host fingerprint                                                    *)

let nproc () =
  match Unix.open_process_args_in "nproc" [| "nproc" |] with
  | exception Unix.Unix_error _ -> "unknown"
  | ic ->
    let s = try String.trim (input_line ic) with End_of_file -> "unknown" in
    ignore (Unix.close_process_in ic);
    s

(* the filesystem type of the longest mount point that prefixes [dir] *)
let filesystem_of dir =
  match In_channel.with_open_text "/proc/self/mountinfo" In_channel.input_all with
  | exception Sys_error _ -> "unknown"
  | text ->
    let path = try Unix.realpath dir with Unix.Unix_error _ -> dir in
    let prefix mp =
      mp = "/"
      || (String.starts_with ~prefix:mp path
         && (String.length path = String.length mp || path.[String.length mp] = '/'))
    in
    String.split_on_char '\n' text
    |> List.fold_left
         (fun best line ->
           match String.split_on_char ' ' line with
           | _ :: _ :: _ :: _ :: mp :: rest when prefix mp -> (
             let rec after_dash = function "-" :: fs :: _ -> Some fs | _ :: r -> after_dash r | [] -> None in
             match (after_dash rest, best) with
             | Some fs, Some (bmp, _) when String.length mp >= String.length bmp -> Some (mp, fs)
             | Some fs, None -> Some (mp, fs)
             | _ -> best)
           | _ -> best)
         None
    |> Option.fold ~none:"unknown" ~some:(fun (mp, fs) -> fs ^ " at " ^ mp)

let fingerprint () =
  Printf.sprintf
    "{\"workload\":\"%s\",\"seed\":%d,\"seconds\":%g,\"trace\":%b,\"nproc\":\"%s\",\
     \"recommended_domain_count\":%d,\"ocaml\":\"%s\",\"journal_fs\":\"%s\"}"
    (workload_name workload) seed seconds traced (nproc ())
    (Domain.recommended_domain_count ())
    Sys.ocaml_version
    (String.escaped (filesystem_of tmp_root))

(* ------------------------------------------------------------------ *)
(* One finished campaign, as the checks and metrics need it            *)

type run = {
  label : string;  (** model name, or job id and model on the fleet *)
  model : Models.Registry.t;
  config : Core.Config.t;
  records : (string * Search.Variant.measurement) list;  (** commit order *)
  fresh_sigs : string list;  (** signatures evaluated live, in commit order *)
  minimal : string option;  (** signature of the minimal variant *)
  finished : bool;  (** delta debug reached a 1-minimal variant within budget *)
  summary : string;  (** deterministic Table-II summary rendering *)
  seconds : float;  (** host seconds, start (or submit) to finish *)
  eval_clock : float;
      (** seconds the tuner's own clock put on dynamic evaluations, in
          the same window as [seconds]; [nan] on the fleet *)
  fresh : int;
  hours : float;
  trace_hits : int;
  trace_lookups : int;
}

let sig_of = Transform.Assignment.signature

(* committed records up to and including the first one that is the
   minimal variant; 0 for searches without one *)
let evals_to_minimal r =
  match r.minimal with
  | None -> 0
  | Some m ->
    let rec go i = function
      | [] -> 0
      | (s, _) :: rest -> if s = m then i else go (i + 1) rest
    in
    go 1 r.records

let run_of_campaign ~label ~seconds (c : Core.Tuner.campaign) =
  let p = c.Core.Tuner.prepared in
  let ts = c.Core.Tuner.trace_stats in
  let records = List.map (fun (r : Search.Variant.record) -> (sig_of r.asg, r.meas)) c.records in
  {
    label;
    model = p.Core.Tuner.model;
    config = p.Core.Tuner.config;
    records;
    fresh_sigs = List.map fst records;
    minimal = Option.map (fun (r : Search.Delta_debug.result) -> sig_of r.minimal) c.minimal;
    finished =
      Option.fold ~none:false ~some:(fun (r : Search.Delta_debug.result) -> r.finished) c.minimal;
    summary = Core.Export.summary_json c;
    seconds;
    eval_clock = c.Core.Tuner.eval_ms_mean *. float_of_int ts.Search.Trace.misses /. 1000.0;
    fresh = ts.Search.Trace.misses;
    hours = c.Core.Tuner.simulated_hours;
    trace_hits = ts.Search.Trace.hits;
    trace_lookups = ts.Search.Trace.hits + ts.Search.Trace.misses + ts.Search.Trace.shared;
  }

type pass = {
  setup : float;  (** seconds before the first evaluation *)
  heap_mb : float;  (** peak major heap once the pass has run *)
  wall : float;  (** seconds for the whole pass, setup included *)
  runs : run list;
  slices : (string * float) list;  (** fleet: (job id, seconds) per slice *)
}

let sum f xs = List.fold_left (fun acc x -> acc +. f x) 0.0 xs
let sumi f xs = List.fold_left (fun acc x -> acc + f x) 0 xs

(* ------------------------------------------------------------------ *)
(* hotspot and predict: the Table-II delta-debug trio, back to back     *)

(* The benchmark seed picks the records the round-trip check samples.
   The tuner keeps the registry's noise seed: under another one mom6's
   budget-bound search takes another path, and evals_to_minimal,
   fresh_evals and sim_hours stop being exact counts that every run
   repeats. *)
let trio = [ Models.Registry.mpas; Models.Registry.adcirc; Models.Registry.mom6 ]

let config_for predict =
  {
    Core.Config.default with
    Core.Config.predict = (if predict then Core.Config.Predict_rank else Core.Config.Predict_off);
  }

(* [setup_calls] times a separate [Tuner.prepare] before each campaign:
   the campaign prepares again inside, so the measured pass pays set-up
   twice and [wall] counts only the campaign calls. *)
let campaign_pass ?spans ~setup_calls ~predict () =
  let config = config_for predict in
  let runs, setups =
    List.split
      (List.map
         (fun (model : Models.Registry.t) ->
           let setup =
             if setup_calls then begin
               let t0 = now () in
               ignore (Sys.opaque_identity (Core.Tuner.prepare ~config model));
               now () -. t0
             end
             else 0.0
           in
           let go () = Core.Tuner.run_delta_debug ~config ~workers:0 model in
           let t0 = now () in
           let c =
             match spans with
             | None -> go ()
             | Some sp ->
               Perfbench.Spans.record sp ~campaign:model.Models.Registry.name "core.campaign"
                 (fun _ -> go ())
           in
           (run_of_campaign ~label:model.Models.Registry.name ~seconds:(now () -. t0) c, setup))
         trio)
  in
  { setup = sum Fun.id setups; heap_mb = 0.0; wall = sum (fun r -> r.seconds) runs; runs; slices = [] }

(* ------------------------------------------------------------------ *)
(* fleet: four service jobs, one shared memo, fsynced journals          *)

let fleet_specs =
  let spec model algo priority =
    {
      Service.Job.sp_model = model;
      sp_algo = algo;
      sp_seed = Core.Config.default.Core.Config.seed;
      sp_workers = 0;
      sp_max_variants = None;
      sp_whole_model = false;
      sp_quota_hours = None;
      sp_faults = None;
      sp_tenant = "perfbench";
      sp_priority = priority;
    }
  in
  [
    spec "mpas" "delta_debug" 1;
    spec "mpas" "delta_debug" 1;
    spec "adcirc" "delta_debug" 1;
    spec "funarc" "brute_force" 2;
  ]

type fleet = { store : Service.Store.t; ids : string list; memo : Service.Memo.t }

(* [setup_calls] times, after admission, a separate [Tuner.prepare] per
   job: the one its first slice runs before the job's first evaluation.
   Admission alone is a few milliseconds of fsyncs, whose latency drifts
   with the host's disk. Neither [wall] nor the jobs' latency counts the
   separate calls. *)
let fleet_pass ?spans ~setup_calls () =
  let span name f =
    match spans with
    | None -> f ()
    | Some sp -> Perfbench.Spans.record sp ~campaign:"fleet" name (fun _ -> f ())
  in
  let root = fresh_dir "fleet" in
  let t0 = now () in
  let store = span "service.store_open" (fun () -> Service.Store.open_ ~root) in
  let ids =
    List.map
      (fun spec ->
        span "service.submit" (fun () ->
            match Service.Store.submit store ~find_model:Models.Registry.find spec with
            | Ok j -> j.Service.Job.id
            | Error m -> failwith ("fleet admission rejected: " ^ m)))
      fleet_specs
  in
  let admission = now () -. t0 in
  let prepares =
    if setup_calls then begin
      let t1 = now () in
      List.iter
        (fun (spec : Service.Job.spec) ->
          ignore
            (Sys.opaque_identity
               (Core.Tuner.prepare ~config:(Service.Job.config_of_spec spec)
                  (Models.Registry.find spec.sp_model))))
        fleet_specs;
      now () -. t1
    end
    else 0.0
  in
  let memo = Service.Memo.create () in
  let sched = Service.Sched.create ~memo store in
  let submitted = now () in
  let finished = Hashtbl.create 4 in
  let fresh = Hashtbl.create 4 in
  let rec loop slices =
    let s0 = now () in
    match span "service.slice" (fun () -> Service.Sched.step sched) with
    | Service.Sched.Idle -> List.rev slices
    | Service.Sched.Sliced { si_job; si_state; si_fresh; _ } ->
      let t = now () in
      Hashtbl.replace fresh si_job
        (si_fresh + Option.value ~default:0 (Hashtbl.find_opt fresh si_job));
      if Service.Job.terminal si_state then Hashtbl.replace finished si_job t;
      loop ((si_job, t -. s0) :: slices)
  in
  let slices = loop [] in
  let wall = admission +. (now () -. submitted) in
  let runs =
    List.map2
      (fun id (spec : Service.Job.spec) ->
        let job = Service.Store.load store id in
        let dir = Service.Store.campaign_dir store id in
        let l = Persist.Journal.load ~dir in
        let shared = List.map (fun s -> s.Persist.Journal.sh_index) l.l_shared in
        let records = List.map (fun e -> (e.Persist.Journal.e_signature, e.e_meas)) l.l_entries in
        let minimal_file = Service.Store.minimal_file store id in
        let minimal =
          if Sys.file_exists minimal_file then
            match String.split_on_char '\n' (slurp minimal_file) with
            | first :: _ when String.starts_with ~prefix:"signature " first ->
              Some (String.sub first 10 (String.length first - 10))
            | _ -> None
          else None
        in
        let summary_file = Service.Store.summary_file store id in
        {
          label = id ^ ":" ^ spec.sp_model;
          model = Models.Registry.find spec.sp_model;
          config = Service.Job.config_of_spec spec;
          records;
          fresh_sigs =
            List.filter_map
              (fun e ->
                if List.mem e.Persist.Journal.e_index shared then None
                else Some e.Persist.Journal.e_signature)
              l.l_entries;
          minimal;
          finished = minimal <> None;
          summary = (if Sys.file_exists summary_file then slurp summary_file else "");
          seconds =
            (match Hashtbl.find_opt finished id with Some t -> t -. submitted | None -> nan);
          eval_clock = nan;
          fresh = Option.value ~default:0 (Hashtbl.find_opt fresh id);
          hours = (match job with Some j -> j.Service.Job.hours | None -> nan);
          trace_hits = 0;
          trace_lookups = 0;
        })
      ids fleet_specs
  in
  ( { setup = admission +. prepares; heap_mb = 0.0; wall; runs; slices },
    { store; ids; memo } )

(* Each job must match a solo [Core.Tuner] run of the same spec at the
   same worker count: journal (provenance lines stripped), summary
   (trace line stripped) and minimal set. *)
type solo = { s_run : run; s_journal : string; s_minimal : string option }

let solo_runs =
  let cache = Hashtbl.create 3 in
  fun () ->
  List.map
    (fun (spec : Service.Job.spec) ->
      let key = (spec.sp_model, spec.sp_algo) in
      match Hashtbl.find_opt cache key with
      | Some s -> s
      | None ->
        let config = Service.Job.config_of_spec spec in
        let model = Models.Registry.find spec.sp_model in
        let dir = fresh_dir ("solo-" ^ spec.sp_model) in
        let t0 = now () in
        let c =
          if spec.sp_algo = "brute_force" then
            Core.Tuner.run_brute_force ~config ~journal:dir model
          else Core.Tuner.run_delta_debug ~config ~workers:spec.sp_workers ~journal:dir model
        in
        let s =
          {
            s_run = run_of_campaign ~label:spec.sp_model ~seconds:(now () -. t0) c;
            s_journal = slurp (Persist.Journal.file ~dir);
            s_minimal = Option.map (Service.Sched.minimal_text c) c.Core.Tuner.minimal;
          }
        in
        Hashtbl.replace cache key s;
        s)
    fleet_specs

let check_fleet_pass ~tag (f : fleet) (pass : pass) solos =
  List.iter2
    (fun id (solo, run) ->
      let name = Printf.sprintf "%s %s" tag run.label in
      let job = Service.Store.load f.store id in
      check (name ^ " done")
        (match job with Some j -> j.Service.Job.state = Service.Job.Done | None -> false);
      let dir = Service.Store.campaign_dir f.store id in
      check (name ^ " journal = solo")
        (drop_lines_with "\"kind\":\"shared\"" (slurp (Persist.Journal.file ~dir)) = solo.s_journal);
      check (name ^ " summary = solo")
        (drop_lines_with "\"trace\"" run.summary = drop_lines_with "\"trace\"" solo.s_run.summary);
      let minimal_file = Service.Store.minimal_file f.store id in
      check (name ^ " minimal = solo")
        ((if Sys.file_exists minimal_file then Some (slurp minimal_file) else None)
        = solo.s_minimal))
    f.ids
    (List.combine solos pass.runs);
  let slice_fresh = sumi (fun r -> r.fresh) pass.runs in
  let journal_fresh = sumi (fun r -> List.length r.fresh_sigs) pass.runs in
  check (tag ^ " fresh evaluations = unshared journal records") (slice_fresh = journal_fresh)

(* ------------------------------------------------------------------ *)
(* Checks shared by every workload                                     *)

(* later passes repeat the first exactly *)
let check_repeat passes =
  match passes with
  | [] -> ()
  | first :: rest ->
    List.iteri
      (fun i p ->
        List.iter2
          (fun a b ->
            let tag = Printf.sprintf "pass %d %s" (i + 2) b.label in
            check (tag ^ " summary repeats") (a.summary = b.summary);
            check (tag ^ " minimal repeats") (a.minimal = b.minimal);
            check (tag ^ " records repeat")
              (List.length a.records = List.length b.records
              && List.for_all2
                   (fun (s, m) (s', m') -> s = s' && same_meas m m')
                   a.records b.records))
          first.runs p.runs)
      rest

(* The minimal variant and a seeded sample of records, re-evaluated with
   [verify_roundtrip]: the fast path and the independent unparse →
   reparse → [Interp] path must agree with each other and with the
   committed measurement. *)
let check_roundtrip runs =
  let seen = Hashtbl.create 4 in
  List.iter
    (fun r ->
      let key = (r.model.Models.Registry.name, Core.Config.digest r.config) in
      if not (Hashtbl.mem seen key) then begin
      Hashtbl.replace seen key ();
      let config =
        { r.config with Core.Config.predict = Core.Config.Predict_off; verify_roundtrip = true }
      in
      let p = Core.Tuner.prepare ~config r.model in
      let rng = Random.State.make [| seed; Hashtbl.hash r.label |] in
      let arr = Array.of_list r.records in
      let n = Array.length arr in
      let sample =
        List.sort_uniq compare (List.init (min 2 n) (fun _ -> Random.State.int rng n))
        |> List.map (fun i -> arr.(i))
      in
      let minimal =
        match r.minimal with
        | Some m -> List.filter (fun (s, _) -> s = m) r.records |> List.filteri (fun i _ -> i = 0)
        | None -> []
      in
      List.iter
        (fun (s, committed) ->
          let label = Printf.sprintf "%s roundtrip %s" r.label s in
          match Core.Tuner.evaluate p (Transform.Assignment.of_signature p.Core.Tuner.atoms s) with
          | m -> check label (same_meas m committed)
          | exception Failure msg ->
            check label false;
            prerr_endline msg)
        (minimal @ sample)
      end)
    runs

(* ------------------------------------------------------------------ *)
(* The traced replay                                                   *)

module Sp = Perfbench.Spans

type twin = {
  tp : Core.Tuner.prepared;
  lcache : Runtime.Lower.Cache.t;
  ccache : Runtime.Compile.Cache.t;
}

type spanner = { span : 'a. string -> (unit -> 'a) -> 'a }

(* [Tuner.evaluate]'s fast path, one public call at a time, on caches
   of its own *)
let twin_chain { span } t asg =
  let p = t.tp in
  let machine = p.Core.Tuner.config.Core.Config.machine in
  let prog' = span "transform.rewrite" (fun () -> Transform.Rewrite.apply p.Core.Tuner.st asg) in
  let w = span "transform.wrappers" (fun () -> Transform.Wrappers.insert prog') in
  match
    let st' = span "fortran.symtab" (fun () -> Fortran.Symtab.build w.Transform.Wrappers.program) in
    span "fortran.typecheck" (fun () -> Fortran.Typecheck.check_program st');
    st'
  with
  | exception (Fortran.Typecheck.Error _ | Fortran.Symtab.Error _) -> None
  | st' ->
    let ir =
      span "runtime.lower" (fun () ->
          Runtime.Lower.lower ~cache:t.lcache ~machine
            ~wrapper_owner:(Transform.Wrappers.owner_fn w) st')
    in
    let c = span "runtime.compile" (fun () -> Runtime.Compile.compile ~cache:t.ccache ir) in
    Some (span "runtime.execute" (fun () -> Runtime.Compile.run ~budget:p.Core.Tuner.budget c))

(* The twin's caches see the traffic [Tuner.prepare] puts through the
   campaign's: the baseline lowering and, for thresholds taken from the
   uniform 32-bit build, that build's evaluation. *)
let twin_create (p : Core.Tuner.prepared) =
  let t =
    { tp = p; lcache = Runtime.Lower.Cache.create (); ccache = Runtime.Compile.Cache.create () }
  in
  let machine = p.config.Core.Config.machine in
  ignore (Runtime.Lower.lower ~cache:t.lcache ~machine p.st);
  (match p.model.Models.Registry.threshold with
  | Models.Registry.Fixed _ -> ()
  | Models.Registry.From_uniform32 _ ->
    let whole =
      List.concat_map
        (fun u -> Transform.Assignment.atoms_of_module p.st (Fortran.Ast.unit_name u))
        (Fortran.Symtab.program p.st)
    in
    ignore
      (twin_chain { span = (fun _ f -> f ()) } t (Transform.Assignment.uniform whole Fortran.Ast.K4)));
  t

type replayed = {
  rp_label : string;
  rp_prepare : float;
  rp_score_create : float;
  rp_evaluate : float;  (** summed [core.evaluate] seconds *)
  rp_phases : float;  (** summed twin phase seconds *)
  rp_self : float list;  (** per record: evaluate minus its twin's phases *)
  rp_minor_words : float list;  (** per record: minor words of the execute call *)
  rp_compile_hits : int;
  rp_compile_misses : int;
}

(* Replays the run's fresh evaluations in commit order on a freshly
   prepared campaign, so every cache sees what it saw in the campaign.
   Each record runs [Tuner.evaluate] and its twin chain; the order of
   the two alternates so neither always runs on warm host caches. *)
let replay sp (r : run) =
  let campaign = r.label in
  Sp.record sp ~campaign "replay.campaign" (fun cid ->
      let p =
        Sp.record sp ~parent:cid ~campaign "core.prepare" (fun _ ->
            Core.Tuner.prepare ~config:r.config r.model)
      in
      if r.config.Core.Config.predict <> Core.Config.Predict_off then
        Sp.record sp ~parent:cid ~campaign "sensitivity.score_create" (fun _ ->
            ignore
              (Sensitivity.Score.create ~st:p.st ~atoms:p.atoms
                 ~metric_key:r.model.Models.Registry.metric_key
                 ~baseline_metric:p.baseline_metric ~threshold:p.threshold
                 ~margin:r.config.Core.Config.predict_margin));
      let twin = twin_create p in
      let committed = Hashtbl.create 256 in
      List.iter (fun (s, m) -> Hashtbl.replace committed s m) r.records;
      let self = ref [] and words = ref [] and ev_total = ref 0.0 and ph_total = ref 0.0 in
      List.iteri
        (fun i s ->
          let asg = Transform.Assignment.of_signature p.atoms s in
          Sp.record sp ~parent:cid ~campaign "replay.record" (fun rid ->
              let ev = ref 0.0 and ph = ref 0.0 in
              let evaluate () =
                let t0 = now () in
                let m = Sp.record sp ~parent:rid ~campaign "core.evaluate" (fun _ -> Core.Tuner.evaluate p asg) in
                ev := now () -. t0;
                m
              in
              let span name f =
                let t0 = now () in
                let w0 = Gc.minor_words () in
                let x = Sp.record sp ~parent:rid ~campaign name (fun _ -> f ()) in
                let dt = now () -. t0 in
                ph := !ph +. dt;
                if name = "runtime.execute" then words := (Gc.minor_words () -. w0) :: !words;
                x
              in
              let m, out =
                if i mod 2 = 0 then
                  let m = evaluate () in
                  (m, twin_chain { span } twin asg)
                else
                  let out = twin_chain { span } twin asg in
                  (evaluate (), out)
              in
              let tag = Printf.sprintf "%s replay %s" campaign s in
              check (tag ^ " = committed")
                (match Hashtbl.find_opt committed s with
                | Some c -> same_meas m c
                | None -> false);
              check (tag ^ " twin cost = evaluate cost")
                (match out with
                | Some o -> o.Runtime.Interp.cost = m.Search.Variant.model_time
                | None -> m.Search.Variant.model_time = 0.0);
              self := (!ev -. !ph) :: !self;
              ev_total := !ev_total +. !ev;
              ph_total := !ph_total +. !ph))
        r.fresh_sigs;
      let hits, misses = Runtime.Compile.Cache.stats twin.ccache in
      {
        rp_label = campaign;
        rp_prepare = sum Fun.id (Sp.durations sp ~campaign "core.prepare");
        rp_score_create = sum Fun.id (Sp.durations sp ~campaign "sensitivity.score_create");
        rp_evaluate = !ev_total;
        rp_phases = !ph_total;
        rp_self = List.rev !self;
        rp_minor_words = List.rev !words;
        rp_compile_hits = hits;
        rp_compile_misses = misses;
      })

(* Journal appends of the fleet's committed entries, once fsynced (as
   the campaigns write them) and once not, into fresh journals. *)
let persist_probe sp (f : fleet) =
  List.iter
    (fun id ->
      let dir = Service.Store.campaign_dir f.store id in
      let l = Sp.record sp ~campaign:id "persist.load" (fun _ -> Persist.Journal.load ~dir) in
      List.iter
        (fun (fsync, name) ->
          let w = Persist.Journal.create ~fsync ~dir:(fresh_dir "append") l.l_header in
          List.iter
            (fun e -> Sp.record sp ~campaign:id name (fun _ -> Persist.Journal.append w e))
            l.l_entries;
          Persist.Journal.close w)
        [ (true, "persist.append"); (false, "persist.append_nofsync") ])
    f.ids

(* [Tuner.resume] of each finished job journal: the fixed cost every
   slice pays to continue a campaign; it must commit nothing new *)
let resume_probe sp (f : fleet) =
  List.iter2
    (fun id (spec : Service.Job.spec) ->
      let journal = Service.Store.campaign_dir f.store id in
      let c =
        Sp.record sp ~campaign:id "core.resume" (fun _ ->
            Core.Tuner.resume ~config:(Service.Job.config_of_spec spec) ~workers:0 ~journal ())
      in
      check (id ^ " resume of a finished journal evaluates nothing")
        (c.Core.Tuner.trace_stats.Search.Trace.misses = 0))
    f.ids fleet_specs

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

let metrics = ref []

let metric name value =
  let m = Perfbench.Table.find name in
  let value =
    if Float.is_finite value then value
    else begin
      check (name ^ " is finite") false;
      0.0
    end
  in
  metrics := (name, Persist.Json.Obj [ ("value", Num value); ("unit", Str m.unit_) ]) :: !metrics;
  pf "%-34s %.6g %s\n" name value m.unit_

let median = Perfbench.Stats.median
let ms = List.map (fun s -> s *. 1000.0)
let median0 = function [] -> 0.0 | xs -> median xs

let tail0 name xs =
  match Perfbench.Stats.tail xs with
  | None -> 0.0
  | Some (level, v) ->
    pf "  (%s: p%g of %d samples)\n" name level (List.length xs);
    v

let ratio a b = if b = 0.0 then 0.0 else a /. b
let mb_of_words w = float_of_int w *. float_of_int (Sys.word_size / 8) /. 1048576.0

(* ------------------------------------------------------------------ *)
(* Running a workload                                                  *)

let run_pass ?spans () =
  let pass, fleet =
    match workload with
    | Hotspot -> (campaign_pass ?spans ~setup_calls:(spans = None) ~predict:false (), None)
    | Predict -> (campaign_pass ?spans ~setup_calls:(spans = None) ~predict:true (), None)
    | Fleet ->
      let p, f = fleet_pass ?spans ~setup_calls:(spans = None) () in
      (p, Some f)
  in
  ({ pass with heap_mb = mb_of_words (Gc.quick_stat ()).Gc.top_heap_words }, fleet)

let output_checks passes =
  check_repeat (List.map fst passes);
  let first = fst (List.hd passes) in
  (match workload with
  | Hotspot -> ()
  | Predict ->
    (* rank changes the exploration order only: where both searches
       reach a 1-minimal variant within budget, it is the same one *)
    let reference = campaign_pass ~setup_calls:false ~predict:false () in
    List.iter2
      (fun h p ->
        if h.finished && p.finished then
          check (p.label ^ " predict minimal = hotspot minimal") (h.minimal = p.minimal)
        else
          pf "note: %s stopped at its variant budget (hotspot %b, predict %b); minimal sets \
              not compared\n"
            p.label h.finished p.finished)
      reference.runs first.runs
  | Fleet ->
    let solos = solo_runs () in
    List.iteri
      (fun i (pass, f) ->
        Option.iter (fun f -> check_fleet_pass ~tag:(Printf.sprintf "pass %d" (i + 1)) f pass solos) f)
      passes);
  check_roundtrip first.runs

let end_to_end passes =
  let first = fst (List.hd passes) in
  let ps = List.map fst passes in
  metric "setup_s" (median (List.map (fun p -> p.setup) ps));
  metric "wall_s" (median (List.map (fun p -> p.wall) ps));
  metric "evals_per_s"
    (median (List.map (fun p -> float_of_int (sumi (fun r -> r.fresh) p.runs) /. p.wall) ps));
  metric "evals_to_minimal" (float_of_int (sumi evals_to_minimal first.runs));
  metric "fresh_evals" (float_of_int (sumi (fun r -> r.fresh) first.runs));
  metric "sim_hours" (sum (fun r -> r.hours) first.runs);
  metric "job_s_p50" (median (List.map (fun p -> median (List.map (fun r -> r.seconds) p.runs)) ps));
  (* later passes only add fragmentation, and how many run depends on
     the host's speed *)
  metric "peak_heap_mb" first.heap_mb;
  let walls = List.map (fun p -> p.wall) ps in
  if List.length walls >= 2 then begin
    let q1, q3 = Perfbench.Stats.quartiles walls in
    pf "wall_s over %d passes: median %.4f, quartiles %.4f .. %.4f\n" (List.length walls)
      (median walls) q1 q3
  end

let per_layer ~untraced ~traced ~traced_wall sp replays fleet =
  let all f = List.concat_map f replays in
  let d name = ms (Sp.durations sp name) in
  metric "runtime.execute_ms_p50" (median0 (d "runtime.execute"));
  metric "runtime.execute_ms_tail" (tail0 "runtime.execute_ms_tail" (d "runtime.execute"));
  metric "runtime.execute_minor_words" (median0 (all (fun r -> r.rp_minor_words)));
  List.iter
    (fun (metric_name, span) -> metric metric_name (median0 (d span)))
    [
      ("transform.rewrite_ms_p50", "transform.rewrite");
      ("transform.wrappers_ms_p50", "transform.wrappers");
      ("fortran.symtab_ms_p50", "fortran.symtab");
      ("fortran.typecheck_ms_p50", "fortran.typecheck");
      ("runtime.lower_ms_p50", "runtime.lower");
      ("runtime.compile_ms_p50", "runtime.compile");
    ];
  let hits = sumi (fun r -> r.rp_compile_hits) replays in
  let misses = sumi (fun r -> r.rp_compile_misses) replays in
  metric "runtime.compile_cache_hit_ratio" (ratio (float_of_int hits) (float_of_int (hits + misses)));
  metric "core.evaluate_ms_p50" (median0 (d "core.evaluate"));
  metric "core.evaluate_ms_tail" (tail0 "core.evaluate_ms_tail" (d "core.evaluate"));
  metric "core.score_self_ms_p50" (median0 (ms (all (fun r -> r.rp_self))));
  let evaluate = sum (fun r -> r.rp_evaluate) replays in
  metric "core.phase_coverage" (ratio (sum (fun r -> r.rp_phases) replays) evaluate);
  let prepare = sum (fun r -> r.rp_prepare) replays in
  metric "core.prepare_ms" (1000.0 *. prepare);
  metric "sensitivity.score_create_ms" (1000.0 *. sum (fun r -> r.rp_score_create) replays);
  metric "search.self_s" (untraced.wall -. prepare -. evaluate);
  (* fleet slices resume the search many times over; its trace traffic
     is that of the solo campaigns each job matches *)
  let search_runs =
    match fleet with Some (_, solos) -> List.map (fun s -> s.s_run) solos | None -> untraced.runs
  in
  metric "search.trace_hit_ratio"
    (ratio
       (float_of_int (sumi (fun r -> r.trace_hits) search_runs))
       (float_of_int (sumi (fun r -> r.trace_lookups) search_runs)));
  let us = List.map (fun s -> s *. 1e6) in
  (match fleet with
  | Some (f, _) ->
    persist_probe sp f;
    resume_probe sp f;
    let sync = Sp.durations sp "persist.append" and nosync = Sp.durations sp "persist.append_nofsync" in
    let memo = Service.Memo.stats f.memo in
    metric "persist.append_us_p50" (median (us sync));
    metric "persist.append_us_tail" (tail0 "persist.append_us_tail" (us sync));
    let s = sum Fun.id sync and n = sum Fun.id nosync in
    metric "persist.fsync_share" (ratio (s -. n) s);
    metric "persist.load_ms" (1000.0 *. sum Fun.id (Sp.durations sp "persist.load"));
    let slice_ms = ms (List.map snd traced.slices) in
    metric "service.slice_ms_p50" (median slice_ms);
    metric "service.slice_ms_tail" (tail0 "service.slice_ms_tail" slice_ms);
    metric "service.slices" (float_of_int (List.length slice_ms));
    metric "service.resume_ms" (median (ms (Sp.durations sp "core.resume")));
    metric "service.memo_hit_ratio"
      (ratio (float_of_int memo.Service.Memo.hits) (float_of_int memo.Service.Memo.finds));
    (* ROADMAP question: the journal fsync's share of a funarc record *)
    List.iter2
      (fun id (r : run) ->
        if r.model.Models.Registry.name = "funarc" then begin
          let slices = sum snd (List.filter (fun (j, _) -> j = id) traced.slices) in
          let records = float_of_int (List.length r.records) in
          let fsync_per_append = (s -. n) /. float_of_int (List.length sync) in
          pf "funarc record: %.4f ms of slice time, of which journal fsync %.4f ms (%.1f%%)\n"
            (1000.0 *. slices /. records)
            (1000.0 *. fsync_per_append)
            (100.0 *. fsync_per_append *. records /. slices)
        end)
      f.ids traced.runs
  | None ->
    List.iter
      (fun name -> metric name 0.0)
      [
        "persist.append_us_p50";
        "persist.append_us_tail";
        "persist.fsync_share";
        "persist.load_ms";
        "service.slice_ms_p50";
        "service.slice_ms_tail";
        "service.slices";
        "service.resume_ms";
        "service.memo_hit_ratio";
      ]);
  metric "trace.overhead_s" (traced_wall -. untraced.wall);
  (* per-campaign breakdown of the traced pass: wall = prepare +
     evaluate + the rest (search, journal, slices). The replay runs in
     another window than the pass, so the rest is also given against
     the tuner's own evaluation clock, read in the pass itself. *)
  List.iter2
    (fun rp (r : run) ->
      let wall =
        match fleet with
        | Some _ ->
          let id = List.hd (String.split_on_char ':' r.label) in
          sum snd (List.filter (fun (j, _) -> j = id) traced.slices)
        | None -> r.seconds
      in
      pf
        "campaign %-12s wall %.4f s: prepare %.4f (score_create %.4f), evaluate %.4f, \
         rest %.4f%s; phase_coverage %.4f over %d evaluations\n"
        rp.rp_label wall rp.rp_prepare rp.rp_score_create rp.rp_evaluate
        (wall -. rp.rp_prepare -. rp.rp_evaluate)
        (if Float.is_nan r.eval_clock then ""
         else
           Printf.sprintf " (%.4f against the tuner's evaluation clock)"
             (wall -. rp.rp_prepare -. r.eval_clock))
        (ratio rp.rp_phases rp.rp_evaluate)
        (List.length rp.rp_self))
    replays traced.runs;
  (* what the replay spends outside the calls it times *)
  let spans = Sp.spans sp in
  let kids = Hashtbl.create 1024 in
  List.iter (fun (s : Sp.span) -> Option.iter (fun p -> Hashtbl.add kids p s) s.parent) spans;
  let of_name name = List.filter (fun (s : Sp.span) -> s.name = name) spans in
  let self name = sum (fun (s : Sp.span) -> Sp.self_time s (Hashtbl.find_all kids s.id)) (of_name name) in
  pf "replay: %.4f s, of which %.4f s outside the timed calls\n"
    (sum Sp.duration (of_name "replay.campaign"))
    (self "replay.campaign" +. self "replay.record")

let () =
  mkdir_p tmp_root;
  Fun.protect ~finally:(fun () -> rm_rf tmp_root) @@ fun () ->
  let host = fingerprint () in
  pf "host %s\n%!" host;
  if not traced then begin
    let deadline = now () +. seconds in
    let rec go acc =
      let acc = run_pass () :: acc in
      if List.length acc >= 2 && now () >= deadline then List.rev acc else go acc
    in
    let passes = go [] in
    pf "%d passes: %s\n" (List.length passes) (String.concat " " (List.map (fun (p, _) -> Printf.sprintf "%.3f" p.wall) passes));
    end_to_end passes;
    output_checks passes
  end
  else begin
    let untraced, untraced_fleet = run_pass () in
    let sp = Sp.create () in
    let t0 = now () in
    let traced, fleet = run_pass ~spans:sp () in
    let replays = List.map (replay sp) traced.runs in
    let traced_wall = now () -. t0 in
    let fleet = Option.map (fun f -> (f, solo_runs ())) fleet in
    per_layer ~untraced ~traced ~traced_wall sp replays fleet;
    let spans_file =
      Filename.concat out_dir
        (Printf.sprintf "spans-%s-seed%d.jsonl" (workload_name workload) seed)
    in
    Out_channel.with_open_bin spans_file (fun oc ->
        output_string oc (host ^ "\n");
        output_string oc (Sp.to_jsonl sp));
    pf "spans written to %s\n" spans_file;
    output_checks [ (untraced, untraced_fleet); (traced, Option.map fst fleet) ]
  end;
  pf "fail_share %d/%d\n" !failed !attempted;
  let metric_order =
    List.filter_map
      (fun (m : Perfbench.Table.metric) ->
        Option.map (fun v -> (m.name, v)) (List.assoc_opt m.name !metrics))
      (if traced then Perfbench.Table.per_layer else Perfbench.Table.end_to_end)
  in
  print_endline
    (Persist.Json.to_string
       (Persist.Json.Obj
          [
            ("correct", Bool (!failed = 0));
            ("attempted", Num (float_of_int (max 1 !attempted)));
            ("failed", Num (float_of_int !failed));
            ("metrics", Obj metric_order);
          ]))
