(* Service-layer tests: job codec + admission control, the atomic
   campaign store, the wire-protocol codec, round-robin fairness (QCheck
   over the pure cursor arithmetic), and the headline multiplexing
   invariant — N concurrent jobs' journals, minimal sets and summaries
   are byte-identical to the same campaigns run solo, across quota
   exhaustion, mid-slice drains and SIGKILL-torn journals. *)

let t name f = Alcotest.test_case name `Quick f
let qt = QCheck_alcotest.to_alcotest

let contains_sub line sub =
  let n = String.length sub and m = String.length line in
  let rec at i = i + n <= m && (String.sub line i n = sub || at (i + 1)) in
  at 0

let small_funarc =
  { Models.Registry.funarc with Models.Registry.source = Models.Funarc.source ~n:200 () }

(* tests resolve the registry names onto scaled-down sources *)
let find_model name =
  if name = "funarc" then small_funarc else Models.Registry.find name

let base_spec =
  {
    Service.Job.sp_model = "funarc";
    sp_algo = "delta_debug";
    sp_seed = 42;
    sp_workers = 0;
    sp_max_variants = None;
    sp_whole_model = false;
    sp_quota_hours = None;
    sp_faults = None;
    sp_tenant = "default";
    sp_priority = 1;
  }

let fault_spec =
  {
    Core.Cluster.Faults.fault_seed = 7;
    transient_prob = 0.40;
    node_failure_prob = 0.25;
    max_retries = 1;
    preempt_at_hours = None;
  }

let full_spec =
  {
    Service.Job.sp_model = "funarc";
    sp_algo = "brute_force";
    sp_seed = 7;
    sp_workers = 4;
    sp_max_variants = Some 48;
    sp_whole_model = true;
    sp_quota_hours = Some 0x1.999999999999ap-3 (* a float with no short decimal *);
    sp_faults = Some fault_spec;
    sp_tenant = "climate-group";
    sp_priority = 3;
  }

(* ------------------------------------------------------------------ *)
(* Job codec + admission control                                       *)

let job_tests =
  [
    t "specs round-trip through JSON bit-exactly" (fun () ->
        List.iter
          (fun spec ->
            let s = Persist.Json.to_string (Service.Job.spec_json spec) in
            match Service.Job.spec_result (Persist.Json.parse s) with
            | Ok back ->
              Alcotest.(check bool) "spec preserved" true (compare back spec = 0)
            | Error msg -> Alcotest.failf "round-trip rejected: %s" msg)
          [ base_spec; full_spec ]);
    t "jobs round-trip through JSON in every state" (fun () ->
        List.iter
          (fun state ->
            let j =
              {
                (Service.Job.make ~id:"j042" full_spec) with
                Service.Job.state;
                records = 17;
                hours = 0x1.5555555555555p-4;
                best_speedup = 1.4375;
              }
            in
            let s = Persist.Json.to_string (Service.Job.to_json j) in
            match Service.Job.of_json (Persist.Json.parse s) with
            | Ok back -> Alcotest.(check bool) "job preserved" true (compare back j = 0)
            | Error msg -> Alcotest.failf "round-trip rejected: %s" msg)
          [
            Service.Job.Queued;
            Service.Job.Running;
            Service.Job.Paused;
            Service.Job.Done;
            Service.Job.Failed "quota-exhausted";
          ]);
    t "malformed specs are rejected, not raised" (fun () ->
        List.iter
          (fun s ->
            match Service.Job.spec_result (Persist.Json.parse s) with
            | Error _ -> ()
            | Ok _ -> Alcotest.failf "accepted %s" s)
          [ {|{}|}; {|{"model":"funarc"}|}; {|{"model":7,"algo":"delta_debug","seed":1}|} ]);
    t "admission control rejects bad specs" (fun () ->
        let rejects name spec =
          match Service.Job.validate ~find_model spec with
          | Error _ -> ()
          | Ok () -> Alcotest.failf "%s admitted" name
        in
        (match Service.Job.validate ~find_model base_spec with
        | Ok () -> ()
        | Error m -> Alcotest.failf "base spec rejected: %s" m);
        rejects "unknown model" { base_spec with Service.Job.sp_model = "nope" };
        rejects "unknown algo" { base_spec with Service.Job.sp_algo = "gradient" };
        rejects "negative workers" { base_spec with Service.Job.sp_workers = -1 };
        rejects "zero variant budget" { base_spec with Service.Job.sp_max_variants = Some 0 };
        rejects "non-positive quota" { base_spec with Service.Job.sp_quota_hours = Some 0.0 });
    t "job-supplied preemption boundaries are admission-rejected" (fun () ->
        let preempting =
          {
            base_spec with
            Service.Job.sp_faults =
              Some { fault_spec with Core.Cluster.Faults.preempt_at_hours = Some 1.0 };
          }
        in
        match Service.Job.validate ~find_model preempting with
        | Error msg ->
          Alcotest.(check bool) "points at the quota mechanism" true
            (contains_sub msg "quota")
        | Ok () -> Alcotest.fail "preempting spec admitted");
  ]

(* ------------------------------------------------------------------ *)
(* Store                                                               *)

let store_tests =
  [
    t "submit assigns sequential ids and tolerates foreign entries" (fun () ->
        Harness.with_dir (fun root ->
            let store = Service.Store.open_ ~root in
            (* foreign junk a shared filesystem accumulates *)
            let jobs_dir = Filename.concat root "jobs" in
            let oc = open_out (Filename.concat jobs_dir "README") in
            output_string oc "not a job\n";
            close_out oc;
            Unix.mkdir (Filename.concat jobs_dir "zebra") 0o755;
            let submit () =
              match Service.Store.submit store ~find_model base_spec with
              | Ok j -> j
              | Error m -> Alcotest.failf "rejected: %s" m
            in
            let a = submit () and b = submit () in
            Alcotest.(check string) "first id" "j001" a.Service.Job.id;
            Alcotest.(check string) "second id" "j002" b.Service.Job.id;
            Alcotest.(check (list string)) "list skips foreign entries" [ "j001"; "j002" ]
              (List.map (fun j -> j.Service.Job.id) (Service.Store.list store))));
    t "updates are atomic and malformed state files load as None" (fun () ->
        Harness.with_dir (fun root ->
            let store = Service.Store.open_ ~root in
            let j =
              match Service.Store.submit store ~find_model base_spec with
              | Ok j -> j
              | Error m -> Alcotest.failf "rejected: %s" m
            in
            Service.Store.update store
              { j with Service.Job.state = Service.Job.Paused; records = 9 };
            (match Service.Store.load store "j001" with
            | Some back ->
              Alcotest.(check bool) "paused" true
                (back.Service.Job.state = Service.Job.Paused);
              Alcotest.(check int) "records" 9 back.Service.Job.records
            | None -> Alcotest.fail "updated job unloadable");
            Alcotest.(check bool) "no temp file left" false
              (Sys.file_exists
                 (Filename.concat (Service.Store.job_dir store "j001") "job.json.tmp"));
            Alcotest.(check bool) "unknown id" true (Service.Store.load store "j999" = None);
            (* a torn/garbage state file must not take the listing down *)
            let dir = Filename.concat (Filename.concat root "jobs") "j002" in
            Unix.mkdir dir 0o755;
            let oc = open_out (Filename.concat dir "job.json") in
            output_string oc "{\"id\": \"j0";
            close_out oc;
            Alcotest.(check bool) "garbage loads as None" true
              (Service.Store.load store "j002" = None);
            Alcotest.(check (list string)) "listing survives" [ "j001" ]
              (List.map (fun j -> j.Service.Job.id) (Service.Store.list store))));
  ]

(* ------------------------------------------------------------------ *)
(* Wire protocol codec                                                 *)

(* a submit whose quota is a string but not a float: valid JSON, so only
   the spec decoder can reject it *)
let garbled_submit =
  {|{"cmd":"submit","spec":{"model":"funarc","algo":"delta_debug","seed":42,"workers":0,|}
  ^ {|"max_variants":null,"whole_model":false,"quota_hours":"0xZZ","faults":null,|}
  ^ {|"tenant":"default","priority":1}}|}

let proto_tests =
  [
    t "requests round-trip through the wire encoding" (fun () ->
        List.iter
          (fun req ->
            let line = Persist.Json.to_string (Service.Proto.request_json req) in
            match Service.Proto.request_of_string line with
            | Ok back -> Alcotest.(check bool) line true (compare back req = 0)
            | Error msg -> Alcotest.failf "%s rejected: %s" line msg)
          [
            Service.Proto.Ping;
            Service.Proto.Submit base_spec;
            Service.Proto.Submit full_spec;
            Service.Proto.Jobs;
            Service.Proto.Show "j007";
            Service.Proto.Cancel "j007";
            Service.Proto.Watch "j007";
          ]);
    t "malformed request lines are errors, not exceptions" (fun () ->
        List.iter
          (fun line ->
            match Service.Proto.request_of_string line with
            | Error _ -> ()
            | Ok _ -> Alcotest.failf "accepted %s" line)
          [ ""; "{"; "[]"; {|{"cmd":"warp"}|}; {|{"cmd":"show"}|}; {|{"cmd":"submit"}|} ]);
    t "status events round-trip bit-exactly" (fun () ->
        List.iter
          (fun state ->
            let ev =
              {
                Service.Sched.ev_job = "j003";
                ev_state = state;
                ev_records = 12;
                ev_hours = 0x1.91a2b3c4d5e6fp-5;
                ev_best = 1.375;
                ev_shared = 5;
                ev_detail = "slice";
              }
            in
            match Service.Proto.event_of_json (Service.Proto.event_json ev) with
            | Some back -> Alcotest.(check bool) "event preserved" true (compare back ev = 0)
            | None -> Alcotest.fail "event rejected")
          [ Service.Job.Running; Service.Job.Done; Service.Job.Failed "cancelled" ];
        Alcotest.(check bool) "non-events ignored" true
          (Service.Proto.event_of_json (Persist.Json.parse {|{"ok":true}|}) = None));
    t "a garbled float is an error, not an exception" (fun () ->
        (match Service.Proto.request_of_string garbled_submit with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "accepted a garbled quota");
        Alcotest.(check bool) "garbled event rejected" true
          (Service.Proto.event_of_json
             (Persist.Json.parse {|{"job":"j001","state":"done","hours":"0xZZ"}|})
           = None));
    t "ok/error envelopes" (fun () ->
        Alcotest.(check bool) "ok" true (Service.Proto.is_ok (Service.Proto.ok []));
        let e = Service.Proto.error "boom" in
        Alcotest.(check bool) "not ok" false (Service.Proto.is_ok e);
        Alcotest.(check string) "message" "boom" (Service.Proto.error_of e));
  ]

(* ------------------------------------------------------------------ *)
(* The live server                                                     *)

let server_tests =
  [
    t "the server answers a garbled submit and keeps serving" (fun () ->
        Harness.with_dir (fun root ->
            (* the server runs in a child process, as [prose serve] does,
               and is drained with SIGTERM; exit code 3 means it died *)
            let pid =
              match Unix.fork () with
              | 0 ->
                (try
                   ignore (Service.Server.run ~log:ignore ~root ~slots:0 ());
                   Unix._exit 0
                 with _ -> Unix._exit 3)
              | pid -> pid
            in
            let status = ref (Unix.WEXITED 0) in
            let reply, jobs =
              Fun.protect
                ~finally:(fun () ->
                  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
                  status := snd (Unix.waitpid [] pid))
                (fun () ->
                  let deadline = Unix.gettimeofday () +. 60.0 in
                  let rec connect () =
                    match Service.Proto.connect ~root with
                    | Some conn -> conn
                    | None when Unix.gettimeofday () < deadline ->
                      Unix.sleepf 0.02;
                      connect ()
                    | None -> Alcotest.fail "the server never listened"
                  in
                  let ic, oc = connect () in
                  output_string oc (garbled_submit ^ "\n");
                  flush oc;
                  let reply = Service.Proto.recv ic in
                  close_in_noerr ic;
                  (reply, Service.Proto.roundtrip ~root Service.Proto.Jobs))
            in
            (match reply with
            | Some j -> Alcotest.(check bool) "answered ok:false" false (Service.Proto.is_ok j)
            | None -> Alcotest.fail "no answer to the garbled submit");
            (match jobs with
            | Some (Ok _) -> ()
            | Some (Error m) -> Alcotest.failf "jobs after the garbled submit: %s" m
            | None -> Alcotest.fail "the server stopped serving");
            Alcotest.(check bool) "drained cleanly" true (!status = Unix.WEXITED 0)));
  ]

(* ------------------------------------------------------------------ *)
(* Fairness of the round-robin cursor                                  *)

let fair_unit_tests =
  [
    t "next_after walks the sorted ids and wraps" (fun () ->
        let n cursor ids = Service.Sched.Fair.next_after ~cursor ids in
        Alcotest.(check (option string)) "empty" None (n None []);
        Alcotest.(check (option string)) "no cursor -> head" (Some "j001")
          (n None [ "j001"; "j002" ]);
        Alcotest.(check (option string)) "advance" (Some "j002")
          (n (Some "j001") [ "j001"; "j002" ]);
        Alcotest.(check (option string)) "wrap" (Some "j001")
          (n (Some "j002") [ "j001"; "j002" ]);
        Alcotest.(check (option string)) "cursor's job may have departed" (Some "j003")
          (n (Some "j002") [ "j001"; "j003" ]));
    t "weighted cursor bursts up to its weight, then yields" (fun () ->
        let weight = function "j001" -> 3 | _ -> 1 in
        let step cursor ids =
          match Service.Sched.Fair.next ~weight ~cursor ids with
          | Some (id, cursor') -> (id, cursor')
          | None -> Alcotest.fail "empty runnable list"
        in
        let ids = [ "j001"; "j002" ] in
        let c0 = Service.Sched.Fair.start in
        let id1, c1 = step c0 ids in
        let id2, c2 = step c1 ids in
        let id3, c3 = step c2 ids in
        let id4, c4 = step c3 ids in
        let id5, _ = step c4 ids in
        Alcotest.(check (list string)) "3-slice burst, then the next job, then wrap"
          [ "j001"; "j001"; "j001"; "j002"; "j001" ]
          [ id1; id2; id3; id4; id5 ];
        (* a departed job forfeits its remaining credit *)
        let _, mid = step c0 ids in
        let next_id, _ = step mid [ "j002" ] in
        Alcotest.(check string) "credit dies with the departure" "j002" next_id);
    t "simulate_weighted at weight 1 is the plain round robin" (fun () ->
        let slices = [ ("j001", 3); ("j002", 1); ("j003", 2) ] in
        Alcotest.(check (list string)) "identical order"
          (Service.Sched.Fair.simulate ~slices)
          (Service.Sched.Fair.simulate_weighted
             ~slices:(List.map (fun (id, n) -> (id, n, 1)) slices)));
  ]

(* Between two consecutive slices of any still-runnable job, every other
   job is served at most once: no runnable job starves while another is
   served twice. The trailing segment (after the job's last slice) is
   exempt — the job has departed. *)
let fairness_prop =
  QCheck.Test.make ~name:"no runnable job starves beyond one round" ~count:500
    QCheck.(small_list (int_range 1 5))
    (fun counts ->
      let slices = List.mapi (fun i n -> (Printf.sprintf "j%03d" (i + 1), n)) counts in
      let order = Service.Sched.Fair.simulate ~slices in
      let served id = List.length (List.filter (String.equal id) order) in
      List.for_all (fun (id, n) -> served id = n) slices
      &&
      let distinct gap = List.length (List.sort_uniq compare gap) = List.length gap in
      List.for_all
        (fun (id, _) ->
          let rec split acc gaps = function
            | [] -> List.rev (List.rev acc :: gaps)
            | x :: rest ->
              if String.equal x id then split [] (List.rev acc :: gaps) rest
              else split (x :: acc) gaps rest
          in
          match List.rev (split [] [] order) with
          | [] -> true
          | _after_departure :: live_gaps -> List.for_all distinct live_gaps)
        slices)

(* The weighted generalization: between two consecutive services of any
   still-runnable job, every other job is served at most its weight
   times. At uniform weight 1 this is exactly the property above. *)
let weighted_fairness_prop =
  QCheck.Test.make ~name:"weighted deficit: no job starves beyond others' weights" ~count:500
    QCheck.(small_list (pair (int_range 1 5) (int_range 1 4)))
    (fun jobs ->
      let slices = List.mapi (fun i (n, w) -> (Printf.sprintf "j%03d" (i + 1), n, w)) jobs in
      let order = Service.Sched.Fair.simulate_weighted ~slices in
      let served id = List.length (List.filter (String.equal id) order) in
      List.for_all (fun (id, n, _) -> served id = n) slices
      &&
      let weight_of id =
        match List.find_opt (fun (j, _, _) -> String.equal j id) slices with
        | Some (_, _, w) -> w
        | None -> 1
      in
      let bounded gap =
        List.for_all
          (fun other ->
            List.length (List.filter (String.equal other) gap) <= weight_of other)
          (List.sort_uniq compare gap)
      in
      List.for_all
        (fun (id, _, _) ->
          let rec split acc gaps = function
            | [] -> List.rev (List.rev acc :: gaps)
            | x :: rest ->
              if String.equal x id then split [] (List.rev acc :: gaps) rest
              else split (x :: acc) gaps rest
          in
          match List.rev (split [] [] order) with
          | [] -> true
          | _after_departure :: live_gaps -> List.for_all bounded live_gaps)
        slices)

(* ------------------------------------------------------------------ *)
(* Scheduler: multiplexing byte-identity, quota, drain, SIGKILL        *)

let submit_or_die store spec =
  match Service.Store.submit store ~find_model spec with
  | Ok j -> j
  | Error m -> Alcotest.failf "submit rejected: %s" m

(* each slice flattened to (job, state, fresh evals, memo-shared, new records) *)
let drive sched =
  let rec go acc =
    match Service.Sched.step sched with
    | Service.Sched.Idle -> List.rev acc
    | Service.Sched.Sliced { si_job; si_state; si_fresh; si_new_records; si_shared } ->
      go ((si_job, si_state, si_fresh, si_shared, si_new_records) :: acc)
  in
  go []

(* zero re-evaluation, slice by slice: every new durable record of a
   slice was either freshly evaluated or served by the fleet memo — a
   resumed prefix is replayed, never re-run *)
let check_slices_fresh name slices =
  List.iter
    (fun (job, _, fresh, shared, new_records) ->
      Alcotest.(check int)
        (Printf.sprintf "%s: %s slice evaluated only its fresh records" name job)
        new_records (fresh + shared))
    slices

let job_journal store id =
  Harness.slurp (Persist.Journal.file ~dir:(Service.Store.campaign_dir store id))

let strip_trace s =
  String.split_on_char '\n' s
  |> List.filter (fun l -> not (contains_sub l "\"trace\""))
  |> String.concat "\n"

(* a memo-fed job's journal is the solo journal plus provenance
   annotation lines — strip those before byte-comparing *)
let strip_shared s =
  String.split_on_char '\n' s
  |> List.filter (fun l -> not (contains_sub l "\"kind\":\"shared\""))
  |> String.concat "\n"

let state_of store id =
  match Service.Store.load store id with
  | Some j -> j.Service.Job.state
  | None -> Alcotest.failf "job %s vanished" id

(* the three concurrent campaigns of the identity matrix *)
let spec_dd = base_spec

(* mild enough that the dd campaign survives its opening probe (at these
   rates and seed it still loses a variant mid-run), heavy enough to
   exercise the fault books inside a multiplexed slice *)
let mild_faults =
  {
    Core.Cluster.Faults.fault_seed = 7;
    transient_prob = 0.30;
    node_failure_prob = 0.15;
    max_retries = 2;
    preempt_at_hours = None;
  }

let spec_faulted =
  { base_spec with Service.Job.sp_seed = 7; sp_workers = 4; sp_faults = Some mild_faults }

let spec_brute = { base_spec with Service.Job.sp_algo = "brute_force"; sp_max_variants = Some 48 }

let solo_dd ~journal =
  Core.Tuner.run_delta_debug
    ~config:(Service.Job.config_of_spec spec_dd)
    ~workers:0 ~journal small_funarc

let solo_faulted ~journal =
  Core.Tuner.run_delta_debug
    ~config:(Service.Job.config_of_spec spec_faulted)
    ~workers:4 ~journal ~faults:mild_faults small_funarc

let solo_brute ~journal =
  Core.Tuner.run_brute_force ~config:(Service.Job.config_of_spec spec_brute) ~journal small_funarc

let matrix_test pool_workers () =
  Harness.with_dir @@ fun root ->
  Harness.with_dir @@ fun d1 ->
  Harness.with_dir2 @@ fun d2 d3 ->
  let store = Service.Store.open_ ~root in
  List.iter (fun s -> ignore (submit_or_die store s)) [ spec_dd; spec_faulted; spec_brute ];
  let with_pool f =
    if pool_workers > 0 then Search.Pool.with_pool ~workers:pool_workers (fun p -> f (Some p))
    else f None
  in
  let slices =
    with_pool (fun pool ->
        let sched = Service.Sched.create ~slice_records:3 ?pool ~find_model store in
        drive sched)
  in
  let name = Printf.sprintf "matrix pool=%d" pool_workers in
  (* genuinely interleaved: every job took several slices, and the first
     round visits the queue in id order *)
  List.iter
    (fun id ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: %s got multiple slices" name id)
        true
        (List.length (List.filter (fun (j, _, _, _, _) -> j = id) slices) >= 2))
    [ "j001"; "j002"; "j003" ];
  Alcotest.(check (list string))
    (name ^ ": first round is id order")
    [ "j001"; "j002"; "j003" ]
    (List.filteri (fun i _ -> i < 3) (List.map (fun (j, _, _, _, _) -> j) slices));
  check_slices_fresh name slices;
  List.iter
    (fun id ->
      Alcotest.(check bool) (Printf.sprintf "%s: %s done" name id) true
        (state_of store id = Service.Job.Done))
    [ "j001"; "j002"; "j003" ];
  let solos = [ solo_dd ~journal:d1; solo_faulted ~journal:d2; solo_brute ~journal:d3 ] in
  List.iteri
    (fun i solo ->
      let id = Printf.sprintf "j%03d" (i + 1) in
      let solo_dir = List.nth [ d1; d2; d3 ] i in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %s journal byte-identical to solo" name id)
        true
        (String.equal (job_journal store id)
           (Harness.slurp (Persist.Journal.file ~dir:solo_dir)));
      Alcotest.(check string)
        (Printf.sprintf "%s: %s summary identical to solo (sans trace)" name id)
        (strip_trace (Core.Export.summary_json solo))
        (strip_trace (Harness.slurp (Service.Store.summary_file store id)));
      match solo.Core.Tuner.minimal with
      | Some r ->
        Alcotest.(check string)
          (Printf.sprintf "%s: %s minimal set identical to solo" name id)
          (Service.Sched.minimal_text solo r)
          (Harness.slurp (Service.Store.minimal_file store id))
      | None -> ())
    solos

let quota_test () =
  Harness.with_dir2 @@ fun root solo_dir ->
  (* learn the campaign's total cost, then set a quota strictly inside it *)
  let config = Service.Job.config_of_spec spec_dd in
  let probe = Core.Tuner.run_delta_debug ~config ~workers:0 small_funarc in
  let quota = 0.6 *. probe.Core.Tuner.simulated_hours in
  let store = Service.Store.open_ ~root in
  ignore (submit_or_die store { spec_dd with Service.Job.sp_quota_hours = Some quota });
  let sched = Service.Sched.create ~slice_records:4 ~find_model store in
  let slices = drive sched in
  check_slices_fresh "quota" slices;
  (match Service.Store.load store "j001" with
  | Some j ->
    Alcotest.(check bool) "terminal quota failure" true
      (j.Service.Job.state = Service.Job.Failed "quota-exhausted");
    Alcotest.(check bool) "charged at least the quota" true (j.Service.Job.hours >= quota)
  | None -> Alcotest.fail "job vanished");
  (* the same budget as an injected preemption boundary stops the solo
     run at the same durable record — the journals are byte-identical *)
  let faults =
    { Core.Cluster.Faults.none with Core.Cluster.Faults.preempt_at_hours = Some quota }
  in
  let solo =
    Core.Tuner.run_delta_debug ~config ~workers:0 ~journal:solo_dir ~faults small_funarc
  in
  Alcotest.(check bool) "solo preemption fired" true solo.Core.Tuner.interrupted;
  Alcotest.(check bool) "quota stop = preemption stop, byte for byte" true
    (String.equal (job_journal store "j001")
       (Harness.slurp (Persist.Journal.file ~dir:solo_dir)));
  match Service.Store.load store "j001" with
  | Some j ->
    Alcotest.(check int64) "charged exactly the solo run's hours"
      (Int64.bits_of_float solo.Core.Tuner.simulated_hours)
      (Int64.bits_of_float j.Service.Job.hours)
  | None -> Alcotest.fail "job vanished"

let drain_test () =
  Harness.with_dir2 @@ fun root solo_dir ->
  let store = Service.Store.open_ ~root in
  ignore (submit_or_die store spec_dd);
  (* drain mid-slice, from the event stream — exactly what the SIGTERM
     handler does while a slice is running *)
  let sched_cell = ref None in
  let ticks = ref 0 in
  let on_event (ev : Service.Sched.event) =
    if ev.Service.Sched.ev_detail = "" then begin
      incr ticks;
      if !ticks = 3 then Option.iter Service.Sched.drain !sched_cell
    end
  in
  let sched = Service.Sched.create ~slice_records:10_000 ~find_model ~on_event store in
  sched_cell := Some sched;
  (match Service.Sched.step sched with
  | Service.Sched.Sliced { si_state = Service.Job.Paused; _ } -> ()
  | Service.Sched.Sliced { si_state; _ } ->
    Alcotest.failf "drained slice ended %s" (Service.Job.state_name si_state)
  | Service.Sched.Idle -> Alcotest.fail "nothing ran");
  Alcotest.(check bool) "draining scheduler idles" true
    (Service.Sched.step sched = Service.Sched.Idle);
  Alcotest.(check bool) "job paused durably" true (state_of store "j001" = Service.Job.Paused);
  (* a later server finishes the job bit-identically, evaluating nothing
     it already journaled *)
  let sched2 = Service.Sched.create ~slice_records:10_000 ~find_model store in
  let slices = drive sched2 in
  check_slices_fresh "post-drain" slices;
  Alcotest.(check bool) "done after restart" true (state_of store "j001" = Service.Job.Done);
  let _ : Core.Tuner.campaign = solo_dd ~journal:solo_dir in
  Alcotest.(check bool) "drained journal byte-identical to solo" true
    (String.equal (job_journal store "j001")
       (Harness.slurp (Persist.Journal.file ~dir:solo_dir)))

let sigkill_test () =
  Harness.with_dir @@ fun root ->
  Harness.with_dir2 @@ fun d1 d2 ->
  let store = Service.Store.open_ ~root in
  ignore (submit_or_die store spec_dd);
  ignore (submit_or_die store spec_faulted);
  let sched = Service.Sched.create ~slice_records:3 ~find_model store in
  (* three slices: both jobs mid-campaign, both Running in the store *)
  for _ = 1 to 3 do
    match Service.Sched.step sched with
    | Service.Sched.Sliced _ -> ()
    | Service.Sched.Idle -> Alcotest.fail "queue drained too early"
  done;
  Alcotest.(check bool) "j001 left running" true (state_of store "j001" = Service.Job.Running);
  (* SIGKILL: tear j001's journal mid-record; j002 stops at a clean slice
     boundary. Both job.json files still say Running, with progress ahead
     of the torn journal — stale state a crash leaves behind. *)
  Harness.truncate_journal (Service.Store.campaign_dir store "j001") 0.6;
  (* a fresh server over the same root picks both up and finishes them *)
  let sched2 = Service.Sched.create ~slice_records:3 ~find_model store in
  let slices = drive sched2 in
  check_slices_fresh "post-kill" slices;
  List.iter
    (fun id ->
      Alcotest.(check bool) (id ^ " done after restart") true
        (state_of store id = Service.Job.Done))
    [ "j001"; "j002" ];
  let _ : Core.Tuner.campaign = solo_dd ~journal:d1 in
  let _ : Core.Tuner.campaign = solo_faulted ~journal:d2 in
  List.iteri
    (fun i dir ->
      let id = Printf.sprintf "j%03d" (i + 1) in
      Alcotest.(check bool) (id ^ " journal byte-identical to solo") true
        (String.equal (job_journal store id) (Harness.slurp (Persist.Journal.file ~dir))))
    [ d1; d2 ]

(* K identical jobs over the shared evaluation memo: every journal
   (provenance lines stripped), minimal set and summary (trace line
   stripped) byte-identical to the solo run, while the fleet evaluates
   strictly fewer fresh variants than K solo runs would *)
let memo_matrix_test k pool_workers () =
  Harness.with_dir2 @@ fun root solo_dir ->
  let store = Service.Store.open_ ~root in
  for _ = 1 to k do
    ignore (submit_or_die store spec_dd)
  done;
  let with_pool f =
    if pool_workers > 0 then Search.Pool.with_pool ~workers:pool_workers (fun p -> f (Some p))
    else f None
  in
  let slices =
    with_pool (fun pool ->
        let sched =
          Service.Sched.create ~slice_records:3 ?pool ~memo:(Service.Memo.create ())
            ~find_model store
        in
        drive sched)
  in
  let name = Printf.sprintf "memo k=%d pool=%d" k pool_workers in
  check_slices_fresh name slices;
  Alcotest.(check bool) (name ^ ": the memo actually served records") true
    (List.exists (fun (_, _, _, shared, _) -> shared > 0) slices);
  let solo = solo_dd ~journal:solo_dir in
  let fleet_misses = List.fold_left (fun acc (_, _, fresh, _, _) -> acc + fresh) 0 slices in
  Alcotest.(check bool)
    (Printf.sprintf "%s: fleet misses strictly below %dx solo" name k)
    true
    (fleet_misses < k * solo.Core.Tuner.trace_stats.Search.Trace.misses);
  let solo_journal = Harness.slurp (Persist.Journal.file ~dir:solo_dir) in
  List.iter
    (fun id ->
      Alcotest.(check bool) (Printf.sprintf "%s: %s done" name id) true
        (state_of store id = Service.Job.Done);
      Alcotest.(check string)
        (Printf.sprintf "%s: %s journal (sans provenance) byte-identical to solo" name id)
        solo_journal
        (strip_shared (job_journal store id));
      Alcotest.(check string)
        (Printf.sprintf "%s: %s summary identical to solo (sans trace)" name id)
        (strip_trace (Core.Export.summary_json solo))
        (strip_trace (Harness.slurp (Service.Store.summary_file store id)));
      match solo.Core.Tuner.minimal with
      | Some r ->
        Alcotest.(check string)
          (Printf.sprintf "%s: %s minimal set identical to solo" name id)
          (Service.Sched.minimal_text solo r)
          (Harness.slurp (Service.Store.minimal_file store id))
      | None -> ())
    (List.init k (fun i -> Printf.sprintf "j%03d" (i + 1)))

(* SIGTERM mid-slice with the memo on, then a SIGKILL-style torn journal:
   a fresh server (fresh, empty in-memory memo) resumes every job with
   zero re-evaluation of any journaled prefix — memo-served records
   journaled before the crash are replayed like any other prefix *)
let memo_restart_fleet root =
  let store = Service.Store.open_ ~root in
  ignore (submit_or_die store spec_dd);
  ignore (submit_or_die store spec_dd);
  let sched_cell = ref None in
  let ticks = ref 0 in
  let on_event (ev : Service.Sched.event) =
    if ev.Service.Sched.ev_detail = "" then begin
      incr ticks;
      if !ticks = 8 then Option.iter Service.Sched.drain !sched_cell
    end
  in
  let memo1 = Service.Memo.create () in
  let sched = Service.Sched.create ~slice_records:3 ~memo:memo1 ~find_model ~on_event store in
  sched_cell := Some sched;
  let pre = drive sched in
  check_slices_fresh "memo pre-drain" pre;
  Alcotest.(check bool) "memo served records before the drain" true
    (List.exists (fun (_, _, _, shared, _) -> shared > 0) pre);
  Alcotest.(check bool) "a job paused mid-campaign" true
    (List.exists (fun id -> state_of store id = Service.Job.Paused) [ "j001"; "j002" ]);
  (* SIGKILL on top of the drain: tear the donor's journal mid-record;
     the follower's journal keeps provenance lines naming the donor *)
  Harness.truncate_journal (Service.Store.campaign_dir store "j001") 0.6;
  let memo2 = Service.Memo.create () in
  let sched2 = Service.Sched.create ~slice_records:3 ~memo:memo2 ~find_model store in
  let slices = drive sched2 in
  check_slices_fresh "memo post-restart" slices;
  (store, memo1, memo2)

let memo_restart_test () =
  Harness.with_dir2 @@ fun root solo_dir ->
  let store, _, _ = memo_restart_fleet root in
  let solo = solo_dd ~journal:solo_dir in
  ignore (solo : Core.Tuner.campaign);
  let solo_journal = Harness.slurp (Persist.Journal.file ~dir:solo_dir) in
  List.iter
    (fun id ->
      Alcotest.(check bool) (id ^ " done after restart") true
        (state_of store id = Service.Job.Done);
      Alcotest.(check string)
        (id ^ " journal (sans provenance) byte-identical to solo")
        solo_journal
        (strip_shared (job_journal store id)))
    [ "j001"; "j002" ]

(* Golden digests of the memo fleet: the md5 of every job's full journal
   (provenance lines included), each job's [Job.shared] and the memo's
   (finds, hits, publishes). The identity tests above strip the
   provenance lines before comparing; these pin them, so a wrong donor or
   index in a {"kind":"shared",...} line fails here. *)
let check_golden name store memos ~jobs ~counts =
  List.iter
    (fun (id, md5, shared) ->
      Alcotest.(check string)
        (Printf.sprintf "%s: %s full journal md5" name id)
        md5
        (Digest.to_hex (Digest.string (job_journal store id)));
      match Service.Store.load store id with
      | Some j ->
        Alcotest.(check int) (Printf.sprintf "%s: %s shared" name id) shared j.Service.Job.shared
      | None -> Alcotest.failf "job %s vanished" id)
    jobs;
  List.iter2
    (fun memo (finds, hits, publishes) ->
      let s = Service.Memo.stats memo in
      Alcotest.(check (list int))
        (name ^ ": memo finds/hits/publishes")
        [ finds; hits; publishes ]
        [ s.Service.Memo.finds; s.Service.Memo.hits; s.Service.Memo.publishes ])
    memos counts

let memo_golden_test k ~jobs ~counts () =
  Harness.with_dir @@ fun root ->
  let store = Service.Store.open_ ~root in
  for _ = 1 to k do
    ignore (submit_or_die store spec_dd)
  done;
  let memo = Service.Memo.create () in
  ignore (drive (Service.Sched.create ~slice_records:3 ~memo ~find_model store));
  check_golden (Printf.sprintf "golden k=%d" k) store [ memo ] ~jobs ~counts

let memo_restart_golden_test () =
  Harness.with_dir @@ fun root ->
  let store, memo1, memo2 = memo_restart_fleet root in
  check_golden "golden restart" store [ memo1; memo2 ]
    ~jobs:
      [ ("j001", "6afeb6d08d416f7b7077cddb54f0a949", 8);
        ("j002", "60b07926bbf77482f1fa0f266f2d1041", 8) ]
    ~counts:[ (6, 3, 3); (28, 13, 15) ]

let cancel_test () =
  Harness.with_dir @@ fun root ->
  let store = Service.Store.open_ ~root in
  ignore (submit_or_die store spec_dd);
  let sched = Service.Sched.create ~slice_records:3 ~find_model store in
  (match Service.Sched.step sched with
  | Service.Sched.Sliced _ -> ()
  | Service.Sched.Idle -> Alcotest.fail "nothing ran");
  (match Service.Sched.cancel sched "j001" with
  | Ok j ->
    Alcotest.(check bool) "cancelled" true
      (j.Service.Job.state = Service.Job.Failed "cancelled")
  | Error m -> Alcotest.failf "cancel failed: %s" m);
  Alcotest.(check bool) "terminal jobs cannot be re-cancelled" true
    (match Service.Sched.cancel sched "j001" with Error _ -> true | Ok _ -> false);
  Alcotest.(check bool) "unknown ids error" true
    (match Service.Sched.cancel sched "j999" with Error _ -> true | Ok _ -> false);
  Alcotest.(check bool) "cancelled job never runs again" true
    (Service.Sched.step sched = Service.Sched.Idle)

let sched_tests =
  [
    Alcotest.test_case "3 concurrent jobs = 3 solo runs, byte for byte (sequential)" `Quick
      (matrix_test 0);
    Alcotest.test_case "3 concurrent jobs = 3 solo runs, byte for byte (4 workers)" `Slow
      (matrix_test 4);
    Alcotest.test_case "2 same-model jobs share the memo, bytes = solo (sequential)" `Quick
      (memo_matrix_test 2 0);
    Alcotest.test_case "3 same-model jobs share the memo, bytes = solo (sequential)" `Quick
      (memo_matrix_test 3 0);
    Alcotest.test_case "2 same-model jobs share the memo, bytes = solo (4 workers)" `Slow
      (memo_matrix_test 2 4);
    Alcotest.test_case "3 same-model jobs share the memo, bytes = solo (4 workers)" `Slow
      (memo_matrix_test 3 4);
    t "SIGTERM + torn journal with memo on: restart re-evaluates nothing" memo_restart_test;
    t "quota exhaustion stops at the exact preemption record" quota_test;
    t "mid-slice drain pauses durably and resumes bit-identically" drain_test;
    t "SIGKILL-torn journal: restart re-evaluates nothing, results identical" sigkill_test;
    t "cancel is terminal and unschedulable" cancel_test;
    t "memo golden k=2: full journals, shared, memo counters"
      (memo_golden_test 2
         ~jobs:
           [ ("j001", "9d61c6a58d39cee2783c680063a2fdf0", 0);
             ("j002", "4a980e24ed7286b5cbb0c08c1df0a675", 16) ]
         ~counts:[ (32, 16, 16) ]);
    t "memo golden k=3: full journals, shared, memo counters"
      (memo_golden_test 3
         ~jobs:
           [ ("j001", "9d61c6a58d39cee2783c680063a2fdf0", 0);
             ("j002", "4a980e24ed7286b5cbb0c08c1df0a675", 16);
             ("j003", "4a980e24ed7286b5cbb0c08c1df0a675", 16) ]
         ~counts:[ (48, 32, 16) ]);
    t "memo golden after restart: full journals, shared, memo counters"
      memo_restart_golden_test;
  ]

(* ------------------------------------------------------------------ *)
(* Journal discovery (the `prose campaign ls` regression)              *)

let header =
  {
    Persist.Journal.version = 1;
    model = "funarc";
    algo = "brute_force";
    seed = 42;
    config_digest = "cafe";
    atoms = 4;
    caps = [ "shared" ];
  }

let find_campaign_tests =
  [
    t "find_campaigns skips foreign files and descends to job journals" (fun () ->
        Harness.with_dir (fun root ->
            let mkdir_p parts =
              ignore
                (List.fold_left
                   (fun acc p ->
                     let d = Filename.concat acc p in
                     if not (Sys.file_exists d) then Unix.mkdir d 0o755;
                     d)
                   root parts)
            in
            if not (Sys.file_exists root) then Unix.mkdir root 0o755;
            let mk_journal parts =
              mkdir_p parts;
              let dir = List.fold_left Filename.concat root parts in
              Persist.Journal.close (Persist.Journal.create ~dir header)
            in
            mk_journal [ "alpha" ];
            mk_journal [ "jobs"; "j001"; "campaign" ];
            (* inside a campaign dir: must NOT be descended into *)
            mk_journal [ "alpha"; "nested" ];
            (* beyond max_depth 3 *)
            mk_journal [ "a"; "b"; "c"; "deep" ];
            mkdir_p [ "empty" ];
            let oc = open_out (Filename.concat root "README") in
            output_string oc "hello\n";
            close_out oc;
            Unix.symlink "nowhere" (Filename.concat root "broken");
            let found = Persist.Journal.find_campaigns ~root () in
            let rel d =
              let p = root ^ Filename.dir_sep in
              if String.length d > String.length p && String.sub d 0 (String.length p) = p
              then String.sub d (String.length p) (String.length d - String.length p)
              else d
            in
            Alcotest.(check (list string))
              "campaign dirs, lexicographic, no descent into campaigns"
              [ "alpha"; Filename.concat (Filename.concat "jobs" "j001") "campaign" ]
              (List.map rel found)));
    t "find_campaigns of a campaign root returns just it" (fun () ->
        Harness.with_dir (fun root ->
            Persist.Journal.close (Persist.Journal.create ~dir:root header);
            Alcotest.(check (list string)) "itself" [ root ]
              (Persist.Journal.find_campaigns ~root ())));
    t "find_campaigns of a missing root is empty" (fun () ->
        Alcotest.(check (list string)) "empty" []
          (Persist.Journal.find_campaigns ~root:"/nonexistent/prose-test" ()));
  ]

let () =
  Alcotest.run "service"
    [
      ("job", job_tests);
      ("store", store_tests);
      ("proto", proto_tests);
      ("server", server_tests);
      ("fair", fair_unit_tests @ [ qt fairness_prop; qt weighted_fairness_prop ]);
      ("sched", sched_tests);
      ("campaign-discovery", find_campaign_tests);
    ]
