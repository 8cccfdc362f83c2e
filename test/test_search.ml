(* Search tests: variant accounting, the trace cache, delta debugging's
   1-minimality (against synthetic oracles and brute-force ground truth),
   and the frontier. *)

open Search

let t name f = Alcotest.test_case name `Quick f

(* a synthetic atom universe *)
let mk_atoms n =
  List.init n (fun i ->
      {
        Transform.Assignment.a_scope = Fortran.Symtab.Proc_scope "p";
        a_name = Printf.sprintf "v%02d" i;
        a_declared = Fortran.Ast.K8;
        a_is_array = false;
      })

(* an oracle parameterized by a set of critical atoms: a variant passes iff
   no critical atom is lowered; passing variants speed up with the number
   of lowered atoms *)
let oracle ~critical atoms asg =
  let lowered = Transform.Assignment.lowered asg in
  let bad = List.exists (fun a -> List.memq a lowered) critical in
  let n = List.length atoms in
  let frac = float_of_int (List.length lowered) /. float_of_int (max 1 n) in
  if bad then
    {
      Variant.status = Variant.Fail;
      speedup = 1.0 +. frac;
      rel_error = 1.0;
      hotspot_time = 1.0;
      model_time = 1.0;
      proc_stats = [];
      casting_share = 0.0;
      detail = "critical atom lowered";
    }
  else
    {
      Variant.status = Variant.Pass;
      speedup = 1.0 +. frac;
      rel_error = 1e-9;
      hotspot_time = 1.0;
      model_time = 1.0;
      proc_stats = [];
      casting_share = 0.0;
      detail = "ok";
    }

let dd_config = { Delta_debug.error_threshold = 1e-3; perf_floor = 0.9 }

let run_dd ~critical n =
  let atoms = mk_atoms n in
  let crit = List.filteri (fun i _ -> List.mem i critical) atoms in
  let trace = Trace.create () in
  let result =
    Delta_debug.search ~atoms ~trace ~evaluate:(oracle ~critical:crit atoms) dd_config
  in
  (atoms, crit, result, trace)

let delta_debug_tests =
  [
    t "no critical atoms: everything lowered" (fun () ->
        let _, _, r, _ = run_dd ~critical:[] 12 in
        Alcotest.(check int) "empty high set" 0 (List.length r.Delta_debug.high_set);
        Alcotest.(check bool) "finished" true r.Delta_debug.finished);
    t "single critical atom found exactly" (fun () ->
        let _, crit, r, _ = run_dd ~critical:[ 5 ] 12 in
        Alcotest.(check int) "one high" 1 (List.length r.Delta_debug.high_set);
        Alcotest.(check bool) "the right one" true
          (List.memq (List.hd crit) r.Delta_debug.high_set));
    t "scattered critical atoms found exactly" (fun () ->
        let _, crit, r, _ = run_dd ~critical:[ 1; 7; 11 ] 16 in
        Alcotest.(check int) "three high" 3 (List.length r.Delta_debug.high_set);
        List.iter
          (fun c ->
            Alcotest.(check bool) "critical kept" true (List.memq c r.Delta_debug.high_set))
          crit);
    t "evaluation count is subquadratic-ish" (fun () ->
        let n = 32 in
        let _, _, r, _ = run_dd ~critical:[ 3 ] n in
        Alcotest.(check bool) "fewer than n^2 evals" true (r.Delta_debug.evaluations < n * n));
    t "ranker sees every consumed evaluation and steers the rounds" (fun () ->
        let n = 16 in
        let atoms = mk_atoms n in
        let crit = List.filteri (fun i _ -> List.mem i [ 2; 9 ]) atoms in
        let noted = ref 0 in
        let rounds = ref 0 in
        (* an all-knowing demoter: any candidate lowering a critical atom
           will fail, push it back *)
        let ranker =
          {
            Delta_debug.note = (fun _ _ -> incr noted);
            round = (fun () -> incr rounds);
            demote =
              (fun asg ->
                let lowered = Transform.Assignment.lowered asg in
                List.exists (fun c -> List.memq c lowered) crit);
          }
        in
        let trace = Trace.create () in
        let r =
          Delta_debug.search ~ranker ~atoms ~trace ~evaluate:(oracle ~critical:crit atoms)
            dd_config
        in
        let _, _, r0, t0 = run_dd ~critical:[ 2; 9 ] n in
        Alcotest.(check int) "same high set size" (List.length r0.Delta_debug.high_set)
          (List.length r.Delta_debug.high_set);
        List.iter
          (fun c ->
            Alcotest.(check bool) "critical kept" true (List.memq c r.Delta_debug.high_set))
          crit;
        Alcotest.(check bool) "rounds ran" true (!rounds > 0);
        (* note fires on every consumed test (memo hits included), so it
           covers at least each fresh evaluation *)
        Alcotest.(check bool) "note covers every fresh evaluation" true
          (!noted >= Trace.count trace);
        (* the oracle-grade demoter cannot do worse than the classic order *)
        Alcotest.(check bool) "no more evaluations than unranked" true
          (Trace.count trace <= Trace.count t0));
    t "budget exhaustion returns best seen" (fun () ->
        let atoms = mk_atoms 20 in
        let crit = List.filteri (fun i _ -> i = 4 || i = 13) atoms in
        let trace = Trace.create ~max_variants:6 () in
        let r = Delta_debug.search ~atoms ~trace ~evaluate:(oracle ~critical:crit atoms) dd_config in
        Alcotest.(check bool) "not finished" false r.Delta_debug.finished;
        Alcotest.(check bool) "budget respected" true (Trace.count trace <= 6));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"dd finds exactly the critical set (monotone oracle)" ~count:60
         QCheck.(pair (int_range 4 20) (small_list (int_range 0 19)))
         (fun (n, crit_idx) ->
           let critical = List.sort_uniq compare (List.filter (fun i -> i < n) crit_idx) in
           let atoms, crit, r, _ = run_dd ~critical n in
           ignore atoms;
           r.Delta_debug.finished
           && List.length r.Delta_debug.high_set = List.length crit
           && List.for_all (fun c -> List.memq c r.Delta_debug.high_set) crit));
    t "1-minimality verified against the oracle" (fun () ->
        let atoms, crit, r, _ = run_dd ~critical:[ 2; 9 ] 14 in
        ignore crit;
        (* lowering any single remaining high atom must fail the oracle *)
        List.iter
          (fun h ->
            let lowered =
              h :: Transform.Assignment.lowered r.Delta_debug.minimal
            in
            let asg = Transform.Assignment.of_lowered atoms ~lowered in
            let m =
              oracle ~critical:(List.filteri (fun i _ -> List.mem i [ 2; 9 ]) atoms) atoms asg
            in
            Alcotest.(check bool) "violates criteria" false (Delta_debug.accepted dd_config m))
          r.Delta_debug.high_set);
  ]

let ddmin_tests =
  [
    t "partition sizes balance" (fun () ->
        Alcotest.(check (list (list int))) "3 chunks" [ [ 1; 2 ]; [ 3; 4 ]; [ 5 ] ]
          (Ddmin.partition 3 [ 1; 2; 3; 4; 5 ]);
        Alcotest.(check (list (list int))) "oversized n" [ [ 1 ]; [ 2 ] ] (Ddmin.partition 9 [ 1; 2 ]));
    t "partition edge cases" (fun () ->
        Alcotest.(check (list (list int))) "n = 1 is the whole list" [ [ 1; 2; 3 ] ]
          (Ddmin.partition 1 [ 1; 2; 3 ]);
        Alcotest.(check (list (list int))) "n > length: singletons" [ [ 1 ]; [ 2 ]; [ 3 ] ]
          (Ddmin.partition 7 [ 1; 2; 3 ]);
        Alcotest.(check (list (list int))) "n = length: singletons" [ [ 1 ]; [ 2 ] ]
          (Ddmin.partition 2 [ 1; 2 ]);
        Alcotest.(check (list (list int))) "empty list" [] (Ddmin.partition 3 []);
        Alcotest.(check (list (list int))) "n = 0 clamps to 1" [ [ 1; 2 ] ]
          (Ddmin.partition 0 [ 1; 2 ]));
    t "prefetch announces each round's candidates before testing" (fun () ->
        let announced = ref [] in
        let tested = ref [] in
        let test xs =
          tested := xs :: !tested;
          (* anything containing 3 passes *)
          List.mem 3 xs
        in
        let prefetch cands = announced := cands :: !announced in
        let m = Ddmin.minimize ~prefetch ~test [ 1; 2; 3; 4 ] in
        Alcotest.(check (list int)) "minimal" [ 3 ] m;
        (* every tested subset (except the initial []-probe and the seeds)
           was announced by some earlier prefetch call *)
        let all_announced = List.concat !announced in
        List.iter
          (fun xs ->
            if xs <> [] && xs <> [ 1; 2; 3; 4 ] then
              Alcotest.(check bool) "was announced" true (List.mem xs all_announced))
          !tested);
    t "minimize of passing empty set" (fun () ->
        Alcotest.(check (list int)) "empty" [] (Ddmin.minimize ~test:(fun _ -> true) [ 1; 2; 3 ]));
    t "identity order replays the classic trajectory" (fun () ->
        let log ~order test =
          let tested = ref [] in
          let wrapped xs =
            tested := xs :: !tested;
            test xs
          in
          let m =
            match order with
            | None -> Ddmin.minimize ~test:wrapped [ 1; 2; 3; 4; 5; 6 ]
            | Some o -> Ddmin.minimize ~order:o ~test:wrapped [ 1; 2; 3; 4; 5; 6 ]
          in
          (m, List.rev !tested)
        in
        let test xs = List.mem 3 xs && List.mem 5 xs in
        let classic = log ~order:None test in
        let ordered = log ~order:(Some (fun c -> c)) test in
        Alcotest.(check bool) "same minimal and same test sequence" true (classic = ordered);
        (* each round presents all chunks before any complement *)
        ignore
          (Ddmin.minimize
             ~order:(fun cands ->
               let rec chunks_first seen_comp = function
                 | [] -> true
                 | Ddmin.Chunk _ :: rest -> (not seen_comp) && chunks_first seen_comp rest
                 | Ddmin.Complement _ :: rest -> chunks_first true rest
               in
               Alcotest.(check bool) "chunks precede complements" true (chunks_first false cands);
               cands)
             ~test [ 1; 2; 3; 4; 5; 6 ]));
    t "order demotes within the round without losing 1-minimality" (fun () ->
        (* the oracle needs {3}; an order that sends every candidate
           missing 3 to the back skips straight to the passing chunk *)
        let count = ref 0 in
        let test xs =
          incr count;
          List.mem 3 xs
        in
        let order cands =
          let keep, demoted =
            List.partition (fun c -> List.mem 3 (Ddmin.subset c)) cands
          in
          keep @ demoted
        in
        let m = Ddmin.minimize ~order ~test [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
        let steered = !count in
        count := 0;
        let m' = Ddmin.minimize ~test [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
        Alcotest.(check (list int)) "same minimal" m' m;
        Alcotest.(check bool)
          (Printf.sprintf "fewer tests steered (%d) than classic (%d)" steered !count)
          true (steered <= !count));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"minimize returns exactly the required subset" ~count:100
         QCheck.(pair (int_range 1 24) (small_list (int_range 0 23)))
         (fun (n, req_idx) ->
           let xs = List.init n (fun i -> i) in
           let required = List.sort_uniq compare (List.filter (fun i -> i < n) req_idx) in
           let test sub = List.for_all (fun r -> List.mem r sub) required in
           let m = Ddmin.minimize ~test xs in
           List.sort compare m = required));
  ]

let hierarchical_tests =
  [
    t "groups must partition the atoms" (fun () ->
        let atoms = mk_atoms 4 in
        let trace = Trace.create () in
        match
          Hierarchical.search ~atoms
            ~groups:[ List.filteri (fun i _ -> i < 2) atoms ]
            ~trace ~evaluate:(oracle ~critical:[] atoms) dd_config
        with
        | _ -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument _ -> ());
    t "finds the critical atoms through groups" (fun () ->
        let atoms = mk_atoms 12 in
        let crit = List.filteri (fun i _ -> i = 3 || i = 4 (* same group *)) atoms in
        let groups = Ddmin.partition 4 atoms in
        let trace = Trace.create () in
        let r =
          Hierarchical.search ~atoms ~groups ~trace ~evaluate:(oracle ~critical:crit atoms)
            dd_config
        in
        Alcotest.(check bool) "finished" true r.Delta_debug.finished;
        Alcotest.(check int) "exactly the criticals" 2 (List.length r.Delta_debug.high_set);
        List.iter
          (fun c ->
            Alcotest.(check bool) "critical kept" true (List.memq c r.Delta_debug.high_set))
          crit);
    t "clustered criticals cost fewer evaluations than flat dd" (fun () ->
        (* criticals all inside one group: the group phase isolates them fast *)
        let atoms = mk_atoms 24 in
        let crit = List.filteri (fun i _ -> i >= 4 && i < 8) atoms in
        let groups = Ddmin.partition 6 atoms in
        let t_h = Trace.create () in
        let rh =
          Hierarchical.search ~atoms ~groups ~trace:t_h ~evaluate:(oracle ~critical:crit atoms)
            dd_config
        in
        let t_f = Trace.create () in
        let rf =
          Delta_debug.search ~atoms ~trace:t_f ~evaluate:(oracle ~critical:crit atoms) dd_config
        in
        Alcotest.(check bool) "same high set size" true
          (List.length rh.Delta_debug.high_set = List.length rf.Delta_debug.high_set);
        Alcotest.(check bool) "fewer or equal evals" true
          (rh.Delta_debug.evaluations <= rf.Delta_debug.evaluations));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"hierarchical finds every critical atom" ~count:40
         QCheck.(pair (int_range 4 20) (small_list (int_range 0 19)))
         (fun (n, crit_idx) ->
           let atoms = mk_atoms n in
           let critical = List.sort_uniq compare (List.filter (fun i -> i < n) crit_idx) in
           let crit = List.filteri (fun i _ -> List.mem i critical) atoms in
           let groups = Ddmin.partition 4 atoms in
           let trace = Trace.create () in
           let r =
             Hierarchical.search ~atoms ~groups ~trace ~evaluate:(oracle ~critical:crit atoms)
               dd_config
           in
           r.Delta_debug.finished
           && List.length r.Delta_debug.high_set = List.length crit
           && List.for_all (fun c -> List.memq c r.Delta_debug.high_set) crit));
  ]

(* Speculative batching must leave the search trajectory bit-identical:
   same records in the same order, same minimal variant, same budget
   cut-off — only wall clock may differ. *)
let batched_tests =
  let sigs trace =
    List.map
      (fun (r : Variant.record) ->
        (r.Variant.index, Transform.Assignment.signature r.Variant.asg, r.Variant.meas))
      (Trace.records trace)
  in
  let dd ?pool ?max_variants ~critical n =
    let atoms = mk_atoms n in
    let crit = List.filteri (fun i _ -> List.mem i critical) atoms in
    let trace = Trace.create ?max_variants () in
    let r =
      Delta_debug.search ?pool ~atoms ~trace ~evaluate:(oracle ~critical:crit atoms) dd_config
    in
    (r, sigs trace)
  in
  [
    t "delta debugging: pool run identical to sequential" (fun () ->
        let r_seq, t_seq = dd ~critical:[ 2; 9 ] 16 in
        Pool.with_pool ~workers:4 (fun pool ->
            let r_par, t_par = dd ~pool ~critical:[ 2; 9 ] 16 in
            Alcotest.(check bool) "same records" true (t_seq = t_par);
            Alcotest.(check bool) "same minimal" true
              (r_seq.Delta_debug.minimal = r_par.Delta_debug.minimal);
            Alcotest.(check int) "same evaluations" r_seq.Delta_debug.evaluations
              r_par.Delta_debug.evaluations));
    t "budget cut-off identical under batching" (fun () ->
        (* the batch that crosses the budget must record exactly the
           assignments the sequential run would have evaluated *)
        let r_seq, t_seq = dd ~max_variants:7 ~critical:[ 1; 4; 13 ] 20 in
        Pool.with_pool ~workers:3 (fun pool ->
            let r_par, t_par = dd ~pool ~max_variants:7 ~critical:[ 1; 4; 13 ] 20 in
            Alcotest.(check bool) "not finished" false r_par.Delta_debug.finished;
            Alcotest.(check bool) "same finished flag" r_seq.Delta_debug.finished
              r_par.Delta_debug.finished;
            Alcotest.(check bool) "same records" true (t_seq = t_par);
            Alcotest.(check bool) "same best-seen fallback" true
              (r_seq.Delta_debug.high_set = r_par.Delta_debug.high_set)));
    t "hierarchical: pool run identical to sequential" (fun () ->
        let atoms = mk_atoms 18 in
        let crit = List.filteri (fun i _ -> i = 4 || i = 5) atoms in
        let groups = Ddmin.partition 6 atoms in
        let go pool =
          let trace = Trace.create () in
          let r =
            Hierarchical.search ?pool ~atoms ~groups ~trace
              ~evaluate:(oracle ~critical:crit atoms) dd_config
          in
          (r, sigs trace)
        in
        let r_seq, t_seq = go None in
        Pool.with_pool ~workers:4 (fun pool ->
            let r_par, t_par = go (Some pool) in
            Alcotest.(check bool) "same records" true (t_seq = t_par);
            Alcotest.(check bool) "same high set" true
              (r_seq.Delta_debug.high_set = r_par.Delta_debug.high_set)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"pool trajectory equals sequential (random oracles)" ~count:25
         QCheck.(pair (int_range 4 20) (small_list (int_range 0 19)))
         (fun (n, crit_idx) ->
           let critical = List.sort_uniq compare (List.filter (fun i -> i < n) crit_idx) in
           let _, t_seq = dd ~critical n in
           Pool.with_pool ~workers:2 (fun pool ->
               let _, t_par = dd ~pool ~critical n in
               t_seq = t_par)));
  ]

let brute_force_tests =
  [
    t "explores exactly 2^n variants" (fun () ->
        let atoms = mk_atoms 6 in
        let trace = Trace.create () in
        let records = Brute_force.search ~atoms ~trace ~evaluate:(oracle ~critical:[] atoms) () in
        Alcotest.(check int) "64" 64 (List.length records));
    t "refuses oversized spaces" (fun () ->
        let atoms = mk_atoms 21 in
        let trace = Trace.create () in
        match Brute_force.search ~atoms ~trace ~evaluate:(oracle ~critical:[] atoms) () with
        | _ -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument _ -> ());
    t "agrees with delta debugging on the best passing variant" (fun () ->
        let atoms = mk_atoms 8 in
        let crit = List.filteri (fun i _ -> i = 2) atoms in
        let bf_trace = Trace.create () in
        let records =
          Brute_force.search ~atoms ~trace:bf_trace ~evaluate:(oracle ~critical:crit atoms) ()
        in
        let best_bf = Option.get (Variant.best records) in
        let _, _, dd, _ = run_dd ~critical:[ 2 ] 8 in
        (* dd's 1-minimal variant lowers all non-critical atoms: same
           speedup as the brute-force optimum *)
        let dd_frac = Transform.Assignment.fraction_lowered dd.Delta_debug.minimal in
        Alcotest.(check (float 1e-9)) "same speedup" best_bf.Variant.meas.Variant.speedup
          (1.0 +. dd_frac));
  ]

(* A trace with an external lookup that serves exactly one signature
   ([a], from donor "donor") and misses every other, recording every
   lookup call, every [f] evaluation and every sink invocation. *)
type lookup_fixture = {
  trace : Trace.t;
  f : Transform.Assignment.t -> Variant.measurement;
  a : Transform.Assignment.t;
  b : Transform.Assignment.t;
  c : Transform.Assignment.t;
  served : Variant.measurement;
  lookups : int ref;
  evaluated : string list ref;  (* signatures, reversed *)
  sunk : (int * string * string option) list ref;  (* reversed *)
}

let lookup_fixture ?max_variants () =
  let atoms = mk_atoms 3 in
  let lower i =
    Transform.Assignment.of_lowered atoms ~lowered:(List.filteri (fun j _ -> j = i) atoms)
  in
  let a = lower 0 and b = lower 1 and c = lower 2 in
  let served = { (oracle ~critical:[] atoms a) with Variant.detail = "served" } in
  let lookups = ref 0 and evaluated = ref [] and sunk = ref [] in
  let lookup asg =
    incr lookups;
    if Transform.Assignment.signature asg = Transform.Assignment.signature a then
      Some (served, "donor")
    else None
  in
  let sink ~donor (r : Variant.record) =
    sunk := (r.Variant.index, Transform.Assignment.signature r.Variant.asg, donor) :: !sunk
  in
  let f asg =
    evaluated := Transform.Assignment.signature asg :: !evaluated;
    oracle ~critical:[] atoms asg
  in
  { trace = Trace.create ?max_variants ~lookup ~sink (); f; a; b; c; served; lookups;
    evaluated; sunk }

let trace_tests =
  [
    t "identical assignments evaluated once" (fun () ->
        let atoms = mk_atoms 4 in
        let count = ref 0 in
        let trace = Trace.create () in
        let f asg =
          incr count;
          oracle ~critical:[] atoms asg
        in
        let asg = Transform.Assignment.uniform atoms Fortran.Ast.K4 in
        ignore (Trace.evaluate trace ~f asg);
        ignore (Trace.evaluate trace ~f asg);
        Alcotest.(check int) "one eval" 1 !count;
        Alcotest.(check int) "one record" 1 (List.length (Trace.records trace)));
    t "budget raises after cap" (fun () ->
        let atoms = mk_atoms 4 in
        let trace = Trace.create ~max_variants:2 () in
        let f = oracle ~critical:[] atoms in
        let lower i =
          Transform.Assignment.of_lowered atoms
            ~lowered:(List.filteri (fun j _ -> j < i) atoms)
        in
        ignore (Trace.evaluate trace ~f (lower 0));
        ignore (Trace.evaluate trace ~f (lower 1));
        (match Trace.evaluate trace ~f (lower 2) with
        | _ -> Alcotest.fail "expected Budget_exhausted"
        | exception Trace.Budget_exhausted -> ());
        (* cached entries still served after exhaustion *)
        ignore (Trace.evaluate trace ~f (lower 1)));
    t "cache hit after exhaustion is served, not raised" (fun () ->
        (* regression: under speculative batching the searches may revisit
           an already-evaluated assignment after the budget ran out — the
           cache must answer, and must not burn budget *)
        let atoms = mk_atoms 4 in
        let trace = Trace.create ~max_variants:1 () in
        let f = oracle ~critical:[] atoms in
        let asg = Transform.Assignment.uniform atoms Fortran.Ast.K4 in
        let m0 = Trace.evaluate trace ~f asg in
        let fresh =
          Transform.Assignment.of_lowered atoms ~lowered:(List.filteri (fun i _ -> i = 0) atoms)
        in
        (match Trace.evaluate trace ~f fresh with
        | _ -> Alcotest.fail "expected Budget_exhausted"
        | exception Trace.Budget_exhausted -> ());
        let m1 = Trace.evaluate trace ~f asg in
        Alcotest.(check bool) "same measurement" true (m0 = m1);
        Alcotest.(check int) "budget not burned" 1 (Trace.count trace);
        (* and a fresh assignment still raises *)
        match Trace.evaluate trace ~f fresh with
        | _ -> Alcotest.fail "expected Budget_exhausted again"
        | exception Trace.Budget_exhausted -> ());
    t "find_cached peeks without recording" (fun () ->
        let atoms = mk_atoms 3 in
        let trace = Trace.create () in
        let f = oracle ~critical:[] atoms in
        let asg = Transform.Assignment.uniform atoms Fortran.Ast.K4 in
        Alcotest.(check bool) "miss" true (Trace.find_cached trace asg = None);
        let m = Trace.evaluate trace ~f asg in
        Alcotest.(check bool) "hit" true (Trace.find_cached trace asg = Some m);
        Alcotest.(check int) "one record" 1 (List.length (Trace.records trace)));
    t "records keep evaluation order" (fun () ->
        let atoms = mk_atoms 3 in
        let trace = Trace.create () in
        let f = oracle ~critical:[] atoms in
        ignore (Trace.evaluate trace ~f (Transform.Assignment.original atoms));
        ignore (Trace.evaluate trace ~f (Transform.Assignment.uniform atoms Fortran.Ast.K4));
        match Trace.records trace with
        | [ a; b ] ->
          Alcotest.(check int) "first" 1 a.Variant.index;
          Alcotest.(check int) "second" 2 b.Variant.index
        | _ -> Alcotest.fail "expected two records");
    t "lookup hit commits like a fresh evaluation, tagged with its donor" (fun () ->
        let l = lookup_fixture () in
        let sig_of = Transform.Assignment.signature in
        List.iter (fun asg -> ignore (Trace.evaluate l.trace ~f:l.f asg)) [ l.b; l.a; l.c ];
        Alcotest.(check (list (triple int string (option string))))
          "sink sees every commit in order, donor only on the served one"
          [ (1, sig_of l.b, None); (2, sig_of l.a, Some "donor"); (3, sig_of l.c, None) ]
          (List.rev !(l.sunk));
        Alcotest.(check (list string)) "f ran only for the lookup's misses"
          [ sig_of l.b; sig_of l.c ] (List.rev !(l.evaluated));
        (match Trace.records l.trace with
        | [ _; r; _ ] ->
          Alcotest.(check bool) "served measurement committed verbatim" true
            (r.Variant.meas = l.served)
        | _ -> Alcotest.fail "expected three records");
        let s = Trace.stats l.trace in
        Alcotest.(check (list int)) "hits/misses/shared/appends" [ 0; 2; 1; 3 ]
          [ s.Trace.hits; s.Trace.misses; s.Trace.shared; s.Trace.appends ];
        Alcotest.(check int) "the served record burns budget" 3 (Trace.count l.trace));
    t "repeat of a lookup-served signature is a plain hit" (fun () ->
        let l = lookup_fixture () in
        let m0 = Trace.evaluate l.trace ~f:l.f l.a in
        let looked = !(l.lookups) in
        let m1 = Trace.evaluate l.trace ~f:l.f l.a in
        Alcotest.(check bool) "same measurement" true (m0 = m1);
        Alcotest.(check int) "lookup not asked again" looked !(l.lookups);
        Alcotest.(check int) "f never ran" 0 (List.length !(l.evaluated));
        Alcotest.(check int) "no second commit" 1 (List.length !(l.sunk));
        let s = Trace.stats l.trace in
        Alcotest.(check (list int)) "hits/misses/shared" [ 1; 0; 1 ]
          [ s.Trace.hits; s.Trace.misses; s.Trace.shared ]);
    t "lookup never runs once the budget is exhausted" (fun () ->
        let l = lookup_fixture ~max_variants:1 () in
        ignore (Trace.evaluate l.trace ~f:l.f l.a);
        Alcotest.(check int) "one lookup for the served record" 1 !(l.lookups);
        List.iter
          (fun asg ->
            match Trace.evaluate l.trace ~f:l.f asg with
            | _ -> Alcotest.fail "expected Budget_exhausted"
            | exception Trace.Budget_exhausted -> ())
          [ l.b; l.c; l.b ];
        ignore (Trace.evaluate l.trace ~f:l.f l.a);
        Alcotest.(check int) "no lookup after exhaustion" 1 !(l.lookups);
        Alcotest.(check int) "f never ran" 0 (List.length !(l.evaluated)));
  ]

let variant_tests =
  [
    t "summarize percentages" (fun () ->
        let atoms = mk_atoms 2 in
        let mk status speedup =
          {
            Variant.index = 0;
            asg = Transform.Assignment.original atoms;
            meas =
              {
                Variant.status;
                speedup;
                rel_error = 0.0;
                hotspot_time = 1.0;
                model_time = 1.0;
                proc_stats = [];
                casting_share = 0.0;
                detail = "";
              };
          }
        in
        let s =
          Variant.summarize
            [ mk Variant.Pass 1.5; mk Variant.Fail 2.0; mk Variant.Timeout 0.0; mk Variant.Pass 1.2 ]
        in
        Alcotest.(check (float 1e-9)) "pass" 50.0 s.Variant.pass_pct;
        Alcotest.(check (float 1e-9)) "fail" 25.0 s.Variant.fail_pct;
        Alcotest.(check (float 1e-9)) "timeout" 25.0 s.Variant.timeout_pct;
        Alcotest.(check (float 1e-9)) "best from passing only" 1.5 s.Variant.best_speedup);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"frontier points are mutually non-dominated" ~count:100
         QCheck.(small_list (pair (float_bound_exclusive 3.0) (float_bound_exclusive 1.0)))
         (fun pts ->
           let atoms = mk_atoms 1 in
           let records =
             List.mapi
               (fun i (sp, err) ->
                 {
                   Variant.index = i;
                   asg = Transform.Assignment.original atoms;
                   meas =
                     {
                       Variant.status = Variant.Pass;
                       speedup = 0.1 +. sp;
                       rel_error = err;
                       hotspot_time = 1.0;
                       model_time = 1.0;
                       proc_stats = [];
                       casting_share = 0.0;
                       detail = "";
                     };
                 })
               pts
           in
           let front = Variant.frontier records in
           List.for_all
             (fun (a : Variant.record) ->
               List.for_all
                 (fun (b : Variant.record) ->
                   a == b
                   || not
                        (b.Variant.meas.Variant.speedup >= a.Variant.meas.Variant.speedup
                        && b.Variant.meas.Variant.rel_error <= a.Variant.meas.Variant.rel_error
                        && (b.Variant.meas.Variant.speedup > a.Variant.meas.Variant.speedup
                           || b.Variant.meas.Variant.rel_error < a.Variant.meas.Variant.rel_error)))
                 front)
             front));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"sort-then-sweep frontier matches the quadratic reference" ~count:200
         (* coarse grids force duplicate speedups and error ties *)
         QCheck.(small_list (triple (int_bound 4) (int_bound 4) (int_bound 3)))
         (fun pts ->
           let atoms = mk_atoms 1 in
           let records =
             List.mapi
               (fun i (sp, err, status) ->
                 {
                   Variant.index = i;
                   asg = Transform.Assignment.original atoms;
                   meas =
                     {
                       Variant.status =
                         (match status with
                         | 0 | 1 -> Variant.Pass
                         | 2 -> Variant.Fail
                         | _ -> Variant.Error);
                       speedup = 0.5 *. float_of_int sp;
                       rel_error = 0.25 *. float_of_int err;
                       hotspot_time = 1.0;
                       model_time = 1.0;
                       proc_stats = [];
                       casting_share = 0.0;
                       detail = "";
                     };
                 })
               pts
           in
           (* the pre-optimization O(n^2) scan, verbatim *)
           let reference records =
             let passing =
               List.filter (fun (r : Variant.record) -> r.Variant.meas.Variant.status = Variant.Pass) records
             in
             let dominated (r : Variant.record) =
               List.exists
                 (fun (r' : Variant.record) ->
                   r' != r
                   && r'.Variant.meas.Variant.speedup >= r.Variant.meas.Variant.speedup
                   && r'.Variant.meas.Variant.rel_error <= r.Variant.meas.Variant.rel_error
                   && (r'.Variant.meas.Variant.speedup > r.Variant.meas.Variant.speedup
                      || r'.Variant.meas.Variant.rel_error < r.Variant.meas.Variant.rel_error))
                 passing
             in
             List.filter (fun r -> not (dominated r)) passing
             |> List.sort (fun (a : Variant.record) (b : Variant.record) ->
                    compare a.Variant.meas.Variant.rel_error b.Variant.meas.Variant.rel_error)
           in
           List.map (fun (r : Variant.record) -> r.Variant.index) (Variant.frontier records)
           = List.map (fun (r : Variant.record) -> r.Variant.index) (reference records)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"one-fold summarize matches per-status filters" ~count:200
         QCheck.(small_list (pair (int_bound 3) (float_bound_exclusive 2.0)))
         (fun pts ->
           let atoms = mk_atoms 1 in
           let records =
             List.mapi
               (fun i (status, sp) ->
                 {
                   Variant.index = i;
                   asg = Transform.Assignment.original atoms;
                   meas =
                     {
                       Variant.status =
                         (match status with
                         | 0 -> Variant.Pass
                         | 1 -> Variant.Fail
                         | 2 -> Variant.Timeout
                         | _ -> Variant.Error);
                       speedup = sp;
                       rel_error = 0.0;
                       hotspot_time = 1.0;
                       model_time = 1.0;
                       proc_stats = [];
                       casting_share = 0.0;
                       detail = "";
                     };
                 })
               pts
           in
           let total = List.length records in
           let pct s =
             if total = 0 then 0.0
             else
               100.0
               *. float_of_int
                    (List.length
                       (List.filter (fun (r : Variant.record) -> r.Variant.meas.Variant.status = s) records))
               /. float_of_int total
           in
           let best =
             List.fold_left
               (fun acc (r : Variant.record) ->
                 if r.Variant.meas.Variant.status = Variant.Pass then
                   Float.max acc r.Variant.meas.Variant.speedup
                 else acc)
               0.0 records
           in
           let s = Variant.summarize records in
           s.Variant.total = total
           && s.Variant.pass_pct = pct Variant.Pass
           && s.Variant.fail_pct = pct Variant.Fail
           && s.Variant.timeout_pct = pct Variant.Timeout
           && s.Variant.error_pct = pct Variant.Error
           && s.Variant.best_speedup = best));
  ]

let random_walk_tests =
  [
    t "deterministic for a seed" (fun () ->
        let atoms = mk_atoms 8 in
        let go () =
          let trace = Trace.create () in
          List.map
            (fun (r : Variant.record) -> Transform.Assignment.signature r.Variant.asg)
            (Random_walk.search ~atoms ~trace ~evaluate:(oracle ~critical:[] atoms) ~samples:20
               ~seed:99 ())
        in
        Alcotest.(check (list string)) "same exploration" (go ()) (go ()));
    t "respects the trace budget" (fun () ->
        let atoms = mk_atoms 8 in
        let trace = Trace.create ~max_variants:5 () in
        let records =
          Random_walk.search ~atoms ~trace ~evaluate:(oracle ~critical:[] atoms) ~samples:100
            ~seed:7 ()
        in
        Alcotest.(check bool) "counted" true (List.length records <= 5));
  ]

let () =
  Alcotest.run "search"
    [
      ("delta debugging", delta_debug_tests);
      ("ddmin", ddmin_tests);
      ("hierarchical", hierarchical_tests);
      ("batched", batched_tests);
      ("brute force", brute_force_tests);
      ("trace", trace_tests);
      ("variants", variant_tests);
      ("random walk", random_walk_tests);
    ]
