(* Predictive-search tests: the error-amplification scorer, the
   evidence-driven rank engine, scheduler/resume determinism of the
   steered trajectories, the holdout split's scheduling invariance, and
   the CSV/journal prediction columns. *)

let t name f = Alcotest.test_case name `Quick f

let small_funarc =
  { Models.Registry.funarc with Models.Registry.source = Models.Funarc.source ~n:200 () }

let small_mpas =
  { Models.Registry.mpas with
    Models.Registry.source = Models.Mpas.source ~p:Models.Mpas.small () }

let with_predict mode config = { config with Core.Config.predict = mode }

let signatures (c : Core.Tuner.campaign) =
  List.map
    (fun (r : Search.Variant.record) ->
      ( r.Search.Variant.index,
        Transform.Assignment.signature r.Search.Variant.asg,
        Search.Variant.status_to_string r.Search.Variant.meas.Search.Variant.status ))
    c.Core.Tuner.records

let minimal_sig (c : Core.Tuner.campaign) =
  Option.map
    (fun m -> Transform.Assignment.signature m.Search.Delta_debug.minimal)
    c.Core.Tuner.minimal

(* ------------------------------------------------------------------ *)
(* Scorer                                                              *)

let scorer_tests =
  [
    t "scorer engages on funarc" (fun () ->
        let config = with_predict Core.Config.Predict_rank Core.Config.default in
        let p = Core.Tuner.prepare ~config small_funarc in
        match p.Core.Tuner.scorer with
        | None -> Alcotest.fail "the mirror analysis declined funarc"
        | Some sc ->
          Alcotest.(check (float 0.0))
            "nothing lowered, nothing bounded" 0.0
            (Sensitivity.Score.static_bound sc
               (Transform.Assignment.original p.Core.Tuner.atoms));
          List.iter
            (fun a ->
              match Sensitivity.Score.atom_bound sc a with
              | None -> Alcotest.fail "demotable atom without a bound"
              | Some b ->
                Alcotest.(check bool) "bound is non-negative" true (b >= 0.0 || b <> b))
            p.Core.Tuner.atoms);
    t "scorer is off when predict is off" (fun () ->
        let p = Core.Tuner.prepare small_funarc in
        Alcotest.(check bool) "no scorer" true (p.Core.Tuner.scorer = None));
  ]

(* ------------------------------------------------------------------ *)
(* Bit-identity golden: the mirror's full output and every static bound *)

(* Digest of everything [Absint.analyze] returns: status, step count,
   poison set, and each sample's key, value bits and per-atom error bits
   in ascending atom order. *)
let analysis_digest (r : Sensitivity.Absint.result option) =
  let b = Buffer.create 4096 in
  let bits x = Buffer.add_string b (Printf.sprintf "%Lx;" (Int64.bits_of_float x)) in
  (match r with
  | None -> Buffer.add_string b "none"
  | Some r ->
    Buffer.add_string b
      (match r.Sensitivity.Absint.r_status with
      | Sensitivity.Absint.Finished -> "finished"
      | Sensitivity.Absint.Stopped m -> "stopped:" ^ m
      | Sensitivity.Absint.Runtime_error m -> "error:" ^ m);
    Buffer.add_string b (Printf.sprintf "|%d|" r.Sensitivity.Absint.r_steps);
    Array.iter (fun p -> Buffer.add_char b (if p then '1' else '0')) r.r_poisoned;
    List.iter
      (fun (s : Sensitivity.Absint.sample) ->
        Buffer.add_string b ("\n" ^ s.s_key ^ "=");
        bits s.s_value;
        Sensitivity.Absint.IMap.iter
          (fun a e ->
            Buffer.add_string b (string_of_int a ^ ":");
            bits e)
          s.s_err)
      r.r_samples);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Digest of every demotable atom's [Score.atom_bound] under predict rank. *)
let bounds_digest (p : Core.Tuner.prepared) =
  let sc =
    match p.Core.Tuner.scorer with
    | Some sc -> sc
    | None -> Alcotest.fail "predict rank built no scorer"
  in
  let b = Buffer.create 1024 in
  List.iter
    (fun (a : Transform.Assignment.atom) ->
      Buffer.add_string b (a.Transform.Assignment.a_name ^ "=");
      Buffer.add_string b
        (match Sensitivity.Score.atom_bound sc a with
        | Some x -> Printf.sprintf "%Lx;" (Int64.bits_of_float x)
        | None -> "none;"))
    p.Core.Tuner.atoms;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* (model, analysis digest, bounds digest), recorded on the IMap-based
   error algebra; any change to the error kernels must leave them as is *)
let goldens =
  [
    ("mpas", "296c83f7931ad181f9bc4a26320672f1",
     "2fed9db58cb7f7e35b7bfa3cd4baaad0");
    ("adcirc", "364d8f9400da022f75a5f17a8236daf5",
     "dac950afbdc4404870e6c3855a97a13e");
    ("mom6", "dfabde7c9f2d1e006355cafb37a88655",
     "74ac204c42af38e07b2099bd3864ac9a");
    ("funarc", "1017035571920f43ed2cb8a983d95341",
     "fbec704f174c9c57af4a4ce0132188af");
    ("lulesh", "bf058ec822d3f9552d1122e5e48be721",
     "4a06d020a169d0491010b0f8a23fa83f");
    ("mpas_joint", "fb19682239c1a0a43155dc5eb46b13b5",
     "5d93fee0ce1288f12b21204868b38822");
  ]

let golden_tests =
  List.map
    (fun (name, want_analysis, want_bounds) ->
      Alcotest.test_case ("bit-identical mirror output on " ^ name) `Quick (fun () ->
          let config = with_predict Core.Config.Predict_rank Core.Config.default in
          let p = Core.Tuner.prepare ~config (Models.Registry.find name) in
          let got_bounds = bounds_digest p in
          let got_analysis =
            analysis_digest
              (Sensitivity.Absint.analyze ~atoms:p.Core.Tuner.atoms p.Core.Tuner.st)
          in
          Alcotest.(check string) "analysis digest" want_analysis got_analysis;
          Alcotest.(check string) "bounds digest" want_bounds got_bounds))
    goldens

(* ------------------------------------------------------------------ *)
(* Output goldens: every byte an off or rank campaign writes           *)

(* md5 of the journal file, summary JSON and variants CSV of a journaled
   campaign, recorded while the prune mode still existed; removing that
   mode must not change one byte of an off or rank campaign's outputs *)
let output_digests run =
  Harness.with_dir (fun dir ->
      let c = run dir in
      let md5 s = Digest.to_hex (Digest.string s) in
      ( md5 (Harness.slurp (Persist.Journal.file ~dir)),
        md5 (Core.Export.summary_json c),
        md5 (Core.Export.variants_csv c) ))

let check_outputs want got =
  Alcotest.(check (triple string string string)) "journal, summary, csv md5" want got

let output_golden_tests =
  [
    t "delta debug at predict off writes the recorded bytes" (fun () ->
        check_outputs
          ("9d61c6a58d39cee2783c680063a2fdf0",
           "f15af929694e5a65293cec48061c8624",
           "24cc6e0b36602dd43e1ad5cf85523a31")
          (output_digests (fun dir ->
               Core.Tuner.run_delta_debug ~workers:0 ~journal:dir small_funarc)));
    t "delta debug at predict rank writes the recorded bytes" (fun () ->
        let config = with_predict Core.Config.Predict_rank Core.Config.default in
        check_outputs
          ("c03251a18a965c77af9074f3b61605f5",
           "00322de9bfc51316f49f7b6a1a36c453",
           "bbe2e4d204dd4f49607f1b4846c84f4c")
          (output_digests (fun dir ->
               Core.Tuner.run_delta_debug ~config ~workers:0 ~journal:dir small_funarc)));
    t "brute force at predict rank writes the recorded bytes" (fun () ->
        let config = with_predict Core.Config.Predict_rank Core.Config.default in
        check_outputs
          ("cc3f14869b7c443f70f9d0dc27b74966",
           "f485bb1800ac6a1198ad69f4d038ddbf",
           "ebac60da4b7dac7b16300d240555b1a6")
          (output_digests (fun dir ->
               Core.Tuner.run_brute_force ~config ~journal:dir small_funarc)));
    t "the rank config digest is the recorded one" (fun () ->
        Alcotest.(check string) "digest" "036ebc66c3af89fca17a177cde1826a1"
          (Core.Config.digest
             { Core.Config.default with Core.Config.predict = Core.Config.Predict_rank }));
  ]

(* ------------------------------------------------------------------ *)
(* Error-vector kernels against a [float IMap.t] reference model        *)

(* The reference is the map algebra the flat kernels replace: unions by
   [IMap.merge] with missing entries read as 0.0, [put] dropping 0.0. *)
module Ref = struct
  module IMap = Sensitivity.Absint.IMap

  let get a m = Option.value ~default:0.0 (IMap.find_opt a m)
  let put a e m = if e = 0.0 then m else IMap.add a e m

  let merge f ex ey =
    IMap.merge
      (fun _ a b -> Some (f (Option.value ~default:0.0 a) (Option.value ~default:0.0 b)))
      ex ey

  let add = merge ( +. )
  let max = merge Float.max
  let mul x y = merge (fun ex ey -> (Float.abs y *. ex) +. (Float.abs x *. ey) +. (ex *. ey))

  let div poisoned x y ex ey =
    let merged =
      merge
        (fun ex ey ->
          let ay = Float.abs y in
          let denom = ay -. ey in
          let num = (ay *. ex) +. (Float.abs x *. ey) +. (ex *. ey) in
          if denom <= 0.0 then num /. Float.max (ay *. ay) 1e-300 else num /. (ay *. denom))
        ex ey
    in
    IMap.iter
      (fun a ey_a -> if ey_a > 0.0 && Float.abs y -. ey_a <= 0.0 then poisoned.(a) <- true)
      ey;
    merged

  let compare_guard poisoned x y ex ey =
    let gap = Float.abs (x -. y) in
    let check a e = if e > 0.0 && e >= gap then poisoned.(a) <- true in
    IMap.iter (fun a e -> check a (e +. get a ey)) ex;
    IMap.iter (fun a e -> check a (e +. get a ex)) ey

  let eps32 = 1.1920928955078125e-07

  let round_entry poisoned ~eps ~cap a v e =
    let sub = if eps = eps32 then 0x1p-149 else 0x1p-1074 in
    let m = Float.abs v +. e in
    let round = if m = 0.0 then 0.0 else Float.max (2.0 *. eps *. m) sub in
    let e' = (e *. (1.0 +. (2.0 *. eps))) +. round in
    if (not (Float.is_finite e')) || Float.abs v +. e' >= cap then begin
      poisoned.(a) <- true;
      if Float.is_finite e' then e' else Float.abs v +. cap
    end
    else e'

  let f32_cap = Runtime.Fp32.max_finite

  let round poisoned ~narrow v err kt =
    if narrow then IMap.mapi (fun a e -> round_entry poisoned ~eps:eps32 ~cap:f32_cap a v e) err
    else
      let err =
        IMap.mapi (fun a e -> round_entry poisoned ~eps:epsilon_float ~cap:max_float a v e) err
      in
      List.fold_left
        (fun err a -> put a (round_entry poisoned ~eps:eps32 ~cap:f32_cap a v (get a err)) err)
        err kt
end

let n_keys = 12

(* sparse vectors over a small key range, with explicit 0.0 entries,
   magnitudes that reach both overflow caps (so poisoning is exercised),
   and the -0.0 and NaN corners of Float.max *)
let gen_entry =
  QCheck.Gen.(
    oneof
      [
        return 0.0;
        return (-0.0);
        return nan;
        return 0x1p-1074;
        float_bound_inclusive 1.0;
        float_range 1.0 1e6;
        return 3.0e38;
        return 1e308;
        return infinity;
      ])

let gen_vec = QCheck.Gen.(list_size (0 -- n_keys) (pair (0 -- (n_keys - 1)) gen_entry))

let gen_scalar =
  QCheck.Gen.(
    oneof
      [
        return 0.0;
        float_range (-2.0) 2.0;
        float_range (-1e6) 1e6;
        return 3.4e38;
        return (-1e308);
      ])

let gen_taint =
  QCheck.Gen.(map (List.sort_uniq compare) (list_size (0 -- 4) (0 -- (n_keys - 1))))

let print_case (x, y, ea, eb, kt) =
  let l v = String.concat ";" (List.map (fun (a, e) -> Printf.sprintf "%d:%h" a e) v) in
  Printf.sprintf "x=%h y=%h ex=[%s] ey=[%s] kt=[%s]" x y (l ea) (l eb)
    (String.concat ";" (List.map string_of_int kt))

let arb_case =
  QCheck.make ~print:print_case
    QCheck.Gen.(
      map
        (fun ((x, y), (ea, eb), kt) -> (x, y, ea, eb, kt))
        (triple (pair gen_scalar gen_scalar) (pair gen_vec gen_vec) gen_taint))

let ref_of l = List.fold_left (fun m (a, e) -> Ref.IMap.add a e m) Ref.IMap.empty l

(* same keys, same value bits, same poison flags *)
let agree (got, got_p) (want, want_p) =
  let bits l = List.map (fun (a, e) -> (a, Int64.bits_of_float e)) l in
  bits (Sensitivity.Errvec.to_list got) = bits (Ref.IMap.bindings want) && got_p = want_p

let kernel_prop name f g =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count:500 arb_case (fun (x, y, ea, eb, kt) ->
         let pg = Array.make n_keys false and pw = Array.make n_keys false in
         let got =
           f pg x y (Sensitivity.Errvec.of_list ea) (Sensitivity.Errvec.of_list eb) kt
         in
         let want = g pw x y (ref_of ea) (ref_of eb) kt in
         agree (got, pg) (want, pw)))

let errvec_tests =
  let module E = Sensitivity.Errvec in
  [
    kernel_prop "add" (fun _ _ _ a b _ -> E.add a b) (fun _ _ _ a b _ -> Ref.add a b);
    kernel_prop "max" (fun _ _ _ a b _ -> E.max a b) (fun _ _ _ a b _ -> Ref.max a b);
    kernel_prop "mul" (fun _ x y a b _ -> E.mul x y a b) (fun _ x y a b _ -> Ref.mul x y a b);
    kernel_prop "div" (fun p x y a b _ -> E.div p x y a b) (fun p x y a b _ -> Ref.div p x y a b);
    kernel_prop "generic union"
      (fun _ _ y a b _ -> E.union (fun ex ey -> if ey > 0.0 then ex +. ey +. y else ex) a b)
      (fun _ _ y a b _ -> Ref.merge (fun ex ey -> if ey > 0.0 then ex +. ey +. y else ex) a b);
    kernel_prop "set then get"
      (fun _ x _ a _ kt ->
        let v = List.fold_left (fun v k -> E.set k x v) a kt in
        List.fold_left (fun v k -> E.set ((k + 1) mod n_keys) (E.get k v) v) v kt)
      (fun _ x _ a _ kt ->
        let m = List.fold_left (fun m k -> Ref.put k x m) a kt in
        List.fold_left (fun m k -> Ref.put ((k + 1) mod n_keys) (Ref.get k m) m) m kt);
    kernel_prop "round at f32 (taint ignored)"
      (fun p v _ a _ kt -> E.round p ~narrow:true v a (Array.of_list kt))
      (fun p v _ a _ kt -> Ref.round p ~narrow:true v a kt);
    kernel_prop "round at f64 with kind taint"
      (fun p v _ a _ kt -> E.round p ~narrow:false v a (Array.of_list kt))
      (fun p v _ a _ kt -> Ref.round p ~narrow:false v a kt);
    kernel_prop "round one atom at f32"
      (fun p v _ a _ kt -> List.fold_left (fun a k -> E.round_at p k v a) a kt)
      (fun p v _ a _ kt ->
        List.fold_left
          (fun m k ->
            Ref.put k (Ref.round_entry p ~eps:Ref.eps32 ~cap:Ref.f32_cap k v (Ref.get k m)) m)
          a kt);
    kernel_prop "fused add then round at f64 with taint"
      (fun p x y a b kt -> E.op_round E.Add p ~x ~y ~narrow:false (x +. y) a b (Array.of_list kt))
      (fun p x y a b kt -> Ref.round p ~narrow:false (x +. y) (Ref.add a b) kt);
    kernel_prop "fused mul then round at f64 with taint"
      (fun p x y a b kt -> E.op_round E.Mul p ~x ~y ~narrow:false (x *. y) a b (Array.of_list kt))
      (fun p x y a b kt -> Ref.round p ~narrow:false (x *. y) (Ref.mul x y a b) kt);
    kernel_prop "fused div then round at f64 with taint"
      (fun p x y a b kt -> E.op_round E.Div p ~x ~y ~narrow:false (x /. y) a b (Array.of_list kt))
      (fun p x y a b kt -> Ref.round p ~narrow:false (x /. y) (Ref.div p x y a b) kt);
    kernel_prop "fused div then round at f32"
      (fun p x y a b kt -> E.op_round E.Div p ~x ~y ~narrow:true (x /. y) a b (Array.of_list kt))
      (fun p x y a b kt -> Ref.round p ~narrow:true (x /. y) (Ref.div p x y a b) kt);
    kernel_prop "fused max then round at f64 with taint"
      (fun p x y a b kt -> E.op_round E.Max p ~x ~y ~narrow:false x a b (Array.of_list kt))
      (fun p x _ a b kt -> Ref.round p ~narrow:false x (Ref.max a b) kt);
    kernel_prop "compare guard"
      (fun p x y a b _ ->
        E.compare_guard p ~gap:(Float.abs (x -. y)) a b;
        E.empty)
      (fun p x y a b _ ->
        Ref.compare_guard p x y a b;
        Ref.IMap.empty);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"taint sets union as sorted sets" ~count:300
         QCheck.(pair (make gen_taint) (make gen_taint))
         (fun (a, b) ->
           let u = E.atoms_union (Array.of_list a) (Array.of_list b) in
           Array.to_list u = List.sort_uniq compare (a @ b)
           && E.atoms_add 3 (Array.of_list a) = Array.of_list (List.sort_uniq compare (3 :: a))));
  ]

(* ------------------------------------------------------------------ *)
(* The evidence engine                                                 *)

let rank_engine_tests =
  let mk () =
    let p = Core.Tuner.prepare small_funarc in
    let rk =
      Sensitivity.Rank.create ~st:p.Core.Tuner.st ~atoms:p.Core.Tuner.atoms ~safe:[]
        ~perf_floor:p.Core.Tuner.perf_floor
    in
    (p.Core.Tuner.atoms, rk)
  in
  let lower atoms sel =
    Transform.Assignment.of_lowered atoms
      ~lowered:(List.filteri (fun i _ -> List.mem i sel) atoms)
  in
  let efail = { Sensitivity.Rank.err_ok = false; perf_ok = true; speedup = 1.1 } in
  let pass = { Sensitivity.Rank.err_ok = true; perf_ok = true; speedup = 1.1 } in
  [
    t "no evidence, no demotion" (fun () ->
        let atoms, rk = mk () in
        Sensitivity.Rank.round rk;
        Alcotest.(check bool) "kept" false (Sensitivity.Rank.demote rk (lower atoms [ 0; 1 ])));
    t "an error failure dominates its supersets" (fun () ->
        let atoms, rk = mk () in
        Sensitivity.Rank.observe rk (lower atoms [ 0 ]) efail;
        Sensitivity.Rank.round rk;
        Alcotest.(check bool) "superset demoted" true
          (Sensitivity.Rank.demote rk (lower atoms [ 0; 1 ]));
        Alcotest.(check bool) "disjoint kept" false
          (Sensitivity.Rank.demote rk (lower atoms [ 1; 2 ])));
    t "pass evidence shrinks the culprit core" (fun () ->
        let atoms, rk = mk () in
        Sensitivity.Rank.observe rk (lower atoms [ 1 ]) pass;
        Sensitivity.Rank.observe rk (lower atoms [ 0; 1 ]) efail;
        Sensitivity.Rank.round rk;
        (* atom 1 passed alone, so the {0,1} failure's core is {0} *)
        Alcotest.(check bool) "core superset demoted" true
          (Sensitivity.Rank.demote rk (lower atoms [ 0; 2 ]));
        Alcotest.(check bool) "the innocent atom alone is kept" false
          (Sensitivity.Rank.demote rk (lower atoms [ 1 ])));
    t "an emptied core falls back to full-set dominance" (fun () ->
        let atoms, rk = mk () in
        Sensitivity.Rank.observe rk (lower atoms [ 0; 1 ]) pass;
        (* the OR-model is now inconsistent for a failure inside {0}:
           subtraction would empty the core and predict everything fails *)
        Sensitivity.Rank.observe rk (lower atoms [ 0 ]) efail;
        Sensitivity.Rank.round rk;
        Alcotest.(check bool) "superset of the full set demoted" true
          (Sensitivity.Rank.demote rk (lower atoms [ 0; 2 ]));
        Alcotest.(check bool) "unrelated candidate kept" false
          (Sensitivity.Rank.demote rk (lower atoms [ 2 ])));
    t "observe deduplicates by signature" (fun () ->
        let atoms, rk = mk () in
        let asg = lower atoms [ 0 ] in
        Sensitivity.Rank.observe rk asg pass;
        (* a replayed contradictory outcome for the same signature is
           ignored: committed evidence is immutable *)
        Sensitivity.Rank.observe rk asg efail;
        Sensitivity.Rank.round rk;
        Alcotest.(check bool) "still kept" false
          (Sensitivity.Rank.demote rk (lower atoms [ 0; 1 ])));
    t "features are finite and match the predictor's names" (fun () ->
        let p = Core.Tuner.prepare small_funarc in
        let f =
          Sensitivity.Rank.features ~st:p.Core.Tuner.st
            (Transform.Assignment.uniform p.Core.Tuner.atoms Fortran.Ast.K4)
        in
        Alcotest.(check int) "arity" (List.length Sensitivity.Rank.feature_names)
          (Array.length f);
        Array.iter (fun v -> Alcotest.(check bool) "finite" true (Float.is_finite v)) f);
  ]

(* ------------------------------------------------------------------ *)
(* Steered campaigns: identity of the minimal set, determinism         *)

let campaign_tests =
  [
    t "rank reaches the same minimal set as off" (fun () ->
        let off = Core.Tuner.run_delta_debug small_funarc in
        let rank =
          Core.Tuner.run_delta_debug
            ~config:(with_predict Core.Config.Predict_rank Core.Config.default)
            small_funarc
        in
        Alcotest.(check bool) "identical minimal" true (minimal_sig off = minimal_sig rank));
    t "rank trajectory is identical across workers and shards" (fun () ->
        let config = with_predict Core.Config.Predict_rank Core.Config.default in
        let seq = Core.Tuner.run_delta_debug ~config ~workers:0 small_mpas in
        let pooled = Core.Tuner.run_delta_debug ~config ~workers:4 small_mpas in
        let sharded = Core.Tuner.run_delta_debug ~config ~shards:2 ~workers:2 small_mpas in
        Alcotest.(check bool) "workers=4 record-identical" true
          (signatures seq = signatures pooled);
        Alcotest.(check bool) "shards=2 record-identical" true
          (signatures seq = signatures sharded);
        Alcotest.(check bool) "same minimal" true
          (minimal_sig seq = minimal_sig pooled && minimal_sig seq = minimal_sig sharded));
    t "a resumed rank campaign replays without re-evaluating" (fun () ->
        let config = with_predict Core.Config.Predict_rank Core.Config.default in
        let dir = Filename.temp_file "sens_resume" "" in
        Sys.remove dir;
        Unix.mkdir dir 0o755;
        Fun.protect
          ~finally:(fun () -> ignore (Sys.command ("rm -rf " ^ Filename.quote dir)))
          (fun () ->
            let full =
              Core.Tuner.run_delta_debug ~config ~workers:0 ~journal:dir small_funarc
            in
            let resumed =
              Core.Tuner.resume ~config ~workers:0 ~model:small_funarc ~journal:dir ()
            in
            Alcotest.(check int) "whole prefix preloaded"
              (List.length full.Core.Tuner.records)
              resumed.Core.Tuner.preloaded;
            Alcotest.(check int) "zero fresh evaluations" 0
              resumed.Core.Tuner.trace_stats.Search.Trace.misses;
            Alcotest.(check bool) "record-identical" true
              (signatures full = signatures resumed);
            Alcotest.(check bool) "same minimal" true
              (minimal_sig full = minimal_sig resumed)));
    t "an old prune journal loads but refuses to resume" (fun () ->
        (* recorded by [prose tune funarc --workers 0] in the removed prune
           mode at a margin of 1e5: 33 records, 7 of them [static: bound]
           losses that never ran *)
        Harness.with_dir (fun dir ->
            Unix.mkdir dir 0o755;
            List.iter
              (fun f ->
                let oc = open_out_bin (Filename.concat dir f) in
                output_string oc (Harness.slurp (Filename.concat "corpus/prune_journal" f));
                close_out oc)
              [ "journal.jsonl"; "snapshot.json" ];
            let loaded = Persist.Journal.load ~dir in
            let entries = loaded.Persist.Journal.l_entries in
            Alcotest.(check int) "every record read" 33 (List.length entries);
            Alcotest.(check bool) "not torn" false loaded.Persist.Journal.l_torn;
            Alcotest.(check int) "static-bound losses read" 7
              (List.length
                 (List.filter
                    (fun (e : Persist.Journal.entry) ->
                      String.starts_with ~prefix:"static: bound"
                        e.Persist.Journal.e_meas.Search.Variant.detail)
                    entries));
            List.iter
              (fun predict ->
                match
                  Core.Tuner.resume
                    ~config:{ Core.Config.default with Core.Config.predict }
                    ~workers:0 ~journal:dir ()
                with
                | _ -> Alcotest.fail "an old prune journal resumed"
                | exception Core.Tuner.Resume_mismatch _ -> ())
              [ Core.Config.Predict_off; Core.Config.Predict_rank ]));
  ]

(* ------------------------------------------------------------------ *)
(* Holdout split: committed order, not arrival order                   *)

let holdout_tests =
  [
    t "holdout split is invariant under record arrival order" (fun () ->
        let c = Core.Tuner.run_brute_force small_funarc in
        let p = c.Core.Tuner.prepared in
        let bits = Int64.bits_of_float in
        let report records =
          match Core.Predictor.holdout_report p records with
          | Some (tr, te, n) -> (bits tr, bits te, n)
          | None -> Alcotest.fail "fit failed"
        in
        (* a sharded run lists the same committed records in a different
           arrival order; the split must not notice *)
        Alcotest.(check bool) "reversed arrival, bit-identical report" true
          (report c.Core.Tuner.records = report (List.rev c.Core.Tuner.records));
        let shuffled =
          let tagged =
            List.mapi (fun i r -> ((i * 7919) mod 101, i, r)) c.Core.Tuner.records
          in
          List.map (fun (_, _, r) -> r) (List.sort compare tagged)
        in
        Alcotest.(check bool) "shuffled arrival, bit-identical report" true
          (report c.Core.Tuner.records = report shuffled));
  ]

(* ------------------------------------------------------------------ *)
(* Export columns and journal fields                                   *)

(* minimal RFC-4180 reader: split one CSV line into fields, honouring
   quoted fields and doubled quotes *)
let split_csv_line line =
  let buf = Buffer.create 16 in
  let fields = ref [] in
  let n = String.length line in
  let rec go i in_quotes =
    if i >= n then fields := Buffer.contents buf :: !fields
    else
      match line.[i] with
      | '"' when in_quotes ->
        if i + 1 < n && line.[i + 1] = '"' then begin
          Buffer.add_char buf '"';
          go (i + 2) true
        end
        else go (i + 1) false
      | '"' -> go (i + 1) true
      | ',' when not in_quotes ->
        fields := Buffer.contents buf :: !fields;
        Buffer.clear buf;
        go (i + 1) false
      | c ->
        Buffer.add_char buf c;
        go (i + 1) in_quotes
  in
  go 0 false;
  List.rev !fields

let export_tests =
  [
    t "variants CSV carries the prediction columns" (fun () ->
        let config = with_predict Core.Config.Predict_rank Core.Config.default in
        let c = Core.Tuner.run_delta_debug ~config small_funarc in
        let lines =
          List.filter (fun l -> l <> "")
            (String.split_on_char '\n' (Core.Export.variants_csv c))
        in
        let header = split_csv_line (List.hd lines) in
        Alcotest.(check bool) "predicted_score column" true
          (List.mem "predicted_score" header);
        Alcotest.(check bool) "static_bound column" true (List.mem "static_bound" header);
        let score_at = ref (-1) and bound_at = ref (-1) in
        List.iteri
          (fun i h ->
            if h = "predicted_score" then score_at := i;
            if h = "static_bound" then bound_at := i)
          header;
        List.iter
          (fun row ->
            let cells = split_csv_line row in
            Alcotest.(check int) "full width" (List.length header) (List.length cells);
            (* a predicted campaign fills both cells on every row *)
            Alcotest.(check bool) "score cell filled" true
              (List.nth cells !score_at <> "");
            Alcotest.(check bool) "bound cell filled" true
              (List.nth cells !bound_at <> ""))
          (List.tl lines));
    t "unpredicted records export empty prediction cells" (fun () ->
        let p = Core.Tuner.prepare small_funarc in
        let asg = Transform.Assignment.uniform p.Core.Tuner.atoms Fortran.Ast.K4 in
        let r = { Search.Variant.index = 1; asg; meas = Core.Tuner.evaluate p asg } in
        let csv = Core.Export.variants_csv_records [ r ] in
        let row = split_csv_line (List.nth (String.split_on_char '\n' csv) 1) in
        let header = split_csv_line (List.hd (String.split_on_char '\n' csv)) in
        let cell name =
          let at = ref (-1) in
          List.iteri (fun i h -> if h = name then at := i) header;
          List.nth row !at
        in
        Alcotest.(check string) "empty score" "" (cell "predicted_score");
        Alcotest.(check string) "empty bound" "" (cell "static_bound"));
    t "RFC-4180 fields round-trip through the splitter" (fun () ->
        List.iter
          (fun s ->
            let line =
              String.concat "," [ Core.Export.csv_field s; "x"; Core.Export.csv_field s ]
            in
            Alcotest.(check (list string)) "round trip" [ s; "x"; s ] (split_csv_line line))
          [ "plain"; "with,comma"; "say \"hi\""; "line\nbreak"; "tail\r"; "" ]);
    t "journal score fields round-trip and stay absent when off" (fun () ->
        let config = with_predict Core.Config.Predict_rank Core.Config.default in
        let dir = Filename.temp_file "sens_journal" "" in
        Sys.remove dir;
        Unix.mkdir dir 0o755;
        Fun.protect
          ~finally:(fun () -> ignore (Sys.command ("rm -rf " ^ Filename.quote dir)))
          (fun () ->
            let c = Core.Tuner.run_delta_debug ~config ~workers:0 ~journal:dir small_funarc in
            let loaded = Persist.Journal.load ~dir in
            Alcotest.(check int) "every record journaled"
              (List.length c.Core.Tuner.records)
              (List.length loaded.Persist.Journal.l_entries);
            List.iter
              (fun (e : Persist.Journal.entry) ->
                Alcotest.(check bool) "score present" true (e.Persist.Journal.e_score <> None);
                Alcotest.(check bool) "bound present" true (e.Persist.Journal.e_bound <> None))
              loaded.Persist.Journal.l_entries;
            (* an unpredicted journal of the same model writes no score
               fields at all — pre-PR-9 journals parse the same way *)
            let dir_off = dir ^ "_off" in
            Unix.mkdir dir_off 0o755;
            Fun.protect
              ~finally:(fun () -> ignore (Sys.command ("rm -rf " ^ Filename.quote dir_off)))
              (fun () ->
                ignore (Core.Tuner.run_delta_debug ~workers:0 ~journal:dir_off small_funarc);
                let ic = open_in (Persist.Journal.file ~dir:dir_off) in
                let contents =
                  Fun.protect
                    ~finally:(fun () -> close_in ic)
                    (fun () -> really_input_string ic (in_channel_length ic))
                in
                Alcotest.(check bool) "no score field on disk" false
                  (let rec contains i =
                     i + 7 <= String.length contents
                     && (String.sub contents i 7 = "\"score\"" || contains (i + 1))
                   in
                   contains 0);
                let off = Persist.Journal.load ~dir:dir_off in
                List.iter
                  (fun (e : Persist.Journal.entry) ->
                    Alcotest.(check bool) "parses as None" true
                      (e.Persist.Journal.e_score = None && e.Persist.Journal.e_bound = None))
                  off.Persist.Journal.l_entries)));
  ]

let () =
  Alcotest.run "sensitivity"
    [
      ("scorer", scorer_tests);
      ("golden", golden_tests);
      ("digests", output_golden_tests);
      ("errvec", errvec_tests);
      ("rank engine", rank_engine_tests);
      ("campaigns", campaign_tests);
      ("holdout", holdout_tests);
      ("export", export_tests);
    ]
