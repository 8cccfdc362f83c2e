(* Lower tests: the slot-resolved IR, run through the closure-compiled
   backend, must be observably indistinguishable from the string-keyed
   tree-walker — same status, cost, timers, records, printed lines and
   breakdown, bit for bit — on baselines and on transformed variants,
   with and without the per-procedure caches, sequentially and under the
   worker pool. *)

open Fortran

let t name f = Alcotest.test_case name `Quick f
let ts name f = Alcotest.test_case name `Slow f

let machine = Runtime.Machine.default

let build src =
  let st = Symtab.build (Parser.parse src) in
  Typecheck.check_program st;
  st

let interp ?budget st = Runtime.Interp.run ~machine ?budget st

(* the tuner's execution path: lower, compile, run *)
let compiled_run ?cache ?ccache ?budget ?wrapper_owner st =
  Runtime.Compile.run ?budget
    (Runtime.Compile.compile ?cache:ccache (Runtime.Lower.lower ?cache ?wrapper_owner ~machine st))

let pp_outcome ppf (o : Runtime.Interp.outcome) =
  Format.fprintf ppf "%a cost=%.17g records=%d printed=%d timers=%d"
    Runtime.Interp.pp_status o.status o.cost (List.length o.records)
    (List.length o.printed) (List.length o.timers)

let outcome_t =
  Alcotest.testable pp_outcome (fun a b -> compare a b = 0)

let check_equiv msg ref_out fast_out = Alcotest.check outcome_t msg ref_out fast_out

let first out key =
  match Runtime.Interp.series out key with
  | v :: _ -> v
  | [] -> Alcotest.failf "no '%s' record" key

(* ------------------------------------------------------------------ *)
(* Slot resolution units: shadowing and module globals                 *)

let slot_tests =
  [
    t "dummy shadows a module global of the same name" (fun () ->
        let src =
          "module m\n implicit none\n real(kind=8) :: x = 100.0d0\ncontains\n\
          \ subroutine set(x)\n  real(kind=8) :: x\n  x = x + 1.0d0\n end subroutine set\n\
           end module m\n\
           program p\n use m\n implicit none\n real(kind=8) :: y\n y = 5.0d0\n call set(y)\n\
          \ print *, 'y', y\n print *, 'g', x\nend program p\n"
        in
        let st = build src in
        let out = compiled_run st in
        (* the dummy [x] resolved to the callee's local slot, not the
           module global's slot *)
        Alcotest.(check (float 0.0)) "dummy updated" 6.0 (first out "y");
        Alcotest.(check (float 0.0)) "global untouched" 100.0 (first out "g");
        check_equiv "interp agrees" (interp st) out);
    t "local shadows a module global inside one procedure only" (fun () ->
        let src =
          "module m\n implicit none\n real(kind=8) :: g = 2.0d0\ncontains\n\
          \ function local_g() result(r)\n  real(kind=8) :: g, r\n  g = 40.0d0\n  r = g\n\
          \ end function local_g\n\
          \ function global_g() result(r)\n  real(kind=8) :: r\n  r = g\n end function global_g\n\
           end module m\n\
           program p\n use m\n implicit none\n print *, 'a', local_g()\n\
          \ print *, 'b', global_g()\n print *, 'c', g\nend program p\n"
        in
        let st = build src in
        let out = compiled_run st in
        Alcotest.(check (float 0.0)) "local slot" 40.0 (first out "a");
        Alcotest.(check (float 0.0)) "global slot" 2.0 (first out "b");
        Alcotest.(check (float 0.0)) "global unchanged" 2.0 (first out "c");
        check_equiv "interp agrees" (interp st) out);
    t "module globals across two modules get distinct slots" (fun () ->
        let src =
          "module a\n implicit none\n real(kind=8) :: v = 1.0d0\nend module a\n\
           module b\n implicit none\n real(kind=4) :: w = 2.0\nend module b\n\
           program p\n use a\n use b\n implicit none\n v = v + 10.0d0\n w = w + 1.0\n\
          \ print *, 'v', v\n print *, 'w', w\nend program p\n"
        in
        let st = build src in
        let out = compiled_run st in
        Alcotest.(check (float 0.0)) "a::v" 11.0 (first out "v");
        Alcotest.(check (float 0.0)) "b::w" 3.0 (first out "w");
        check_equiv "interp agrees" (interp st) out);
    t "module array global is slot-addressed and shared" (fun () ->
        let src =
          "module m\n implicit none\n real(kind=8), dimension(4) :: buf\ncontains\n\
          \ subroutine store(i, v)\n  integer :: i\n  real(kind=8) :: v\n  buf(i) = v\n\
          \ end subroutine store\nend module m\n\
           program p\n use m\n implicit none\n call store(3, 9.5d0)\n\
          \ print *, 'v', buf(3)\nend program p\n"
        in
        let st = build src in
        let out = compiled_run st in
        Alcotest.(check (float 0.0)) "shared storage" 9.5 (first out "v");
        check_equiv "interp agrees" (interp st) out);
    t "out-of-scope reference to a callee local still traps" (fun () ->
        (* an array extent naming an undeclared variable must trap with
           the same message as the tree-walker *)
        let src =
          "module m\n implicit none\ncontains\n subroutine s()\n  real(kind=8) :: x\n\
          \  x = 1.0d0\n end subroutine s\nend module m\n\
           program p\n use m\n implicit none\n call s\n print *, 'v', x\nend program p\n"
        in
        let st = Symtab.build (Parser.parse src) in
        check_equiv "same trap" (interp st) (compiled_run st));
  ]

(* ------------------------------------------------------------------ *)
(* Equivalence property on random assignments                          *)

let model_fixture name =
  match name with
  | "funarc" -> Models.Registry.funarc
  | "mpas" ->
    { Models.Registry.mpas with
      Models.Registry.source = Models.Mpas.source ~p:Models.Mpas.small () }
  | _ -> assert false

let atoms_of (model : Models.Registry.t) st =
  Transform.Assignment.atoms_of_target st ~module_:model.Models.Registry.target_module
    ~procs:(Some model.Models.Registry.target_procs)
    ~exclude:model.Models.Registry.exclude_atoms

(* the wrapped variant of [st] that lowers the atoms [bits] selects *)
let variant_of_bits st atoms bits =
  let lowered = List.filteri (fun i _ -> (bits lsr (i mod 62)) land 1 = 1) atoms in
  Transform.Wrappers.insert
    (Transform.Rewrite.apply st (Transform.Assignment.of_lowered atoms ~lowered))

let equiv_on_assignment (model : Models.Registry.t) cache ccache st atoms bits =
  let w = variant_of_bits st atoms bits in
  let owner = Transform.Wrappers.owner_fn w in
  (* reference: the historical unparse→reparse round trip, tree-walked *)
  let text = Unparse.program w.Transform.Wrappers.program in
  let st_rt = Symtab.build (Parser.parse ~file:(model.name ^ "_variant.f90") text) in
  Typecheck.check_program st_rt;
  let ref_out = Runtime.Interp.run ~machine ~wrapper_owner:owner st_rt in
  (* fast path: lowered directly from the transformed AST and
     closure-compiled, through the shared per-procedure caches *)
  let st_d = Symtab.build w.Transform.Wrappers.program in
  Typecheck.check_program st_d;
  compare ref_out (compiled_run ~cache ~ccache ~wrapper_owner:owner st_d) = 0

let equiv_property name =
  let model = model_fixture name in
  let st = build model.Models.Registry.source in
  let atoms = atoms_of model st in
  let cache = Runtime.Lower.Cache.create () in
  let ccache = Runtime.Compile.Cache.create () in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:
         (name ^ ": interpreter == lowered IR == compiled closures on random assignments")
       ~count:30
       QCheck.(int_bound max_int)
       (fun bits -> equiv_on_assignment model cache ccache st atoms bits))

let equiv_tests =
  [
    equiv_property "funarc";
    equiv_property "mpas";
    t "budget cut-off is bit-identical" (fun () ->
        let model = model_fixture "mpas" in
        let st = build model.Models.Registry.source in
        let baseline = interp st in
        (* a budget inside the run forces Timed_out on both paths at the
           same accumulated cost *)
        let budget = baseline.Runtime.Interp.cost /. 3.0 in
        let ref_out = interp ~budget st in
        let fast_out = compiled_run ~budget st in
        Alcotest.(check bool) "timed out" true
          (ref_out.Runtime.Interp.status = Runtime.Interp.Timed_out);
        check_equiv "same cut-off" ref_out fast_out);
  ]

(* ------------------------------------------------------------------ *)
(* Cache correctness: hits reuse published procedures, results do not
   depend on cache or worker count                                     *)

let small_mpas = model_fixture "mpas"

let cache_tests =
  [
    t "cache hits on repeated lowering of the same signature" (fun () ->
        let st = build small_mpas.Models.Registry.source in
        let cache = Runtime.Lower.Cache.create () in
        let o1 = compiled_run ~cache st in
        let _, misses_after_first = Runtime.Lower.Cache.stats cache in
        let o2 = compiled_run ~cache st in
        let hits, misses = Runtime.Lower.Cache.stats cache in
        Alcotest.(check int) "no new misses" misses_after_first misses;
        Alcotest.(check bool) "every procedure hit" true (hits >= misses);
        check_equiv "identical outcomes" o1 o2);
    ts "workers=4 with cache == workers=0 without cache, record for record" (fun () ->
        (* twenty variants through the shared lowering and compile caches
           on four worker domains, against a fresh, uncached lowering and
           compilation of each one in turn *)
        let st = build small_mpas.Models.Registry.source in
        let atoms = atoms_of small_mpas st in
        let variants =
          List.init 20 (fun i ->
              let w = variant_of_bits st atoms (Hashtbl.hash i) in
              let st_d = Symtab.build w.Transform.Wrappers.program in
              Typecheck.check_program st_d;
              (st_d, Transform.Wrappers.owner_fn w))
        in
        let cache = Runtime.Lower.Cache.create () in
        let ccache = Runtime.Compile.Cache.create () in
        let cached =
          Search.Pool.with_pool ~workers:4 (fun pool ->
              Search.Pool.map pool
                (fun (st_d, wrapper_owner) -> compiled_run ~cache ~ccache ~wrapper_owner st_d)
                variants)
        in
        let hits, _ = Runtime.Compile.Cache.stats ccache in
        Alcotest.(check bool) "compiled procedures were reused" true (hits > 0);
        List.iteri
          (fun i ((st_d, wrapper_owner), out) ->
            check_equiv (Printf.sprintf "variant %d identical" i)
              (compiled_run ~wrapper_owner st_d) out)
          (List.combine variants cached));
    ts "verify-roundtrip campaign passes" (fun () ->
        let config =
          { Core.Config.default with
            Core.Config.max_variants = Some 15;
            verify_roundtrip = true;
          }
        in
        let c = Core.Tuner.run_delta_debug ~config ~workers:0 small_mpas in
        Alcotest.(check bool) "explored variants" true
          (c.Core.Tuner.summary.Search.Variant.total > 0));
  ]

(* ------------------------------------------------------------------ *)
(* Golden digests: the compiled backend's outcomes and a short ddmin
   campaign on every registry model, pinned bit for bit. Any change to
   the evaluation path that moves a charge, a trap, a timer bracket or
   a record changes a digest.                                          *)

let outcome_digest (o : Runtime.Interp.outcome) =
  let b = Buffer.create 4096 in
  let bits x = Printf.bprintf b "%Lx;" (Int64.bits_of_float x) in
  Buffer.add_string b (Format.asprintf "%a|" Runtime.Interp.pp_status o.status);
  bits o.cost;
  List.iter
    (fun (e : Runtime.Timers.entry) ->
      Printf.bprintf b "%s:%d:" e.name e.calls;
      bits e.exclusive;
      bits e.inclusive)
    o.timers;
  List.iter (fun (k, v) -> Printf.bprintf b "%s=" k; bits v) o.records;
  List.iter (fun l -> Printf.bprintf b "%s\n" l) o.printed;
  List.iter
    (fun (c, v) -> Printf.bprintf b "%s=" (Runtime.Machine.category_name c); bits v)
    o.breakdown;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* the tuner's fast path for one assignment, on uncached backends *)
let variant_outcome (p : Core.Tuner.prepared) asg =
  let w = Transform.Wrappers.insert (Transform.Rewrite.apply p.Core.Tuner.st asg) in
  let st' = Symtab.build w.Transform.Wrappers.program in
  Typecheck.check_program st';
  compiled_run ~budget:p.Core.Tuner.budget ~wrapper_owner:(Transform.Wrappers.owner_fn w) st'

let campaign_digest (c : Core.Tuner.campaign) =
  let minimal =
    match c.Core.Tuner.minimal with
    | None -> "none"
    | Some r ->
      Printf.sprintf "%s|%b|%d"
        (String.concat "," (List.map Transform.Assignment.atom_id r.Search.Delta_debug.high_set))
        r.Search.Delta_debug.finished r.Search.Delta_debug.evaluations
  in
  let b = c.Core.Tuner.backend in
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "%s\n%s\n%d %d" (Core.Export.variants_csv c) minimal
          b.Core.Tuner.compiled_procs b.Core.Tuner.compile_hits))

(* (model, baseline, uniform 32-bit variant, 40-variant ddmin campaign) *)
let golden =
  [
    ("funarc", "694404c836628212664ae2a83f6983c1", "e2a428d2de850ceee734086dad117002",
     "05d7588470f470dfb18b8d6705f873bc");
    ("mpas", "845bccfca8a979a7e5bc04d6edbb60a0", "02a1d5db6ce1fe6ea18e238f33cf7087",
     "2a8348295572892a376c03a3a52e993f");
    ("adcirc", "51e3956845ae6c548e4c3e467b707ae1", "c20e4179c5f8974605e21f3ce862bda2",
     "5d7d90e91cc06fa1246d22006befa10f");
    ("mom6", "a27b95e92c79bb86117d260327243416", "3839d2c496af1a80f89b6c0f247a1fa4",
     "b3a8def34dd77a12c44189027a47f694");
    ("lulesh", "f5fa6080ea5829529f3bdad9f6af706e", "89817da3713cf8f86dde4d8cbf3ebb5a",
     "84d24a10304764c67e0dc018fd08975e");
    ("mpas_joint", "845bccfca8a979a7e5bc04d6edbb60a0", "ecfa3271d82d5721feedce49b4b89512",
     "c183cd961dabab9d604f620e81748d1c");
  ]

let golden_tests =
  List.map
    (fun (name, base_d, u32_d, camp_d) ->
      ts (name ^ ": compiled outcomes and ddmin campaign match the pinned digests") (fun () ->
          let model = Models.Registry.find name in
          let p = Core.Tuner.prepare model in
          let u32 = Transform.Assignment.uniform p.Core.Tuner.atoms Ast.K4 in
          let c =
            Core.Tuner.run_delta_debug
              ~config:{ Core.Config.default with Core.Config.max_variants = Some 40 }
              ~workers:0 model
          in
          Alcotest.(check string) "baseline" base_d
            (outcome_digest (compiled_run p.Core.Tuner.st));
          Alcotest.(check string) "uniform 32-bit" u32_d (outcome_digest (variant_outcome p u32));
          Alcotest.(check string) "campaign" camp_d (campaign_digest c)))
    golden

(* ------------------------------------------------------------------ *)
(* Value-lane paths: expressions whose operands have no static type
   the compiler can pin, and the cold parameter/global initializers.
   The random-program fuzz stream never reaches these, so each gets a
   small program here, checked against the tree-walker on the same
   symbol table and pinned to the status the tree-walker reports.     *)

let prog decls body =
  "program p\n implicit none\n" ^ decls ^ body ^ "end program p\n"

(* (name, source, expected status); built with [Symtab.build] alone, as
   the typechecker rejects most of these programs *)
let value_lane_cases =
  [
    ( "module-array initializer",
      "module m\n implicit none\n real(kind=8), dimension(3) :: g = 1.0d0\nend module m\n"
      ^ prog " real(kind=8) :: x\n" " x = 1.0d0\n print *, 'x', x\n",
      "runtime error: initializer on module array g unsupported" );
    ( "module scalar initializers read parameters",
      "module m\n implicit none\n integer, parameter :: k = 3\n\
      \ real(kind=8) :: gx = 2.5d0 * k\n integer :: gi = k + 1\nend module m\n\
       program p\n use m\n implicit none\n print *, 'g', gx, gi\nend program p\n",
      "finished" );
    ( "parameter initialized from another parameter",
      prog " integer, parameter :: n = 4\n integer, parameter :: m = n * 2 + 1\n\
        \ real(kind=8), parameter :: h = 0.5d0 * m\n real(kind=8) :: x\n"
        " x = h + m\n print *, 'x', x\n",
      "finished" );
    ( "whole array used as a value",
      prog " real(kind=8), dimension(3) :: a\n real(kind=8) :: x\n"
        " a(1) = 1.0d0\n x = a\n print *, 'x', x\n",
      "runtime error: whole array a used as a value" );
    ( "subscripted array parameter",
      prog " integer, parameter, dimension(2) :: c = 3\n integer :: i\n"
        " i = c(1)\n print *, 'i', i\n",
      "runtime error: array parameter c unsupported" );
    ( "unresolved name",
      prog " real(kind=8) :: x\n" " x = 1.0d0 + nothere\n print *, 'x', x\n",
      "runtime error: undeclared variable nothere" );
    ( "unresolved array in a reduction",
      prog " real(kind=8) :: x\n" " x = sum(nothere)\n print *, 'x', x\n",
      "runtime error: undeclared variable nothere" );
    ( "real(x, 3)",
      prog " real(kind=8) :: x\n" " x = 2.0d0\n x = real(x, 3)\n print *, 'x', x\n",
      "runtime error: real(): unsupported kind 3" );
    ( "epsilon of an integer operand",
      prog " integer :: i\n real(kind=8) :: x\n" " i = 2\n x = epsilon(i)\n print *, 'x', x\n",
      "runtime error: epsilon of non-real value" );
    ( "huge of a whole-array operand",
      prog " real(kind=8), dimension(2) :: a\n real(kind=8) :: x\n"
        " a(1) = 1.0d0\n x = huge(a)\n print *, 'x', x\n",
      "runtime error: whole array a used as a value" );
    ( "size(a, 0)",
      prog " real(kind=8), dimension(3) :: a\n integer :: n\n"
        " n = size(a, 0)\n print *, 'n', n\n",
      "runtime error: size: dimension 0 out of range" );
    ( "maxval of an empty array",
      prog " real(kind=8), dimension(0) :: a\n real(kind=8) :: x\n"
        " x = maxval(a)\n print *, 'x', x\n",
      "runtime error: maxval of empty array" );
    ( "sum over an integer array",
      prog " integer, dimension(3) :: k\n integer :: s, lo, hi\n"
        " k(1) = 4\n k(2) = -7\n k(3) = 9\n s = sum(k)\n lo = minval(k)\n hi = maxval(k)\n\
        \ print *, 's', s, lo, hi\n",
      "finished" );
    ( "dot_product resolves its first argument first",
      prog " real(kind=8) :: x\n" " x = dot_product(nothere_a, nothere_b)\n print *, 'x', x\n",
      "runtime error: undeclared variable nothere_a" );
    ( "size evaluates its dimension before the array",
      prog " integer :: n\n" " n = size(nothere, nodim)\n print *, 'n', n\n",
      "runtime error: undeclared variable nodim" );
    ( "int charges before its operand traps",
      prog " real(kind=8), dimension(2) :: a\n integer :: i\n real(kind=8) :: x\n"
        " x = 1.0d0 + 2.0d0\n i = int(a)\n print *, 'i', i\n",
      "runtime error: whole array a used as a value" );
    ( "dot_product on a non-real array",
      prog " integer, dimension(3) :: k\n real(kind=8), dimension(3) :: a\n real(kind=8) :: x\n"
        " k(1) = 1\n x = dot_product(a, k)\n print *, 'x', x\n",
      "runtime error: dot_product expects two real arrays" );
  ]

let value_lane_tests =
  List.map
    (fun (name, src, expected) ->
      t name (fun () ->
          let st = Symtab.build (Parser.parse src) in
          let reference = interp st in
          Alcotest.(check string) "reference status" expected
            (Format.asprintf "%a" Runtime.Interp.pp_status reference.Runtime.Interp.status);
          check_equiv "compiled == interpreter" reference (compiled_run st)))
    value_lane_cases

let () =
  Alcotest.run "lower"
    [
      ("slots", slot_tests); ("equivalence", equiv_tests); ("cache", cache_tests);
      ("golden", golden_tests);
      ("value lane", value_lane_tests);
    ]
