(* Evidence-driven demotion for the predictive search (DESIGN.md §13).

   The engine watches the committed evaluation stream of a delta-debug
   campaign and, once per ddmin round, predicts which candidates of the
   round will fail so the search can try the others first:

   - error side (monotone: lowering more atoms can only add error): a
     candidate is predicted to fail when some committed error-failure's
     culprit core is contained in the candidate's lowered set. The core
     subtracts atoms proven innocent — statically (sound singleton bound
     under the threshold, via {!Score.atom_bound}) or dynamically (member
     of a committed passing lowered set). An empty core means the
     single-culprit OR-model is inconsistent for that failure (an
     interaction failure): fall back to plain superset dominance on the
     full failing set rather than predicting everything to fail.
   - perf side (anti-monotone and noise-dominated, so set logic does not
     transfer): an OLS speedup model over the committed records' static
     features, refit each round; a candidate is demoted when its
     predicted speedup sits a 2-sigma residual band below the perf floor.

   Both sides are pure functions of the committed-record sequence (which
   {!Search.Speculate} keeps identical across workers, shards and
   resume) and of the assignment, so the steered trajectory is as
   deterministic as the unranked one. *)

open Fortran
module A = Transform.Assignment
module IS = Set.Make (Int)

let feature_names =
  [ "frac_32bit"; "mismatch_edges"; "mismatch_array_elems"; "vector_loops"; "conv_sites" ]

(* static features of a variant, shared with Core.Predictor's dynamic OLS:
   rewrite, rebuild the symtab, and count the mixed-precision frictions
   the flow graph and the vectorizer see *)
let features ~st asg =
  let prog' = Transform.Rewrite.apply st asg in
  let st' = Symtab.build prog' in
  let graph = Analysis.Flowgraph.build st' in
  let violations = Analysis.Flowgraph.violations graph in
  let array_elems =
    List.fold_left
      (fun acc (e : Analysis.Flowgraph.edge) ->
        if e.Analysis.Flowgraph.e_dummy.Analysis.Flowgraph.n_is_array then
          acc
          + Option.value ~default:100 e.Analysis.Flowgraph.e_dummy.Analysis.Flowgraph.n_elements
        else acc)
      0 violations
  in
  let reports = Analysis.Vectorize.analyze st' in
  let vec = List.length (List.filter Analysis.Vectorize.vectorizable reports) in
  let convs =
    List.fold_left
      (fun acc (r : Analysis.Vectorize.report) -> acc + r.Analysis.Vectorize.conv_sites)
      0 reports
  in
  [|
    A.fraction_lowered asg;
    float_of_int (List.length violations);
    float_of_int array_elems;
    float_of_int vec;
    float_of_int convs;
  |]

type outcome = {
  err_ok : bool;
  perf_ok : bool;
  speedup : float;
}

type t = {
  st : Symtab.t;
  atoms : A.atom list;
  aidx : (string, int) Hashtbl.t;
  influential : bool array;
  perf_floor : float;
  feat_memo : (string, float array) Hashtbl.t;
  seen : (string, unit) Hashtbl.t;
  mutable safe : IS.t;  (* proven-innocent atoms: static seed + passes *)
  mutable efailed : IS.t list;  (* influential projections of error fails *)
  mutable samples : (float array * float) list;  (* committed (features, speedup) *)
  mutable perf_fail : float array -> bool;  (* refit by [round] *)
}

(* Atoms whose lowering cannot influence the checked output: scope not
   reachable from the main program, or variable never defined/used, never
   a dummy/result, and without an initializer. Failure evidence is
   projected onto the influential complement, so two variants differing
   only in inert atoms share their evidence. *)
let influential_atoms st atoms =
  let cg = Analysis.Callgraph.build st in
  let roots = List.map fst (Analysis.Callgraph.callees cg None) in
  let units = List.map Ast.unit_name (Symtab.program st) in
  let scopes =
    List.map (fun u -> Symtab.Unit_scope u) units
    @ List.map
        (fun pr -> Symtab.Proc_scope pr)
        (List.sort_uniq compare (Analysis.Callgraph.reachable cg ~roots))
  in
  let touched = Hashtbl.create 64 in
  List.iter
    (fun (s : Analysis.Defuse.summary) ->
      if s.Analysis.Defuse.defs <> [] || s.Analysis.Defuse.uses <> [] then
        Hashtbl.replace touched (s.Analysis.Defuse.scope, s.Analysis.Defuse.var) ())
    (Analysis.Defuse.analyze st);
  let protected = Hashtbl.create 64 in
  List.iter
    (fun u ->
      match u with
      | Ast.Main _ -> ()
      | Ast.Module m ->
        List.iter
          (fun (pr : Ast.proc) ->
            let scope = Symtab.Proc_scope pr.Ast.proc_name in
            List.iter (fun d -> Hashtbl.replace protected (scope, d) ()) pr.Ast.params;
            match pr.Ast.proc_kind with
            | Ast.Function { result } -> Hashtbl.replace protected (scope, result) ()
            | Ast.Subroutine -> ())
          m.Ast.mod_procs)
    (Symtab.program st);
  let arr = Array.make (List.length atoms) true in
  List.iteri
    (fun i (a : A.atom) ->
      let key = (a.A.a_scope, a.A.a_name) in
      let init =
        match
          Symtab.lookup_var st
            ~in_proc:
              (match a.A.a_scope with
              | Symtab.Proc_scope pr -> Some pr
              | Symtab.Unit_scope _ -> None)
            a.A.a_name
        with
        | Some vi -> vi.Symtab.v_init <> None
        | None -> true
      in
      arr.(i) <-
        List.mem a.A.a_scope scopes
        && (Hashtbl.mem touched key || Hashtbl.mem protected key || init))
    atoms;
  arr

let create ~st ~atoms ~safe ~perf_floor =
  let aidx = Hashtbl.create 64 in
  List.iteri (fun i a -> Hashtbl.replace aidx (A.atom_id a) i) atoms;
  let safe0 =
    IS.of_list (List.filter_map (fun a -> Hashtbl.find_opt aidx (A.atom_id a)) safe)
  in
  {
    st;
    atoms;
    aidx;
    influential = influential_atoms st atoms;
    perf_floor;
    feat_memo = Hashtbl.create 256;
    seen = Hashtbl.create 256;
    safe = safe0;
    efailed = [];
    samples = [];
    perf_fail = (fun _ -> false);
  }

(* lowered set of [asg], projected onto the influential atoms *)
let iset t asg =
  List.fold_left
    (fun acc (a : A.atom) ->
      match Hashtbl.find_opt t.aidx (A.atom_id a) with
      | Some i when t.influential.(i) -> IS.add i acc
      | Some _ | None -> acc)
    IS.empty (A.lowered asg)

let features_of t asg =
  let key = A.signature asg in
  match Hashtbl.find_opt t.feat_memo key with
  | Some f -> f
  | None ->
    let f = features ~st:t.st asg in
    Hashtbl.replace t.feat_memo key f;
    f

let observe t asg outcome =
  let key = A.signature asg in
  (* one observation per distinct variant: memo hits and resume replays
     re-present committed signatures, and must not double-count *)
  if not (Hashtbl.mem t.seen key) then begin
    Hashtbl.replace t.seen key ();
    t.samples <- (features_of t asg, outcome.speedup) :: t.samples;
    let s = iset t asg in
    if not outcome.err_ok then t.efailed <- s :: t.efailed
    else if outcome.perf_ok then t.safe <- IS.union s t.safe
    (* pfails (error fine, too slow) leave the error evidence untouched:
       near the floor the outcome is noise, not structure *)
  end

(* perf-side residual band: demote only when the model is confidently
   below the floor *)
let perf_z = 2.0

(* refitting needs enough residual degrees of freedom to trust the sigma *)
let min_samples = 8

let round t =
  t.perf_fail <- (fun _ -> false);
  let usable =
    List.filter (fun (_, s) -> Float.is_finite s && s > 0.0) (List.rev t.samples)
  in
  if List.length usable >= min_samples then
    match
      Metrics.Linreg.fit ~features:(List.map fst usable) ~targets:(List.map snd usable)
    with
    | None -> ()
    | Some m ->
      let errs = List.map (fun (f, s) -> s -. Metrics.Linreg.predict m f) usable in
      let n = List.length errs in
      let sd =
        sqrt (List.fold_left (fun a e -> a +. (e *. e)) 0.0 errs /. float_of_int (n - 1))
      in
      let floor = t.perf_floor in
      t.perf_fail <- (fun feat -> Metrics.Linreg.predict m feat +. (perf_z *. sd) < floor)

let demote t asg =
  (let s = iset t asg in
   List.exists
     (fun f ->
       let core = IS.diff f t.safe in
       let core = if IS.is_empty core then f else core in
       IS.subset core s)
     t.efailed)
  || t.perf_fail (features_of t asg)
