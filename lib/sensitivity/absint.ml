(* Forward error-amplification analysis: a mirror of {!Runtime.Interp}.

   One abstract pass executes the ORIGINAL (all-64-bit) program with the
   interpreter's exact concrete semantics — same values, same traps, same
   control flow — and augments every real value with a sparse per-atom map
   of absolute-error bounds: [err a] bounds |x_a - x| where x_a is the
   value this expression would take in the program variant that demotes
   precisely atom [a] to 32-bit (declarations rewritten, boundary wrappers
   inserted by [Transform]).  All singleton-demotion bounds are computed
   simultaneously in a single run.

   The error algebra (DESIGN.md §13):
   - reading a binding owned by atom [a] marks the value kind-tainted by
     [a] (in run-a its declared kind is 32-bit) and charges one f32
     rounding to [err a] — this uniformly covers both direct demotion
     (values stored rounded) and the wrapper copy-in/copy-out placements;
   - every real operation applies the interval propagation rule of the
     operator, then a rounding update err <- err*(1+2e) + 2e|v| at the
     baseline kind, plus an extra f32 rounding for kind-tainted atoms
     (their run may compute the operation in 32-bit);
   - integers, logicals and control flow never carry error: wherever a
     run-a value could round, compare, or convert differently than the
     baseline (interval crosses the decision boundary), atom [a] is
     POISONED — its sound bound becomes infinite, while the finite err
     accumulation continues as a ranking heuristic.

   Costs, timers, vectorization modes and the cost budget are not
   mirrored: they affect when a variant times out, never which values it
   computes, and a timed-out variant is a failed variant anyway. *)

open Fortran
module Value = Runtime.Value
module Fp32 = Runtime.Fp32
module IMap = Map.Make (Int)

type status = Finished | Stopped of string | Runtime_error of string

type sample = { s_key : string; s_value : float; s_err : float IMap.t }

type result = {
  r_status : status;
  r_samples : sample list;  (** the mirrored [print 'key', ...] records, in order *)
  r_poisoned : bool array;  (** per atom index: sound bound is infinite *)
  r_steps : int;
}

exception Step_limit

(* control-flow and failure signals, mirroring Interp's *)
exception Return_signal
exception Exit_signal
exception Cycle_signal
exception Stop_signal of string
exception Trap of string

let trap fmt = Format.kasprintf (fun m -> raise (Trap m)) fmt

(* ------------------------------------------------------------------ *)
(* Abstract values                                                     *)

type av = {
  c : Value.v;  (* the concrete (baseline) value, bit-exact vs Interp *)
  err : Errvec.t;  (* per-atom absolute-error bound *)
  kt : int array;  (* sorted atoms whose demotion may change this value's kind *)
}

let pure c = { c; err = Errvec.empty; kt = Errvec.no_atoms }

type cell =
  | Scalar of av ref  (* kt is never stored: it is a property of the binding *)
  | Real_array of {
      kind : Ast.real_kind;
      data : float array;
      errs : Errvec.t array;
      dims : int array;
    }
  | Int_array of { data : int array; dims : int array }
  | Log_array of { data : bool array; dims : int array }

(* What a name denotes when referenced from one procedure (or the main
   program): the symtab entry, the global cell of a module variable, and
   the owning atom. Static per scope, so it is resolved once per scope
   rather than once per access. *)
type nonlocal = {
  n_info : Symtab.var_info option;
  n_cell : cell option;
  n_atom : int option;
}

type scope = {
  names : (string, nonlocal) Hashtbl.t;
  local_atoms : (string, int option) Hashtbl.t;  (* atoms of dummies and locals *)
}

type frame = { proc : string option; vars : (string, cell) Hashtbl.t; scope : scope }

type ctx = {
  st : Symtab.t;
  atom_of : Symtab.scope * string -> int option;
  callee_touches : string -> string * string -> bool;
      (* [callee_touches p (u, x)] : can procedure [p] (transitively)
         read or write module variable [u::x] by name? Demoting either
         end of a by-reference binding of [u::x] inserts a boundary
         wrapper, and if the callee also reaches the variable by name the
         wrapper BREAKS the baseline aliasing — an effect no interval
         bounds, so such atoms are poisoned at the call site. *)
  poisoned : bool array;
  mutable steps : int;
  max_steps : int;
  globals : (string, cell) Hashtbl.t;
  params : (string, av) Hashtbl.t;
  main_scope : scope;
  proc_scopes : (string, scope) Hashtbl.t;
  mutable samples : sample list;  (* reversed *)
  mutable depth : int;
}

let poison ctx a = ctx.poisoned.(a) <- true

(* the public sample form, built once per printed sample *)
let to_map err = Errvec.fold IMap.add err IMap.empty

let step ctx =
  ctx.steps <- ctx.steps + 1;
  if ctx.steps > ctx.max_steps then raise Step_limit

(* ------------------------------------------------------------------ *)
(* Value helpers (mirroring Interp's, plus interval checks)            *)

let as_float = function
  | Value.Vreal (x, _) -> x
  | Value.Vint i -> float_of_int i
  | Value.Vlog _ | Value.Vstr _ -> trap "numeric value expected"

let as_bool = function
  | Value.Vlog b -> b
  | Value.Vint _ | Value.Vreal _ | Value.Vstr _ -> trap "logical value expected"

let value_kind = function
  | Value.Vreal (_, k) -> Some k
  | Value.Vint _ | Value.Vlog _ | Value.Vstr _ -> None

let is_real_literal = function Ast.Real_lit _ -> true | _ -> false

let promote_kind a b =
  match (a, b) with
  | Some Ast.K8, _ | _, Some Ast.K8 -> Some Ast.K8
  | Some Ast.K4, _ | _, Some Ast.K4 -> Some Ast.K4
  | None, None -> None

(* [f]-conversion stability: in run-a the value lives in [v-e, v+e]; if the
   integer conversion agrees on both endpoints it agrees everywhere (the
   conversions are monotone), otherwise run-a's integer may differ from the
   baseline's — poison. *)
let int_stable f v e = e = 0.0 || (Float.is_finite e && f (v -. e) = f (v +. e))

(* Convert an abstract value to an exact int, poisoning every atom whose
   error interval could change the result. [f] mirrors the conversion the
   interpreter applies (truncation for as_int / int(), rounding for nint,
   flooring for floor). *)
let as_int_conv ctx f (v : av) =
  (match v.c with
  | Value.Vreal (x, _) ->
    Errvec.iter (fun a e -> if not (int_stable f x e) then poison ctx a) v.err
  | Value.Vint _ | Value.Vlog _ | Value.Vstr _ -> ());
  match v.c with
  | Value.Vint i -> i
  | Value.Vreal (x, _) -> f x
  | Value.Vlog _ | Value.Vstr _ -> trap "integer value expected"

let as_int ctx v = as_int_conv ctx (fun x -> int_of_float x) v

(* ------------------------------------------------------------------ *)
(* The error algebra: kernels live in {!Errvec}                        *)

(* apply the post-operation rounding at baseline kind [k] to every entry,
   plus an extra f32 rounding for kind-tainted atoms when the baseline
   computed in 64-bit (their run may compute this operation in 32-bit) *)
let round_err ctx k v err kt = Errvec.round ctx.poisoned ~narrow:(k = Ast.K4) v err kt

(* mirror of Interp.mk_real: round the concrete value at kind [k], trap on
   NaN/overflow *)
let real_result k x =
  let x' = Fp32.of_kind k x in
  if not (Float.is_finite x') then
    if Float.is_nan x' then
      trap "NaN produced in real(kind=%d) arithmetic" (Token.int_of_kind k)
    else trap "overflow in real(kind=%d) arithmetic" (Token.int_of_kind k);
  x'

(* [real_result] with its error vector rounded at [k] *)
let mk_areal ctx k x err kt =
  let x' = real_result k x in
  { c = Value.Vreal (x', k); err = round_err ctx k x' err kt; kt }

(* comparison stability: if atom [a]'s joint interval can bridge the gap
   between x and y, run-a may take the other branch *)
let compare_guard ctx x y ex ey =
  Errvec.compare_guard ctx.poisoned ~gap:(Float.abs (x -. y)) ex ey

(* ------------------------------------------------------------------ *)
(* Storage                                                             *)

let global_key unit_name var = unit_name ^ "." ^ var

let zero_of_base (base : Ast.base_type) =
  match base with
  | Ast.Treal k -> Value.Vreal (0.0, k)
  | Ast.Tinteger -> Value.Vint 0
  | Ast.Tlogical -> Value.Vlog false

let alloc_cell (base : Ast.base_type) (extents : int list) : cell =
  match extents with
  | [] -> Scalar (ref (pure (zero_of_base base)))
  | _ ->
    let dims = Array.of_list extents in
    let n = Value.elements dims in
    if n < 0 || n > 50_000_000 then trap "array allocation of %d elements refused" n;
    (match base with
    | Ast.Treal kind ->
      Real_array { kind; data = Array.make n 0.0; errs = Array.make n Errvec.empty; dims }
    | Ast.Tinteger -> Int_array { data = Array.make n 0; dims }
    | Ast.Tlogical -> Log_array { data = Array.make n false; dims })

let new_scope () = { names = Hashtbl.create 32; local_atoms = Hashtbl.create 16 }

let new_frame ctx proc size =
  let scope =
    match proc with
    | None -> ctx.main_scope
    | Some p -> (
      match Hashtbl.find_opt ctx.proc_scopes p with
      | Some s -> s
      | None ->
        let s = new_scope () in
        Hashtbl.replace ctx.proc_scopes p s;
        s)
  in
  { proc; vars = Hashtbl.create size; scope }

(* [name] as the symtab resolves it from [frame]'s procedure, memoized
   per scope (every global cell is allocated before anything is
   evaluated, so a memoized lookup never goes stale) *)
let nonlocal ctx frame name =
  match Hashtbl.find_opt frame.scope.names name with
  | Some n -> n
  | None ->
    let n_info = Symtab.lookup_var ctx.st ~in_proc:frame.proc name in
    let n_cell =
      match n_info with
      | Some { Symtab.v_scope = Symtab.Unit_scope u; v_parameter = false; _ } ->
        Hashtbl.find_opt ctx.globals (global_key u name)
      | Some _ | None -> None
    in
    let n_atom =
      Option.bind n_info (fun info -> ctx.atom_of (info.Symtab.v_scope, info.Symtab.v_name))
    in
    let n = { n_info; n_cell; n_atom } in
    Hashtbl.replace frame.scope.names name n;
    n

(* the atom owning a binding as named in [frame] (dummies and locals live
   in the procedure scope; everything else resolves through the symtab) *)
let binding_atom ctx frame name =
  if Hashtbl.mem frame.vars name then
    match frame.proc with
    | Some p -> (
      match Hashtbl.find_opt frame.scope.local_atoms name with
      | Some a -> a
      | None ->
        let a = ctx.atom_of (Symtab.Proc_scope p, name) in
        Hashtbl.replace frame.scope.local_atoms name a;
        a)
    | None -> None
  else (nonlocal ctx frame name).n_atom

(* Aliasing hazard at a by-reference binding: in the baseline the dummy
   shares the actual's cell, but demoting either end makes their kinds
   mismatch, so the rewrite inserts a copy-in/copy-out wrapper — the
   sharing is gone. If the callee can also reach the actual (a module
   variable) by name, the two access paths now denote DIFFERENT storage
   and the copy-out can clobber or resurrect values in ways no interval
   bounds: poison both ends' atoms. *)
let alias_guard ctx frame ~callee ~dummy name =
  if not (Hashtbl.mem frame.vars name) then
    match nonlocal ctx frame name with
    | { n_info = Some { Symtab.v_scope = Symtab.Unit_scope u; v_name; _ }; n_atom; _ }
      when ctx.callee_touches callee (u, v_name) ->
      Option.iter (poison ctx) n_atom;
      Option.iter (poison ctx) (ctx.atom_of (Symtab.Proc_scope callee, dummy))
    | _ -> ()

(* By-reference hazards of the kind-mismatch wrapper, charged at binding
   time to every atom whose demotion inserts one (the dummy's own atom
   plus the actual side's kind atoms):
   - intent(out): the wrapper does NOT copy in, so its temporary starts
     at the default 0.0 — on any path where the callee never assigns the
     dummy, reads inside the callee see 0.0 and the copy-out replaces the
     actual's value with 0.0.  Charge the full magnitude of the value.
   - intent(inout) / no intent: the copy-in/copy-out pair replaces the
     actual with an f32 round trip of its value even when the callee
     never touches the dummy.  Charge one f32 rounding.
   - intent(in): no copy-out; reads through the binding are rounded by
     {!read_view}.  Nothing to charge here.
   A store through the dummy overwrites the entry — exactly when the
   hazard disappears (the stored value's own rounding is charged by
   [round_err]). *)
let wrapper_hazard ~(dinfo : Symtab.var_info) atoms v err =
  match dinfo.v_intent with
  | Some Ast.In -> err
  | intent ->
    let x = Float.abs v in
    let charge =
      match intent with
      | Some Ast.Out -> x
      | _ -> if x = 0.0 then 0.0 else Float.max (2.0 *. Errvec.eps32 *. x) Errvec.sub32
    in
    if charge = 0.0 then err
    else
      List.fold_left
        (fun err a -> Errvec.set a (Float.max charge (Errvec.get a err)) err)
        err atoms

(* reading through a binding owned by atom [a]: the value is kind-tainted
   by [a] and has been (or will be, at a wrapper boundary) f32-rounded *)
let read_view ctx frame name (v : av) =
  match v.c with
  | Value.Vreal (x, _) -> (
    match binding_atom ctx frame name with
    | Some a ->
      { v with err = Errvec.round_at ctx.poisoned a x v.err; kt = [| a |] }
    | None -> { v with kt = Errvec.no_atoms })
  | Value.Vint _ | Value.Vlog _ | Value.Vstr _ -> { v with kt = Errvec.no_atoms }

(* ------------------------------------------------------------------ *)
(* The mirror interpreter                                              *)

let rec param_value ctx (info : Symtab.var_info) =
  let key =
    (match info.v_scope with
    | Symtab.Proc_scope p -> "p:" ^ p
    | Symtab.Unit_scope u -> "u:" ^ u)
    ^ "." ^ info.v_name
  in
  match Hashtbl.find_opt ctx.params key with
  | Some v -> v
  | None ->
    let in_proc =
      match info.v_scope with Symtab.Proc_scope p -> Some p | Symtab.Unit_scope _ -> None
    in
    let init =
      match info.v_init with
      | Some e -> e
      | None -> trap "parameter %s has no initializer" info.v_name
    in
    let frame = new_frame ctx in_proc 1 in
    let v = eval_expr ctx frame init in
    let v =
      match (info.v_base, v.c) with
      | Ast.Treal k, _ ->
        let x = Fp32.of_kind k (as_float v.c) in
        (* a demoted parameter folds to its f32 value at compile time *)
        let err, kt =
          match ctx.atom_of (info.v_scope, info.v_name) with
          | Some a when k = Ast.K8 ->
            (Errvec.set a (Float.abs (Fp32.round x -. x) +. Errvec.get a v.err) v.err, [| a |])
          | Some _ | None -> (v.err, Errvec.no_atoms)
        in
        { c = Value.Vreal (x, k); err = round_err ctx k x err Errvec.no_atoms; kt }
      | Ast.Tinteger, _ -> pure (Value.Vint (as_int ctx v))
      | Ast.Tlogical, _ -> pure (Value.Vlog (as_bool v.c))
    in
    Hashtbl.replace ctx.params key v;
    v

and resolve ctx frame name : [ `Cell of cell | `Param of av ] =
  match Hashtbl.find_opt frame.vars name with
  | Some cell -> `Cell cell
  | None -> (
    let n = nonlocal ctx frame name in
    match n.n_info with
    | None -> trap "undeclared variable %s" name
    | Some info ->
      if info.v_parameter then `Param (param_value ctx info)
      else (
        match info.v_scope with
        | Symtab.Unit_scope u -> (
          match n.n_cell with
          | Some cell -> `Cell cell
          | None -> trap "global %s.%s not allocated" u name)
        | Symtab.Proc_scope p ->
          trap "variable %s local to %s referenced out of scope" name p))

and scalar_ref ctx frame name =
  match resolve ctx frame name with
  | `Cell (Scalar r) -> r
  | `Cell (Real_array _ | Int_array _ | Log_array _) -> trap "array %s used as a scalar" name
  | `Param _ -> trap "parameter %s cannot be assigned" name

and eval_expr ctx frame (e : Ast.expr) : av =
  step ctx;
  match e with
  | Ast.Int_lit i -> pure (Value.Vint i)
  | Ast.Real_lit { value; kind; _ } -> pure (Value.Vreal (Fp32.of_kind kind value, kind))
  | Ast.Logical_lit b -> pure (Value.Vlog b)
  | Ast.Str_lit s -> pure (Value.Vstr s)
  | Ast.Var name -> (
    match resolve ctx frame name with
    | `Param v -> v
    | `Cell (Scalar r) -> read_view ctx frame name !r
    | `Cell (Real_array _ | Int_array _ | Log_array _) ->
      trap "whole array %s used as a value" name)
  | Ast.Unop (Ast.Neg, e1) -> (
    let v = eval_expr ctx frame e1 in
    match v.c with
    | Value.Vint i -> { v with c = Value.Vint (-i) }
    | Value.Vreal (x, k) -> mk_areal ctx k (-.x) v.err v.kt
    | Value.Vlog _ | Value.Vstr _ -> trap "negation of non-numeric value")
  | Ast.Unop (Ast.Not, e1) -> pure (Value.Vlog (not (as_bool (eval_expr ctx frame e1).c)))
  | Ast.Binop (op, a, b) -> eval_binop ctx frame op a b
  | Ast.Index (name, args) -> (
    match Hashtbl.find_opt frame.vars name with
    | Some cell -> array_load ctx frame name cell args
    | None -> (
      match (nonlocal ctx frame name).n_info with
      | Some info when info.v_dims <> [] -> (
        match resolve ctx frame name with
        | `Cell cell -> array_load ctx frame name cell args
        | `Param _ -> trap "array parameter %s unsupported" name)
      | Some _ -> trap "scalar %s subscripted" name
      | None ->
        if Builtins.is_intrinsic_function name then eval_intrinsic ctx frame name args
        else (
          match call_user ctx frame name args with
          | Some v -> v
          | None -> trap "subroutine %s called as a function" name)))

and eval_binop ctx frame op a b =
  match op with
  | Ast.And ->
    if as_bool (eval_expr ctx frame a).c then
      pure (Value.Vlog (as_bool (eval_expr ctx frame b).c))
    else pure (Value.Vlog false)
  | Ast.Or ->
    if as_bool (eval_expr ctx frame a).c then pure (Value.Vlog true)
    else pure (Value.Vlog (as_bool (eval_expr ctx frame b).c))
  | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Pow | Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le
  | Ast.Gt | Ast.Ge -> (
    let va = eval_expr ctx frame a in
    let vb = eval_expr ctx frame b in
    let ka = value_kind va.c in
    let kb = value_kind vb.c in
    let kt = Errvec.atoms_union va.kt vb.kt in
    match (va.c, vb.c, op) with
    | Value.Vint x, Value.Vint y, (Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Pow) ->
      pure
        (Value.Vint
           (match op with
           | Ast.Add -> x + y
           | Ast.Sub -> x - y
           | Ast.Mul -> x * y
           | Ast.Div -> if y = 0 then trap "integer division by zero" else x / y
           | Ast.Pow ->
             if y < 0 then trap "negative integer exponent"
             else begin
               let rec pow acc n = if n = 0 then acc else pow (acc * x) (n - 1) in
               pow 1 y
             end
           | _ -> assert false))
    | _, _, (Ast.Add | Ast.Sub | Ast.Mul | Ast.Div) ->
      let k =
        match promote_kind ka kb with Some k -> k | None -> trap "numeric operands expected"
      in
      let x = as_float va.c and y = as_float vb.c in
      let v =
        real_result k
          (match op with
          | Ast.Add -> x +. y
          | Ast.Sub -> x -. y
          | Ast.Mul -> x *. y
          | Ast.Div -> x /. y
          | _ -> assert false)
      in
      (* the operator's propagation rule and the rounding at [k] in one
         kernel; a trap above ends the analysis, so its poisons are moot *)
      let eop =
        match op with
        | Ast.Add | Ast.Sub -> Errvec.Add
        | Ast.Mul -> Errvec.Mul
        | Ast.Div -> Errvec.Div
        | _ -> assert false
      in
      let err =
        Errvec.op_round eop ctx.poisoned ~x ~y ~narrow:(k = Ast.K4) v va.err vb.err kt
      in
      { c = Value.Vreal (v, k); err; kt }
    | _, _, Ast.Pow -> (
      let k =
        match promote_kind ka kb with Some k -> k | None -> trap "numeric operands expected"
      in
      let x = as_float va.c in
      match vb.c with
      | Value.Vint n when abs n <= 4 ->
        (* strength-reduced small integer powers: mirror the repeated
           multiplication, folding the product rule the same number of
           times; the exponent is an exact int (err-free by construction) *)
        let rec pow (acc, eacc) i =
          if i = 0 then (acc, eacc)
          else pow (acc *. x, Errvec.mul acc x eacc va.err) (i - 1)
        in
        let v, err = pow (1.0, Errvec.empty) (abs n) in
        if n < 0 then
          let err = Errvec.div ctx.poisoned 1.0 v Errvec.empty err in
          mk_areal ctx k (1.0 /. v) err kt
        else mk_areal ctx k v err kt
      | _ ->
        let y = as_float vb.c in
        let raw = Float.pow x y in
        (* x^y is monotone in each argument on x > 0, so the extreme of the
           error rectangle is at a corner; an interval reaching x <= 0 can
           go complex (NaN trap divergence) *)
        let err =
          Errvec.union
            (fun ex ey ->
              if ex = 0.0 && ey = 0.0 then 0.0
              else if x -. ex <= 0.0 then Float.abs raw +. 1.0
              else
                List.fold_left
                  (fun acc (dx, dy) ->
                    let c = Float.pow (x +. dx) (y +. dy) in
                    if Float.is_finite c then Float.max acc (Float.abs (c -. raw))
                    else infinity)
                  0.0
                  [ (ex, ey); (ex, -.ey); (-.ex, ey); (-.ex, -.ey) ])
            va.err vb.err
        in
        Errvec.iter
          (fun a e ->
            if e > 0.0 then
              let ex = Errvec.get a va.err in
              if x -. ex <= 0.0 || not (Float.is_finite e) then poison ctx a)
          err;
        let err =
          Errvec.map (fun _ e -> if Float.is_finite e then e else Float.abs raw +. 1.0) err
        in
        mk_areal ctx k raw err kt)
    | _, _, (Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge) -> (
      match (va.c, vb.c) with
      | Value.Vlog x, Value.Vlog y ->
        pure
          (Value.Vlog
             (match op with
             | Ast.Eq -> x = y
             | Ast.Ne -> x <> y
             | _ -> trap "ordering of logicals"))
      | _ ->
        let x = as_float va.c and y = as_float vb.c in
        compare_guard ctx x y va.err vb.err;
        pure
          (Value.Vlog
             (match op with
             | Ast.Eq -> x = y
             | Ast.Ne -> x <> y
             | Ast.Lt -> x < y
             | Ast.Le -> x <= y
             | Ast.Gt -> x > y
             | Ast.Ge -> x >= y
             | _ -> assert false)))
    | _, _, (Ast.And | Ast.Or) -> assert false)

and eval_indices ctx frame args =
  List.map (fun a -> as_int ctx (eval_expr ctx frame a)) args

and array_load ctx frame name cell args =
  let indices = eval_indices ctx frame args in
  match cell with
  | Real_array { kind; data; errs; dims } ->
    let o = Value.offset ~name ~dims indices in
    read_view ctx frame name
      { c = Value.Vreal (data.(o), kind); err = errs.(o); kt = Errvec.no_atoms }
  | Int_array { data; dims } -> pure (Value.Vint (data.(Value.offset ~name ~dims indices)))
  | Log_array { data; dims } -> pure (Value.Vlog (data.(Value.offset ~name ~dims indices)))
  | Scalar _ -> trap "scalar %s subscripted" name

(* storing [v] into a real location of declared kind [kind] through the
   binding [name]: round the concrete exactly as the interpreter does
   (trapping non-finite), round every error entry at the declared kind,
   and charge the extra f32 rounding to the binding's atom *)
and store_real ctx frame name kind (v : av) =
  let x = Fp32.of_kind kind (as_float v.c) in
  if not (Float.is_finite x) then
    trap "non-finite value stored to %s (real(kind=%d))" name (Token.int_of_kind kind);
  let kt =
    match binding_atom ctx frame name with
    | Some a -> Errvec.atoms_add a v.kt
    | None -> v.kt
  in
  (x, round_err ctx kind x v.err kt)

and array_store ctx frame name cell args v =
  let indices = eval_indices ctx frame args in
  match cell with
  | Real_array { kind; data; errs; dims } ->
    let x, err = store_real ctx frame name kind v in
    let o = Value.offset ~name ~dims indices in
    data.(o) <- x;
    errs.(o) <- err
  | Int_array { data; dims } -> data.(Value.offset ~name ~dims indices) <- as_int ctx v
  | Log_array { data; dims } -> data.(Value.offset ~name ~dims indices) <- as_bool v.c
  | Scalar _ -> trap "scalar %s subscripted" name

and scalar_store ctx frame name r (v : av) =
  match !r.c with
  | Value.Vreal (_, k) ->
    let x, err = store_real ctx frame name k v in
    r := { c = Value.Vreal (x, k); err; kt = Errvec.no_atoms }
  | Value.Vint _ -> r := pure (Value.Vint (as_int ctx v))
  | Value.Vlog _ -> r := pure (Value.Vlog (as_bool v.c))
  | Value.Vstr _ -> r := { v with kt = Errvec.no_atoms }

(* ------------------------------------------------------------------ *)
(* Intrinsics                                                          *)

and eval_intrinsic ctx frame name args =
  let unary () =
    match args with
    | [ a ] -> eval_expr ctx frame a
    | _ -> trap "intrinsic %s expects one argument" name
  in
  match name with
  | "abs" -> (
    match unary () with
    | { c = Value.Vint i; _ } -> pure (Value.Vint (abs i))
    | { c = Value.Vreal (x, k); err; kt } -> mk_areal ctx k (Float.abs x) err kt
    | _ -> trap "abs of non-numeric value")
  | "sqrt" | "exp" | "log" | "log10" | "sin" | "cos" | "tan" | "atan" | "asin" | "acos"
  | "sinh" | "cosh" | "tanh" | "aint" | "anint" -> (
    match unary () with
    | { c = Value.Vreal (x, k); err; kt } ->
      let f =
        match name with
        | "sqrt" -> sqrt
        | "exp" -> exp
        | "log" -> log
        | "log10" -> log10
        | "sin" -> sin
        | "cos" -> cos
        | "tan" -> tan
        | "atan" -> atan
        | "asin" -> asin
        | "acos" -> acos
        | "sinh" -> sinh
        | "cosh" -> cosh
        | "tanh" -> tanh
        | "aint" -> Float.trunc
        | "anint" -> Float.round
        | _ -> assert false
      in
      let lip e =
        (* per-atom propagated error for |f(x') - f(x)|, x' in [x-e, x+e];
           a [None] poisons: the demoted run may trap (NaN) where the
           baseline did not *)
        if e = 0.0 then Some 0.0
        else
          match name with
          | "sin" | "cos" -> Some (Float.min e 2.0)
          | "atan" -> Some (Float.min e Float.pi)
          | "tanh" -> Some (Float.min e 2.0)
          | "sqrt" ->
            if x -. e < 0.0 then None
            else if x -. e = 0.0 then Some (sqrt e)
            else Some (Float.min (e /. (2.0 *. sqrt (x -. e))) (sqrt e))
          | "exp" ->
            let hi = exp (x +. e) in
            if Float.is_finite hi then Some (hi -. exp x) else None
          | "log" -> if x -. e <= 0.0 then None else Some (log (x /. (x -. e)))
          | "log10" ->
            if x -. e <= 0.0 then None else Some (log (x /. (x -. e)) /. log 10.0)
          | "tan" ->
            let m = Float.abs (cos x) -. e in
            if m <= 0.0 then None else Some (e /. (m *. m))
          | "asin" | "acos" ->
            let t = Float.abs x +. e in
            if t >= 1.0 then None else Some (Float.min (e /. sqrt (1.0 -. (t *. t))) Float.pi)
          | "sinh" | "cosh" ->
            let t = Float.abs x +. e in
            if t > 700.0 then None else Some (e *. cosh t)
          | "aint" | "anint" ->
            let g = if name = "aint" then Float.trunc else Float.round in
            if g (x -. e) = g (x +. e) then Some 0.0 else Some (e +. 1.0)
          | _ -> assert false
      in
      let err =
        Errvec.map
          (fun a e ->
            match lip e with
            | Some e' -> e'
            | None ->
              poison ctx a;
              Float.abs (f x) +. e +. 1.0)
          err
      in
      mk_areal ctx k (f x) err kt
    | _ -> trap "%s of non-real value" name)
  | "min" | "max" ->
    let vs = List.map (eval_expr ctx frame) args in
    if List.length vs < 2 then trap "%s needs at least two arguments" name;
    let kind = List.fold_left (fun acc v -> promote_kind acc (value_kind v.c)) None vs in
    (match kind with
    | None ->
      let ints = List.map (fun v -> as_int ctx v) vs in
      pure
        (Value.Vint
           (List.fold_left (if name = "min" then min else max) (List.hd ints) (List.tl ints)))
    | Some k ->
      let fs = List.map (fun v -> as_float v.c) vs in
      let f =
        List.fold_left (if name = "min" then Float.min else Float.max) (List.hd fs) (List.tl fs)
      in
      (* |min_i x'_i - min_i x_i| <= max_i |x'_i - x_i| *)
      let err = List.fold_left (fun acc v -> Errvec.max acc v.err) Errvec.empty vs in
      let kt = List.fold_left (fun acc v -> Errvec.atoms_union acc v.kt) Errvec.no_atoms vs in
      mk_areal ctx k f err kt)
  | "mod" -> (
    match args with
    | [ a; b ] -> (
      let va = eval_expr ctx frame a in
      let vb = eval_expr ctx frame b in
      match (va.c, vb.c) with
      | Value.Vint x, Value.Vint y ->
        if y = 0 then trap "mod with zero divisor" else pure (Value.Vint (x - (x / y * y)))
      | _ ->
        let k =
          match promote_kind (value_kind va.c) (value_kind vb.c) with
          | Some k -> k
          | None -> trap "mod of non-numeric"
        in
        let x = as_float va.c and y = as_float vb.c in
        let r = Float.rem x y in
        (* rem jumps by |y| at multiples of y; inside one period it is a
           translation. A perturbed divisor shifts every boundary — too
           wild to bound tightly, poison. *)
        let boundary_dist =
          let q = Float.abs y in
          if q = 0.0 then 0.0 else Float.min (Float.abs r) (q -. Float.abs r)
        in
        let err =
          Errvec.union
            (fun ex ey ->
              if ey > 0.0 then ex +. ey +. Float.abs y
              else if ex >= boundary_dist then ex +. Float.abs y
              else ex)
            va.err vb.err
        in
        Errvec.iter (fun a ey -> if ey > 0.0 then poison ctx a) vb.err;
        mk_areal ctx k r err (Errvec.atoms_union va.kt vb.kt))
    | _ -> trap "mod expects two arguments")
  | "atan2" -> (
    match args with
    | [ a; b ] -> (
      let va = eval_expr ctx frame a in
      let vb = eval_expr ctx frame b in
      match promote_kind (value_kind va.c) (value_kind vb.c) with
      | Some k ->
        let y = as_float va.c and x = as_float vb.c in
        let r = Float.hypot x y in
        (* gradient magnitude is 1/r; the range is (-pi, pi], so 2*pi
           always bounds the jump across the branch cut *)
        let err =
          Errvec.union
            (fun ey ex ->
              let m = r -. (ey +. ex) in
              if m <= 0.0 then 2.0 *. Float.pi
              else Float.min ((ey +. ex) /. m) (2.0 *. Float.pi))
            va.err vb.err
        in
        mk_areal ctx k (Float.atan2 y x) err (Errvec.atoms_union va.kt vb.kt)
      | None -> trap "atan2 of non-real values")
    | _ -> trap "atan2 expects two arguments")
  | "sign" -> (
    match args with
    | [ a; b ] -> (
      let x = eval_expr ctx frame a in
      let y = eval_expr ctx frame b in
      match promote_kind (value_kind x.c) (value_kind y.c) with
      | Some k ->
        let xf = as_float x.c and yf = as_float y.c in
        let m = Float.abs xf in
        let err =
          Errvec.union
            (fun ex ey ->
              (* a flippable sign of y doubles the magnitude swing *)
              if ey > 0.0 && Float.abs yf <= ey then ex +. (2.0 *. (m +. ex)) else ex)
            x.err y.err
        in
        mk_areal ctx k (if yf >= 0.0 then m else -.m) err (Errvec.atoms_union x.kt y.kt)
      | None ->
        let m = abs (as_int ctx x) in
        pure (Value.Vint (if as_int ctx y >= 0 then m else -m)))
    | _ -> trap "sign expects two arguments")
  | "real" -> (
    match args with
    | [ a ] ->
      let v = eval_expr ctx frame a in
      let x = Fp32.round (as_float v.c) in
      (* result kind is pinned to K4: the kind taint dissolves, the value
         error survives one f32 rounding (real() does not trap non-finite,
         mirroring the interpreter; an overflowing entry poisons inside
         round_err) *)
      { c = Value.Vreal (x, Ast.K4); err = round_err ctx Ast.K4 x v.err Errvec.no_atoms;
        kt = Errvec.no_atoms }
    | [ a; Ast.Int_lit k ] -> (
      let v = eval_expr ctx frame a in
      match Token.kind_of_int k with
      | Some kk ->
        let x = Fp32.of_kind kk (as_float v.c) in
        { c = Value.Vreal (x, kk); err = round_err ctx kk x v.err Errvec.no_atoms;
          kt = Errvec.no_atoms }
      | None -> trap "real(): unsupported kind %d" k)
    | _ -> trap "real() expects (x) or (x, kind)")
  | "dble" ->
    let v = unary () in
    { c = Value.Vreal (as_float v.c, Ast.K8); err = v.err; kt = Errvec.no_atoms }
  | "int" -> pure (Value.Vint (as_int_conv ctx (fun x -> int_of_float x) (unary ())))
  | "nint" ->
    pure (Value.Vint (as_int_conv ctx (fun x -> int_of_float (Float.round x)) (unary ())))
  | "floor" ->
    pure (Value.Vint (as_int_conv ctx (fun x -> int_of_float (Float.floor x)) (unary ())))
  | "dot_product" -> (
    match args with
    | [ Ast.Var a; Ast.Var b ] -> (
      match (resolve ctx frame a, resolve ctx frame b) with
      | ( `Cell (Real_array { kind = ka; data = da; errs = ea; _ }),
          `Cell (Real_array { kind = kb; data = db; errs = eb; _ }) ) ->
        let n = min (Array.length da) (Array.length db) in
        let kind = if ka = Ast.K8 || kb = Ast.K8 then Ast.K8 else Ast.K4 in
        let atoms x =
          match binding_atom ctx frame x with Some i -> [| i |] | None -> Errvec.no_atoms
        in
        let kt = Errvec.atoms_union (atoms a) (atoms b) in
        let s = ref 0.0 and serr = ref Errvec.empty in
        for i = 0 to n - 1 do
          let xa =
            read_view ctx frame a
              { c = Value.Vreal (da.(i), ka); err = ea.(i); kt = Errvec.no_atoms }
          in
          let xb =
            read_view ctx frame b
              { c = Value.Vreal (db.(i), kb); err = eb.(i); kt = Errvec.no_atoms }
          in
          let p = da.(i) *. db.(i) in
          let perr =
            round_err ctx kind (Fp32.of_kind kind p) (Errvec.mul da.(i) db.(i) xa.err xb.err) kt
          in
          let p = Fp32.of_kind kind p in
          let s' = Fp32.of_kind kind (!s +. p) in
          serr := round_err ctx kind s' (Errvec.add !serr perr) kt;
          s := s'
        done;
        mk_areal ctx kind !s !serr kt
      | _ -> trap "dot_product expects two real arrays")
    | _ -> trap "dot_product expects two whole-array arguments")
  | "sum" | "maxval" | "minval" -> (
    match args with
    | [ Ast.Var arr ] -> (
      match resolve ctx frame arr with
      | `Cell (Real_array { kind; data; errs; _ }) ->
        let n = Array.length data in
        let kt =
          match binding_atom ctx frame arr with Some i -> [| i |] | None -> Errvec.no_atoms
        in
        let elem i =
          read_view ctx frame arr
            { c = Value.Vreal (data.(i), kind); err = errs.(i); kt = Errvec.no_atoms }
        in
        (match name with
        | "sum" ->
          let s = ref 0.0 and serr = ref Errvec.empty in
          for i = 0 to n - 1 do
            let x = elem i in
            let s' = Fp32.of_kind kind (!s +. data.(i)) in
            serr := round_err ctx kind s' (Errvec.add !serr x.err) kt;
            s := s'
          done;
          mk_areal ctx kind !s !serr kt
        | "maxval" | "minval" ->
          if n = 0 then trap "%s of empty array" name
          else begin
            let fold = if name = "maxval" then Float.max else Float.min in
            let v = ref data.(0) and err = ref (elem 0).err in
            for i = 1 to n - 1 do
              let x = elem i in
              v := fold !v data.(i);
              err := Errvec.max !err x.err
            done;
            mk_areal ctx kind !v !err kt
          end
        | _ -> assert false)
      | `Cell (Int_array { data; _ }) -> (
        match name with
        | "sum" -> pure (Value.Vint (Array.fold_left ( + ) 0 data))
        | "maxval" -> pure (Value.Vint (Array.fold_left max min_int data))
        | "minval" -> pure (Value.Vint (Array.fold_left min max_int data))
        | _ -> assert false)
      | `Cell (Scalar _ | Log_array _) | `Param _ -> trap "%s of non-array" name)
    | _ -> trap "%s expects a whole-array argument" name)
  | "size" -> (
    match args with
    | [ Ast.Var arr ] -> (
      match resolve ctx frame arr with
      | `Cell (Real_array { dims; _ }) -> pure (Value.Vint (Value.elements dims))
      | `Cell (Int_array { dims; _ }) -> pure (Value.Vint (Value.elements dims))
      | `Cell (Log_array { dims; _ }) -> pure (Value.Vint (Value.elements dims))
      | `Cell (Scalar _) | `Param _ -> trap "size of non-array")
    | [ Ast.Var arr; d ] -> (
      let dim = as_int ctx (eval_expr ctx frame d) in
      match resolve ctx frame arr with
      | `Cell (Real_array { dims; _ })
      | `Cell (Int_array { dims; _ })
      | `Cell (Log_array { dims; _ }) ->
        if dim >= 1 && dim <= Array.length dims then pure (Value.Vint dims.(dim - 1))
        else trap "size: dimension %d out of range" dim
      | `Cell (Scalar _) | `Param _ -> trap "size of non-array")
    | _ -> trap "size expects an array argument")
  | "epsilon" | "huge" | "tiny" -> (
    match unary () with
    | { c = Value.Vreal (_, k); kt; _ } ->
      let model n k =
        match (n, k) with
        | "epsilon", Ast.K8 -> epsilon_float
        | "epsilon", Ast.K4 -> 1.1920928955078125e-07
        | "huge", Ast.K8 -> max_float
        | "huge", Ast.K4 -> Fp32.max_finite
        | "tiny", Ast.K8 -> min_float
        | "tiny", Ast.K4 -> Fp32.min_positive_normal
        | _ -> assert false
      in
      let v = model name k in
      (* a kind-tainted argument flips the inquiry's answer outright in the
         demoted run: the error is the full distance between the kinds *)
      let gap = Float.abs (model name Ast.K4 -. model name Ast.K8) in
      let err =
        if k = Ast.K8 then Array.fold_left (fun m a -> Errvec.set a gap m) Errvec.empty kt
        else Errvec.empty
      in
      { c = Value.Vreal (v, k); err; kt }
    | _ -> trap "%s of non-real value" name)
  | _ -> trap "unknown intrinsic %s" name

(* ------------------------------------------------------------------ *)
(* Procedure calls                                                     *)

and call_user ctx frame name arg_exprs : av option =
  let p =
    match Symtab.find_proc ctx.st name with
    | Some p -> p
    | None -> trap "unknown procedure %s" name
  in
  ctx.depth <- ctx.depth + 1;
  if ctx.depth > 200 then trap "call depth limit exceeded at %s" name;
  if List.length arg_exprs <> List.length p.Ast.params then
    trap "procedure %s expects %d arguments, got %d" name (List.length p.Ast.params)
      (List.length arg_exprs);
  let callee_frame = new_frame ctx (Some name) 16 in
  let copy_out = ref [] in
  List.iter2
    (fun dummy actual ->
      let dinfo =
        match (nonlocal ctx callee_frame dummy).n_info with
        | Some i -> i
        | None -> trap "dummy %s of %s undeclared" dummy name
      in
      if dinfo.v_dims <> [] then begin
        match actual with
        | Ast.Var a -> (
          match resolve ctx frame a with
          | `Cell (Real_array { kind; _ } as cell) -> (
            match dinfo.v_base with
            | Ast.Treal dk when dk = kind ->
              alias_guard ctx frame ~callee:name ~dummy a;
              (match cell with
              | Real_array { data; errs; _ } ->
                let atoms =
                  List.filter_map Fun.id
                    [ ctx.atom_of (Symtab.Proc_scope name, dummy); binding_atom ctx frame a ]
                in
                Array.iteri
                  (fun i e -> errs.(i) <- wrapper_hazard ~dinfo atoms data.(i) e)
                  errs
              | Scalar _ | Int_array _ | Log_array _ -> ());
              Hashtbl.replace callee_frame.vars dummy cell
            | Ast.Treal dk ->
              trap
                "argument %s of %s: real(kind=%d) array passed to real(kind=%d) dummy %s — \
                 wrapper required"
                a name (Token.int_of_kind kind) (Token.int_of_kind dk) dummy
            | Ast.Tinteger | Ast.Tlogical -> trap "array type mismatch for %s of %s" dummy name)
          | `Cell (Int_array _ as cell) -> (
            match dinfo.v_base with
            | Ast.Tinteger -> Hashtbl.replace callee_frame.vars dummy cell
            | Ast.Treal _ | Ast.Tlogical -> trap "array type mismatch for %s of %s" dummy name)
          | `Cell (Log_array _ as cell) -> (
            match dinfo.v_base with
            | Ast.Tlogical -> Hashtbl.replace callee_frame.vars dummy cell
            | Ast.Treal _ | Ast.Tinteger -> trap "array type mismatch for %s of %s" dummy name)
          | `Cell (Scalar _) -> trap "scalar %s passed to array dummy %s of %s" a dummy name
          | `Param _ -> trap "parameter %s passed to array dummy" a)
        | _ -> trap "array dummy %s of %s requires a whole-array actual argument" dummy name
      end
      else begin
        match (actual, dinfo.v_base) with
        | Ast.Var a, _ -> (
          match resolve ctx frame a with
          | `Cell (Scalar r as cell) -> (
            match (!r.c, dinfo.v_base) with
            | Value.Vreal (_, ak), Ast.Treal dk ->
              if ak = dk then begin
                alias_guard ctx frame ~callee:name ~dummy a;
                let atoms =
                  List.filter_map Fun.id
                    [ ctx.atom_of (Symtab.Proc_scope name, dummy); binding_atom ctx frame a ]
                in
                r := { !r with err = wrapper_hazard ~dinfo atoms (as_float !r.c) !r.err };
                Hashtbl.replace callee_frame.vars dummy cell
              end
              else
                trap
                  "argument %s of %s: real(kind=%d) passed to real(kind=%d) dummy %s — wrapper \
                   required"
                  a name (Token.int_of_kind ak) (Token.int_of_kind dk) dummy
            | Value.Vint _, Ast.Tinteger | Value.Vlog _, Ast.Tlogical ->
              Hashtbl.replace callee_frame.vars dummy cell
            | _ -> trap "type mismatch binding %s to dummy %s of %s" a dummy name)
          | `Param v -> bind_by_value ctx callee_frame ~callee:name ~dummy ~dinfo ~actual v
          | `Cell (Real_array _ | Int_array _ | Log_array _) ->
            trap "array %s passed to scalar dummy %s of %s" a dummy name)
        | _, _ ->
          let v = eval_expr ctx frame actual in
          bind_by_value ctx callee_frame ~callee:name ~dummy ~dinfo ~actual v;
          (match (actual, dinfo.v_intent) with
          | Ast.Index (arr_name, idx), (Some Ast.Out | Some Ast.Inout | None) -> (
            match (nonlocal ctx frame arr_name).n_info with
            | Some { v_dims = _ :: _; v_parameter = false; _ } ->
              copy_out := (arr_name, idx, dummy) :: !copy_out
            | Some _ | None -> ())
          | _ -> ())
      end)
    p.Ast.params arg_exprs;
  List.iter
    (fun (info : Symtab.var_info) ->
      if (not (Hashtbl.mem callee_frame.vars info.v_name)) && not info.v_parameter then begin
        let extents =
          List.map (fun d -> as_int ctx (eval_expr ctx callee_frame d)) info.v_dims
        in
        Hashtbl.replace callee_frame.vars info.v_name (alloc_cell info.v_base extents)
      end)
    (Symtab.vars_of_scope ctx.st (Symtab.Proc_scope name));
  List.iter
    (fun (info : Symtab.var_info) ->
      match info.v_init with
      | Some e when not info.v_parameter -> (
        let v = eval_expr ctx callee_frame e in
        match Hashtbl.find_opt callee_frame.vars info.v_name with
        | Some (Scalar r) -> scalar_store ctx callee_frame info.v_name r v
        | Some _ | None -> trap "initializer on array %s unsupported" info.v_name)
      | Some _ | None -> ())
    (Symtab.vars_of_scope ctx.st (Symtab.Proc_scope name));
  let finish () = ctx.depth <- ctx.depth - 1 in
  (match exec_block ctx callee_frame p.Ast.proc_body with
  | () -> ()
  | exception Return_signal -> ()
  | exception e ->
    finish ();
    raise e);
  finish ();
  List.iter
    (fun (arr_name, idx, dummy) ->
      match Hashtbl.find_opt callee_frame.vars dummy with
      | Some (Scalar r) -> (
        match resolve ctx frame arr_name with
        | `Cell cell ->
          array_store ctx frame arr_name cell idx (read_view ctx callee_frame dummy !r)
        | `Param _ -> ())
      | Some _ | None -> ())
    !copy_out;
  match p.Ast.proc_kind with
  | Ast.Subroutine -> None
  | Ast.Function { result } -> (
    match Hashtbl.find_opt callee_frame.vars result with
    | Some (Scalar r) -> Some (read_view ctx callee_frame result !r)
    | Some _ -> trap "array-valued function %s unsupported" name
    | None -> trap "function %s has no result cell" name)

and bind_by_value ctx callee_frame ~callee ~dummy ~dinfo ~actual (v : av) =
  match (dinfo.Symtab.v_base, v.c) with
  | Ast.Treal dk, Value.Vreal (_, ak) ->
    if ak <> dk then begin
      if is_real_literal actual then begin
        (* a kind-mismatched literal actual makes EVERY variant take the
           wrapper at this site; with intent(out) the uninitialised
           temporary can then surface under any atom's demotion, so no
           per-atom bound is attributable — give up on the whole program *)
        if dinfo.v_intent = Some Ast.Out then
          Array.iteri (fun a _ -> poison ctx a) ctx.poisoned;
        Hashtbl.replace callee_frame.vars dummy
          (Scalar (ref (pure (Value.Vreal (Fp32.of_kind dk (as_float v.c), dk)))))
      end
      else
        trap
          "argument %d-ish of %s: real(kind=%d) value passed to real(kind=%d) dummy %s — \
           wrapper required"
          0 callee (Token.int_of_kind ak) (Token.int_of_kind dk) dummy
    end
    else begin
      (* by-value copy: the store into the dummy cell rounds at [dk] *)
      let x = Fp32.of_kind dk (as_float v.c) in
      let kt =
        match ctx.atom_of (Symtab.Proc_scope callee, dummy) with
        | Some a -> Errvec.atoms_add a v.kt
        | None -> v.kt
      in
      let err = wrapper_hazard ~dinfo (Array.to_list kt) x (round_err ctx dk x v.err kt) in
      Hashtbl.replace callee_frame.vars dummy
        (Scalar (ref { c = Value.Vreal (x, dk); err; kt = Errvec.no_atoms }))
    end
  | Ast.Treal dk, Value.Vint i ->
    Hashtbl.replace callee_frame.vars dummy
      (Scalar (ref (pure (Value.Vreal (Fp32.of_kind dk (float_of_int i), dk)))))
  | Ast.Tinteger, Value.Vint _ | Ast.Tlogical, Value.Vlog _ ->
    Hashtbl.replace callee_frame.vars dummy (Scalar (ref { v with kt = Errvec.no_atoms }))
  | _ -> trap "type mismatch binding value to dummy %s of %s" dummy callee

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)

and exec_block ctx frame blk = List.iter (exec_stmt ctx frame) blk

and exec_stmt ctx frame (s : Ast.stmt) =
  step ctx;
  match s.node with
  | Ast.Assign (lhs, rhs) -> (
    let v = eval_expr ctx frame rhs in
    match lhs with
    | Ast.Lvar name -> (
      match resolve ctx frame name with
      | `Cell (Scalar r) -> scalar_store ctx frame name r v
      | `Cell _ -> trap "assignment to whole array %s unsupported" name
      | `Param _ -> trap "assignment to parameter %s" name)
    | Ast.Lindex (name, idx) -> (
      match resolve ctx frame name with
      | `Cell cell -> array_store ctx frame name cell idx v
      | `Param _ -> trap "assignment to parameter %s" name))
  | Ast.Call (name, args) ->
    if Builtins.is_intrinsic_subroutine name then exec_builtin_call ctx frame name args
    else ignore (call_user ctx frame name args)
  | Ast.If (arms, els) ->
    let rec go = function
      | [] -> exec_block ctx frame els
      | (cond, blk) :: rest ->
        if as_bool (eval_expr ctx frame cond).c then exec_block ctx frame blk else go rest
    in
    go arms
  | Ast.Do { var; from_; to_; step = stp_e; body; _ } ->
    let r = scalar_ref ctx frame var in
    let lo = as_int ctx (eval_expr ctx frame from_) in
    let hi = as_int ctx (eval_expr ctx frame to_) in
    let stp = match stp_e with Some e -> as_int ctx (eval_expr ctx frame e) | None -> 1 in
    if stp = 0 then trap "do loop with zero step";
    (try
       let i = ref lo in
       while (stp > 0 && !i <= hi) || (stp < 0 && !i >= hi) do
         r := pure (Value.Vint !i);
         step ctx;
         (try exec_block ctx frame body with Cycle_signal -> ());
         i := !i + stp
       done
     with Exit_signal -> ())
  | Ast.Do_while { cond; body; _ } -> (
    try
      while as_bool (eval_expr ctx frame cond).c do
        step ctx;
        try exec_block ctx frame body with Cycle_signal -> ()
      done
    with Exit_signal -> ())
  | Ast.Select { selector; arms; default } ->
    let sel = eval_expr ctx frame selector in
    let sel_c = sel.c in
    let matches item =
      match (item, sel_c) with
      | Ast.Case_value v, _ -> (
        match ((eval_expr ctx frame v).c, sel_c) with
        | Value.Vint a, Value.Vint b -> a = b
        | Value.Vlog a, Value.Vlog b -> a = b
        | _ -> trap "case value incompatible with selector")
      | Ast.Case_range (lo, hi), Value.Vint x ->
        let above =
          match lo with Some e -> x >= as_int ctx (eval_expr ctx frame e) | None -> true
        in
        let below =
          match hi with Some e -> x <= as_int ctx (eval_expr ctx frame e) | None -> true
        in
        above && below
      | Ast.Case_range _, _ -> trap "case range requires an integer selector"
    in
    let rec go = function
      | [] -> exec_block ctx frame default
      | (items, blk) :: rest ->
        if List.exists matches items then exec_block ctx frame blk else go rest
    in
    go arms
  | Ast.Exit_stmt -> raise Exit_signal
  | Ast.Cycle_stmt -> raise Cycle_signal
  | Ast.Return_stmt -> raise Return_signal
  | Ast.Stop_stmt m -> raise (Stop_signal (Option.value ~default:"" m))
  | Ast.Print_stmt args -> (
    let vs = List.map (fun a -> eval_expr ctx frame a) args in
    match vs with
    | { c = Value.Vstr key; _ } :: rest ->
      List.iter
        (fun (v : av) ->
          match v.c with
          | Value.Vreal (x, _) ->
            ctx.samples <- { s_key = key; s_value = x; s_err = to_map v.err } :: ctx.samples
          | Value.Vint i ->
            ctx.samples <-
              { s_key = key; s_value = float_of_int i; s_err = IMap.empty } :: ctx.samples
          | Value.Vlog _ | Value.Vstr _ -> ())
        rest
    | _ -> ())

and exec_builtin_call ctx frame name args =
  match (name, args) with
  | "mpi_allreduce", [ send; Ast.Var recv; Ast.Str_lit op ] ->
    let v = eval_expr ctx frame send in
    (match op with
    | "sum" | "max" | "min" -> ()
    | _ -> trap "mpi_allreduce: unknown op %s" op);
    let r = scalar_ref ctx frame recv in
    scalar_store ctx frame recv r v
  | "mpi_allreduce", _ -> trap "mpi_allreduce expects (send, recv, 'op')"
  | "mpi_barrier", [] -> ()
  | "mpi_barrier", _ -> trap "mpi_barrier takes no arguments"
  | _, _ -> trap "unknown builtin subroutine %s" name

(* ------------------------------------------------------------------ *)
(* Program entry                                                       *)

let prepare_globals ctx =
  let prog = Symtab.program ctx.st in
  List.iter
    (fun u ->
      let uname = Ast.unit_name u in
      List.iter
        (fun (info : Symtab.var_info) ->
          if not info.v_parameter then begin
            let extents =
              List.map
                (fun d ->
                  match Typecheck.static_int ctx.st ~in_proc:None d with
                  | Some n -> n
                  | None -> trap "module array %s.%s has non-constant extent" uname info.v_name)
                info.v_dims
            in
            Hashtbl.replace ctx.globals (global_key uname info.v_name)
              (alloc_cell info.v_base extents)
          end)
        (Symtab.vars_of_scope ctx.st (Symtab.Unit_scope uname)))
    prog;
  List.iter
    (fun u ->
      let uname = Ast.unit_name u in
      List.iter
        (fun (info : Symtab.var_info) ->
          match info.v_init with
          | Some e when not info.v_parameter -> (
            let frame = new_frame ctx None 1 in
            let v = eval_expr ctx frame e in
            match Hashtbl.find_opt ctx.globals (global_key uname info.v_name) with
            | Some (Scalar r) -> scalar_store ctx frame info.v_name r v
            | Some _ | None -> trap "initializer on module array %s unsupported" info.v_name)
          | Some _ | None -> ())
        (Symtab.vars_of_scope ctx.st (Symtab.Unit_scope uname)))
    prog

(* Index the demotable atoms: only 64-bit declarations can lose precision
   (lowering an already-32-bit atom is the identity). The returned order
   is the order of [atoms]. *)
let index_atoms (atoms : Transform.Assignment.atom list) =
  let tbl = Hashtbl.create 16 in
  let n = ref 0 in
  List.iter
    (fun (a : Transform.Assignment.atom) ->
      if a.Transform.Assignment.a_declared = Ast.K8 then begin
        Hashtbl.replace tbl (a.Transform.Assignment.a_scope, a.Transform.Assignment.a_name) !n;
        incr n
      end)
    atoms;
  (tbl, !n)

(* [callee_touches] oracle for {!alias_guard}: which module variables can
   each procedure (transitively) access by name?  Direct accesses come
   from the def-use summaries — occurrences of a [Unit_scope] variable
   tagged with the procedure they appear in — closed over the call graph. *)
let build_callee_touches st =
  let direct = Hashtbl.create 32 in
  List.iter
    (fun (s : Analysis.Defuse.summary) ->
      match s.scope with
      | Symtab.Unit_scope u ->
        List.iter
          (fun (o : Analysis.Defuse.occurrence) ->
            match o.o_proc with
            | Some p -> Hashtbl.add direct p (u, s.var)
            | None -> ())
          (s.defs @ s.uses)
      | Symtab.Proc_scope _ -> ())
    (Analysis.Defuse.analyze st);
  let cg = Analysis.Callgraph.build st in
  let memo = Hashtbl.create 32 in
  fun callee key ->
    let set =
      match Hashtbl.find_opt memo callee with
      | Some set -> set
      | None ->
        let set = Hashtbl.create 16 in
        List.iter
          (fun p -> List.iter (fun k -> Hashtbl.replace set k ()) (Hashtbl.find_all direct p))
          (Analysis.Callgraph.reachable cg ~roots:[ callee ]);
        Hashtbl.replace memo callee set;
        set
    in
    Hashtbl.mem set key

let analyze ?(max_steps = 20_000_000) ~atoms st =
  let tbl, n_atoms = index_atoms atoms in
  let ctx =
    {
      st;
      atom_of = (fun key -> Hashtbl.find_opt tbl key);
      callee_touches = build_callee_touches st;
      poisoned = Array.make n_atoms false;
      steps = 0;
      max_steps;
      globals = Hashtbl.create 64;
      params = Hashtbl.create 64;
      main_scope = new_scope ();
      proc_scopes = Hashtbl.create 32;
      samples = [];
      depth = 0;
    }
  in
  match
    prepare_globals ctx;
    match Ast.main_of (Symtab.program st) with
    | None -> trap "program has no main unit"
    | Some m ->
      let frame = new_frame ctx None 16 in
      exec_block ctx frame m.Ast.main_body
  with
  | () ->
    Some
      {
        r_status = Finished;
        r_samples = List.rev ctx.samples;
        r_poisoned = ctx.poisoned;
        r_steps = ctx.steps;
      }
  | exception Stop_signal m ->
    Some
      {
        r_status = Stopped m;
        r_samples = List.rev ctx.samples;
        r_poisoned = ctx.poisoned;
        r_steps = ctx.steps;
      }
  | exception (Trap _ | Value.Bounds _ | Return_signal | Exit_signal | Cycle_signal) -> None
  | exception Step_limit -> None

let atom_indices atoms = fst (index_atoms atoms)
