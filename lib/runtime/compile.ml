(* Closure compilation of the [Lower] IR — the one evaluator of
   variant programs.

   Each lowered procedure is translated ONCE into a tree of OCaml
   closures: expressions become [cctx -> rframe -> float/int/bool/value]
   functions with slots, cost sub-tables and static typing decisions
   pre-bound, statements become [cctx -> rframe -> unit]. The
   per-evaluation inner loop then runs no dispatch at all — only the
   closures the program shape already determined.

   Observable behavior is bit-identical to [Interp.run] on the
   unparse→reparse round trip of the same program: every charge in the
   same order (float accumulation order is observable in
   [outcome.cost]), every trap message, every timer bracket. Any
   behavioral edit here must be mirrored in interp.ml and vice versa;
   the [test_lower] equivalence property and golden digests are the
   guard. Two rules keep the compiled code exact:

   - Typed lanes are used only where the declared base type pins the
     runtime representation. Cell tags always match declarations: cells
     are allocated from declared bases, [scalar_store] preserves the
     current tag, and by-reference argument binding traps on any kind
     mismatch. A slot declared real(k) therefore always holds
     [Vreal (_, k)], and the compiled float lane is exact.
   - Anything not statically typable compiles to the value lane [Kv],
     which dispatches on the runtime tag exactly as the interpreter
     does, and evaluates every operand before any trap.

   Compiled procedures are cacheable across variants under the same key
   as [Lower.Cache] ([proc_ir.p_key]): closures never bake procedure
   indices (callees resolve through [rframe.flinks] at runtime), and
   every static decision they do bake — cost sub-tables aside from the
   machine, slot types, callee result types — is a function of the
   declarations that key signs. Parameter and global initializers are
   compiled once per program. *)

open Fortran
open Lower

(* ------------------------------------------------------------------ *)
(* Runtime state                                                       *)

exception Rreturn
exception Rexit
exception Rcycle
exception Rstop of string
exception Rtrap of string
exception Rtimeout

let trap fmt = Format.kasprintf (fun m -> raise (Rtrap m)) fmt
let trap_s m = raise (Rtrap m)

let cat_index =
  let tbl = Hashtbl.create 8 in
  List.iteri (fun i c -> Hashtbl.add tbl c i) Machine.categories;
  fun c -> Hashtbl.find tbl c

let ci_flops = cat_index Machine.Cat_flops
let ci_memory = cat_index Machine.Cat_memory
let ci_convert = cat_index Machine.Cat_convert
let ci_call = cat_index Machine.Cat_call
let ci_reduction = cat_index Machine.Cat_reduction
let ci_loop = cat_index Machine.Cat_loop

type rframe = {
  pname : string;  (* for the out-of-scope trap message *)
  cells : Value.cell option array;  (* None = not yet allocated *)
  flinks : int array;  (* this body's callee index -> proc index *)
}

(* all-float one-field record: stored flat, in-place float update with
   no boxing (a [mutable float] field of this mixed record would box on
   every store — once per charge) *)
type fbox = { mutable fv : float }

type rctx = {
  rprocs : proc_ir array;
  rlinks : int array array;
  raux : int array;
  rmachine : Machine.t;
  rtimers : Timers.t;
  raccs : Timers.acc option array;  (* by proc index, resolved on first entry *)
  rcost : fbox;
  rbudget : float;  (* infinity when unbudgeted *)
  rglobals : Value.cell array;
  rparams : Value.v option array;
  rparam_defs : param array;
  rconv : float array;
  rmemtab : float array;
  mutable rvec : int;  (* mode_idx of the active vectorization mode *)
  mutable rrecords : (string * float) list;  (* reversed *)
  mutable rprinted : string list;  (* reversed *)
  mutable rdepth : int;
  mutable rcharging : bool;
  mutable rin_wrapper : bool;
  rbreakdown : float array;
}

(* Charging runs once per modeled operation; the timers update is
   [Timers.charge] spelled out so the float cost stays unboxed. *)
let[@inline] charge rt i c =
  if rt.rcharging then begin
    rt.rcost.fv <- rt.rcost.fv +. c;
    (* [i] is always one of the [ci_*] constants, all below the
       breakdown array's fixed length — skip the bounds check *)
    Array.unsafe_set rt.rbreakdown i (Array.unsafe_get rt.rbreakdown i +. c);
    let tm = rt.rtimers in
    tm.Timers.top.Timers.exclusive <- tm.Timers.top.Timers.exclusive +. c
  end

let[@inline] check_budget rt = if rt.rcost.fv > rt.rbudget then raise Rtimeout

(* timer accumulator of proc [pidx], cached per run. Lazy on purpose:
   resolving every proc up front would add never-entered procedures to
   the snapshot. *)
let proc_acc rt pidx name =
  match rt.raccs.(pidx) with
  | Some a -> a
  | None ->
    let a = Timers.acc_of rt.rtimers name in
    rt.raccs.(pidx) <- Some a;
    a

(* cold: called only on a non-finite rounded value; always raises *)
let bad_real kind x : float =
  if Float.is_nan x then
    trap "NaN produced in real(kind=%d) arithmetic" (Token.int_of_kind kind)
  else trap "overflow in real(kind=%d) arithmetic" (Token.int_of_kind kind)

(* Local clones of [Fp32.round]/[Fp32.of_kind]: tiny, but a
   cross-module call that fails to inline boxes its float argument and
   result on the hottest paths here. The bit-level computation is
   identical (same externals). *)
let[@inline] round32 x = Int32.float_of_bits (Int32.bits_of_float x)

let[@inline] cround (k : Ast.real_kind) x =
  match k with
  | Ast.K4 -> round32 x
  | Ast.K8 -> x

(* round to [kind], trapping on NaN/overflow; kept small (the trap
   formatting lives in [bad_real]) so the float stays unboxed at
   inlined call sites *)
let[@inline] mk_realf kind x =
  let y = cround kind x in
  if Float.is_finite y then y else bad_real kind y

let mk_real kind x = Value.Vreal (mk_realf kind x, kind)

let as_float = function
  | Value.Vreal (x, _) -> x
  | Value.Vint i -> float_of_int i
  | Value.Vlog _ | Value.Vstr _ -> trap "numeric value expected"

let as_int = function
  | Value.Vint i -> i
  | Value.Vreal (x, _) -> int_of_float x
  | Value.Vlog _ | Value.Vstr _ -> trap "integer value expected"

let as_bool = function
  | Value.Vlog b -> b
  | Value.Vint _ | Value.Vreal _ | Value.Vstr _ -> trap "logical value expected"

let value_kind = function
  | Value.Vreal (_, k) -> Some k
  | Value.Vint _ | Value.Vlog _ | Value.Vstr _ -> None

let promote_kind a b =
  match a, b with
  | Some Ast.K8, _ | _, Some Ast.K8 -> Some Ast.K8
  | Some Ast.K4, _ | _, Some Ast.K4 -> Some Ast.K4
  | None, None -> None

let zero_of_base (base : Ast.base_type) =
  match base with
  | Ast.Treal k -> Value.Vreal (0.0, k)
  | Ast.Tinteger -> Value.Vint 0
  | Ast.Tlogical -> Value.Vlog false

let alloc_cell (base : Ast.base_type) (extents : int list) : Value.cell =
  match extents with
  | [] -> Value.Scalar (ref (zero_of_base base))
  | _ ->
    let dims = Array.of_list extents in
    let n = Value.elements dims in
    if n < 0 || n > 50_000_000 then trap "array allocation of %d elements refused" n;
    (match base with
    | Ast.Treal kind -> Value.Real_array { kind; data = Array.make n 0.0; dims }
    | Ast.Tinteger -> Value.Int_array { data = Array.make n 0; dims }
    | Ast.Tlogical -> Value.Log_array { data = Array.make n false; dims })

(* a store into a scalar cell keeps the cell's tag, converting the value *)
let scalar_store rt r v ~lit =
  match !r, v with
  | Value.Vreal (_, k), _ ->
    (match value_kind v with
    | Some k2 when k2 <> k -> if not lit then charge rt ci_convert rt.rconv.(rt.rvec)
    | _ -> ());
    let x = cround k (as_float v) in
    if not (Float.is_finite x) then
      trap "non-finite value stored to real(kind=%d) scalar" (Token.int_of_kind k);
    r := Value.Vreal (x, k)
  | Value.Vint _, _ -> r := Value.Vint (as_int v)
  | Value.Vlog _, _ -> r := Value.Vlog (as_bool v)
  | Value.Vstr _, _ -> r := v

let bind_by_value cells ~callee ~(d : dummy) ~lit v =
  match d.d_base, v with
  | Ast.Treal dk, Value.Vreal (_, ak) ->
    if ak <> dk then begin
      if lit then
        (* literal kind conversions fold at compile time *)
        cells.(d.d_slot) <-
          Some (Value.Scalar (ref (Value.Vreal (cround dk (as_float v), dk))))
      else
        trap
          "argument %d-ish of %s: real(kind=%d) value passed to real(kind=%d) dummy %s — \
           wrapper required"
          0 callee (Token.int_of_kind ak) (Token.int_of_kind dk) d.d_name
    end
    else cells.(d.d_slot) <- Some (Value.Scalar (ref v))
  | Ast.Treal dk, Value.Vint i ->
    cells.(d.d_slot) <-
      Some (Value.Scalar (ref (Value.Vreal (cround dk (float_of_int i), dk))))
  | Ast.Tinteger, Value.Vint _ | Ast.Tlogical, Value.Vlog _ ->
    cells.(d.d_slot) <- Some (Value.Scalar (ref v))
  | _ -> trap "type mismatch binding value to dummy %s of %s" d.d_name callee

let iarith op x y =
  match op with
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
  | _ -> assert false

(* a non-short-circuit binary operation on two operand values: the
   conversion charge, the op charge and the computation *)
let bin_values rt op ~exempt ~costs ~powmul va vb =
  let ka = value_kind va in
  let kb = value_kind vb in
  (match ka, kb with
  | Some k1, Some k2 when k1 <> k2 ->
    if not exempt then charge rt ci_convert rt.rconv.(rt.rvec)
  | _ -> ());
  match va, vb, op with
  | Value.Vint x, Value.Vint y, (Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Pow) ->
    charge rt ci_flops rt.rmachine.Machine.int_op;
    Value.Vint (iarith op x y)
  | _, _, (Ast.Add | Ast.Sub | Ast.Mul | Ast.Div) ->
    let k =
      match promote_kind ka kb with Some k -> k | None -> trap "numeric operands expected"
    in
    charge rt ci_flops costs.((rt.rvec * 2) + kind_idx k);
    let x = as_float va and y = as_float vb in
    mk_real k
      (match op with
      | Ast.Add -> x +. y
      | Ast.Sub -> x -. y
      | Ast.Mul -> x *. y
      | Ast.Div -> x /. y
      | _ -> assert false)
  | _, _, Ast.Pow -> (
    let k =
      match promote_kind ka kb with Some k -> k | None -> trap "numeric operands expected"
    in
    let x = as_float va in
    match vb with
    | Value.Vint n when abs n <= 4 ->
      charge rt ci_flops
        (powmul.((rt.rvec * 2) + kind_idx k) *. float_of_int (max 1 (abs n - 1)));
      let rec pow acc i = if i = 0 then acc else pow (acc *. x) (i - 1) in
      let v = pow 1.0 (abs n) in
      mk_real k (if n < 0 then 1.0 /. v else v)
    | _ ->
      charge rt ci_flops costs.((rt.rvec * 2) + kind_idx k);
      mk_real k (Float.pow x (as_float vb)))
  | _, _, (Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge) -> (
    charge rt ci_flops rt.rmachine.Machine.compare_cost;
    match va, vb with
    | Value.Vlog x, Value.Vlog y ->
      Value.Vlog
        (match op with
        | Ast.Eq -> x = y
        | Ast.Ne -> x <> y
        | _ -> trap "ordering of logicals")
    | _ ->
      let x = as_float va and y = as_float vb in
      Value.Vlog
        (match op with
        | Ast.Eq -> x = y
        | Ast.Ne -> x <> y
        | Ast.Lt -> x < y
        | Ast.Le -> x <= y
        | Ast.Gt -> x > y
        | Ast.Ge -> x >= y
        | _ -> assert false))
  | _, _, (Ast.And | Ast.Or) -> assert false

(* ------------------------------------------------------------------ *)
(* Compiled forms                                                      *)

(* static type of a slot, derived from its declaration *)
type sty =
  | Sreal of Ast.real_kind
  | Sint
  | Sbool
  | Sarr of Ast.base_type
  | Sunknown

let sty_of_base (b : Ast.base_type) ~is_array =
  if is_array then Sarr b
  else
    match b with
    | Ast.Treal k -> Sreal k
    | Ast.Tinteger -> Sint
    | Ast.Tlogical -> Sbool

type cctx = {
  rt : rctx;
  cprocs : cproc array;
  cparams : (cctx -> rframe -> Value.v) option array;  (* by parameter slot *)
  scratch : fbox;
}

and cproc = {
  ir : proc_ir;
  cbody : cstmt array;
  clocals : clocal array;
  cinits : cinit array;
}

and cstmt = cctx -> rframe -> unit
and clocal = { cl_def : local; cl_dims : (cctx -> rframe -> int) array }
and cinit = { cin_def : initr; cin_rhs : cctx -> rframe -> Value.v }

type ccall = {
  cc : call_site;  (* names, callee index and arity trap *)
  cc_args : carg array;
}

and carg =
  | CAref of { a : string; ar : ref_ }
  | CAval of { cv : cctx -> rframe -> Value.v; lit : bool; co : ccopy option }

(* a copy-out destination with its subscripts precompiled: the write-back
   after the call then runs on the compiled store path instead of
   re-interpreting the index expressions *)
and ccopy = { cco : copy_out; cco_idx : (cctx -> rframe -> int) array }

(* an expression compiles into one of four lanes; the typed lanes carry
   unboxed results and are used only when the static type is certain.
   The float lane does NOT return its result: an indirect OCaml call
   returning [float] boxes on every return, so a float closure instead
   writes [ct.scratch.fv] (a flat store) as its final action and the
   consumer reads it back immediately — a return register, in effect.
   Reads must happen before any further evaluation, since nested
   compiled code reuses the same scratch cell. *)
type cexpr =
  | Kf of (cctx -> rframe -> unit) * Ast.real_kind  (* result in scratch *)
  | Ki of (cctx -> rframe -> int)
  | Kb of (cctx -> rframe -> bool)
  | Kv of (cctx -> rframe -> Value.v)

(* ------------------------------------------------------------------ *)
(* Lane views. Conversions mirror [as_float]/[as_int]/[as_bool]: the
   operand is always evaluated (with its charges) before any trap.      *)

let force = function
  | Kf (f, k) ->
    fun ct fr ->
      f ct fr;
      Value.Vreal (ct.scratch.fv, k)
  | Ki f -> fun ct fr -> Value.Vint (f ct fr)
  | Kb f -> fun ct fr -> Value.Vlog (f ct fr)
  | Kv f -> f

(* float view: evaluate and leave the float in [ct.scratch.fv] *)
let fput = function
  | Kf (f, _) -> f
  | Ki f -> fun ct fr -> ct.scratch.fv <- float_of_int (f ct fr)
  | Kb f ->
    fun ct fr ->
      ignore (f ct fr : bool);
      trap_s "numeric value expected"
  | Kv f -> fun ct fr -> ct.scratch.fv <- as_float (f ct fr)

let iview = function
  | Ki f -> f
  | Kf (f, _) ->
    fun ct fr ->
      f ct fr;
      int_of_float ct.scratch.fv
  | Kb f ->
    fun ct fr ->
      ignore (f ct fr : bool);
      trap_s "integer value expected"
  | Kv f -> fun ct fr -> as_int (f ct fr)

let bview = function
  | Kb f -> f
  | Kf (f, _) ->
    fun ct fr ->
      f ct fr;
      trap_s "logical value expected"
  | Ki f ->
    fun ct fr ->
      ignore (f ct fr : int);
      trap_s "logical value expected"
  | Kv f -> fun ct fr -> as_bool (f ct fr)

(* cost sub-table for a statically-known kind: indexed by [rt.rvec] *)
let sub3 costs k =
  let ki = kind_idx k in
  [| costs.(ki); costs.(2 + ki); costs.(4 + ki) |]

(* subscripts: int_op charged before each index evaluates *)
let eval_cidx (cidx : (cctx -> rframe -> int) array) ct fr : int array =
  let rt = ct.rt in
  let n = Array.length cidx in
  let out = Array.make n 0 in
  for i = 0 to n - 1 do
    charge rt ci_flops rt.rmachine.Machine.int_op;
    out.(i) <- cidx.(i) ct fr
  done;
  out

(* [Value.offset] on an int array: same checks, same messages *)
let offset_arr ~name ~dims (idx : int array) =
  let rank = Array.length dims in
  if Array.length idx <> rank then
    raise
      (Value.Bounds
         (Printf.sprintf "%s: rank %d but %d subscripts" name rank (Array.length idx)));
  let off = ref 0 in
  let stride = ref 1 in
  for d = 0 to rank - 1 do
    let i = idx.(d) in
    if i < 1 || i > dims.(d) then
      raise
        (Value.Bounds
           (Printf.sprintf "%s: subscript %d of dimension %d out of range [1,%d]" name i (d + 1)
              dims.(d)));
    off := !off + ((i - 1) * !stride);
    stride := !stride * dims.(d)
  done;
  !off

(* kept as a direct call so the floats never box: an indirect arithmetic
   closure would box both arguments and the result on every operation *)
let[@inline] arith4 op (x : float) (y : float) =
  match op with
  | Ast.Add -> x +. y
  | Ast.Sub -> x -. y
  | Ast.Mul -> x *. y
  | Ast.Div -> x /. y
  | _ -> assert false

(* small-exponent x**n as the same left-associated chain the generic
   loop produces (so bit-identical), but inlined: a local recursive
   helper would allocate its closure and box the accumulator on every
   call *)
let[@inline] ipow4 (x : float) (n : int) =
  match n with
  | 0 -> 1.0
  | 1 -> 1.0 *. x
  | 2 -> 1.0 *. x *. x
  | 3 -> 1.0 *. x *. x *. x
  | _ -> 1.0 *. x *. x *. x *. x

(* [Vint] blocks are immutable, so the small values every loop counter
   passes through can be shared instead of freshly boxed per iteration *)
let vint_cache = Array.init 4097 (fun i -> Value.Vint i)

let[@inline] vint i = if i >= 0 && i <= 4096 then vint_cache.(i) else Value.Vint i

(* [offset_arr] specialized to one subscript — most accesses in the
   models are rank-1, and the generic path pays an index-array
   allocation per access. Same checks, same messages. *)
let[@inline] offset1 ~name ~(dims : int array) i =
  if Array.length dims <> 1 then
    raise
      (Value.Bounds (Printf.sprintf "%s: rank %d but %d subscripts" name (Array.length dims) 1));
  if i < 1 || i > dims.(0) then
    raise
      (Value.Bounds
         (Printf.sprintf "%s: subscript %d of dimension %d out of range [1,%d]" name i 1 dims.(0)));
  i - 1

(* ... and to two subscripts (column-model arrays): same checks in the
   same order as [offset_arr]'s loop *)
let[@inline] offset2 ~name ~(dims : int array) i j =
  if Array.length dims <> 2 then
    raise
      (Value.Bounds (Printf.sprintf "%s: rank %d but %d subscripts" name (Array.length dims) 2));
  if i < 1 || i > dims.(0) then
    raise
      (Value.Bounds
         (Printf.sprintf "%s: subscript %d of dimension %d out of range [1,%d]" name i 1 dims.(0)));
  if j < 1 || j > dims.(1) then
    raise
      (Value.Bounds
         (Printf.sprintf "%s: subscript %d of dimension %d out of range [1,%d]" name j 2 dims.(1)));
  i - 1 + ((j - 1) * dims.(0))

let[@inline] cmp_fn op (x : float) (y : float) =
  match op with
  | Ast.Eq -> x = y
  | Ast.Ne -> x <> y
  | Ast.Lt -> x < y
  | Ast.Le -> x <= y
  | Ast.Gt -> x > y
  | Ast.Ge -> x >= y
  | _ -> assert false

(* indexed store with compiled index closures: indices (charging int_op
   each), then tag dispatch, charges, rounding, finite trap, and the
   bounds check last — reached from both compiled assignments and the
   compiled copy-out path *)
let cstore ct fr name cell cidx ~lit v =
  if Array.length cidx = 1 then begin
    (* rank-1: same charge order as [eval_cidx] + the generic arms,
       minus the index-array allocation *)
    let rt = ct.rt in
    charge rt ci_flops rt.rmachine.Machine.int_op;
    let i = cidx.(0) ct fr in
    match cell with
    | Value.Real_array { kind; data; dims } ->
      charge rt ci_memory rt.rmemtab.((rt.rvec * 2) + kind_idx kind);
      (match value_kind v with
      | Some k when k <> kind -> if not lit then charge rt ci_convert rt.rconv.(rt.rvec)
      | _ -> ());
      let x = cround kind (as_float v) in
      if not (Float.is_finite x) then
        trap "non-finite value stored to %s (real(kind=%d))" name (Token.int_of_kind kind);
      data.(offset1 ~name ~dims i) <- x
    | Value.Int_array { data; dims } ->
      charge rt ci_flops rt.rmachine.Machine.int_op;
      data.(offset1 ~name ~dims i) <- as_int v
    | Value.Log_array { data; dims } -> data.(offset1 ~name ~dims i) <- as_bool v
    | Value.Scalar _ -> trap "scalar %s subscripted" name
  end
  else
  let rt = ct.rt in
  let ix = eval_cidx cidx ct fr in
  match cell with
  | Value.Real_array { kind; data; dims } ->
    charge rt ci_memory rt.rmemtab.((rt.rvec * 2) + kind_idx kind);
    (match value_kind v with
    | Some k when k <> kind -> if not lit then charge rt ci_convert rt.rconv.(rt.rvec)
    | _ -> ());
    let x = cround kind (as_float v) in
    if not (Float.is_finite x) then
      trap "non-finite value stored to %s (real(kind=%d))" name (Token.int_of_kind kind);
    data.(offset_arr ~name ~dims ix) <- x
  | Value.Int_array { data; dims } ->
    charge rt ci_flops rt.rmachine.Machine.int_op;
    data.(offset_arr ~name ~dims ix) <- as_int v
  | Value.Log_array { data; dims } -> data.(offset_arr ~name ~dims ix) <- as_bool v
  | Value.Scalar _ -> trap "scalar %s subscripted" name

(* ------------------------------------------------------------------ *)
(* Name resolution at run time                                         *)

(* Parameters are forced on first use and memoized for the run, with
   charging off: their initializers fold at compile time in the modeled
   build. A trap inside an initializer leaves charging off, as the
   reference does. *)
let force_param ct slot =
  let rt = ct.rt in
  match rt.rparams.(slot) with
  | Some v -> v
  | None ->
    let pd = rt.rparam_defs.(slot) in
    let init =
      match ct.cparams.(slot) with
      | Some f -> f
      | None -> trap "parameter %s has no initializer" pd.pa_name
    in
    let saved = rt.rcharging in
    rt.rcharging <- false;
    let v = init ct { pname = ""; cells = [||]; flinks = rt.raux } in
    rt.rcharging <- saved;
    let v =
      match pd.pa_base with
      | Ast.Treal k -> Value.Vreal (cround k (as_float v), k)
      | Ast.Tinteger -> Value.Vint (as_int v)
      | Ast.Tlogical -> Value.Vlog (as_bool v)
    in
    rt.rparams.(slot) <- Some v;
    v

let resolve_g ct fr name (r : ref_) : [ `Cell of Value.cell | `Param of Value.v ] =
  match r with
  | Rerr m -> trap_s m
  | Rparam s -> `Param (force_param ct s)
  | Rlocal i -> (
    match fr.cells.(i) with
    | Some c -> `Cell c
    | None -> trap "variable %s local to %s referenced out of scope" name fr.pname)
  | Rglobal i -> `Cell ct.rt.rglobals.(i)

let scalar_ref ct fr name (r : ref_) =
  match resolve_g ct fr name r with
  | `Cell (Value.Scalar sr) -> sr
  | `Cell (Value.Real_array _ | Value.Int_array _ | Value.Log_array _) ->
    trap "array %s used as a scalar" name
  | `Param _ -> trap "parameter %s cannot be assigned" name

(* bind a whole-variable actual [a] (resolved through [r]) to dummy [d] of
   [callee]: by reference when the kinds line up, trapping with the same
   messages as the tree-walker otherwise *)
let bind_arg_ref ct fr cells ~callee:name ~(d : dummy) a r =
  if d.d_is_array then (
    match resolve_g ct fr a r with
    | `Cell (Value.Real_array { kind; _ } as cell) -> (
      match d.d_base with
      | Ast.Treal dk when dk = kind -> cells.(d.d_slot) <- Some cell
      | Ast.Treal dk ->
        trap
          "argument %s of %s: real(kind=%d) array passed to real(kind=%d) dummy %s — \
           wrapper required"
          a name (Token.int_of_kind kind) (Token.int_of_kind dk) d.d_name
      | Ast.Tinteger | Ast.Tlogical -> trap "array type mismatch for %s of %s" d.d_name name)
    | `Cell (Value.Int_array _ as cell) -> (
      match d.d_base with
      | Ast.Tinteger -> cells.(d.d_slot) <- Some cell
      | Ast.Treal _ | Ast.Tlogical -> trap "array type mismatch for %s of %s" d.d_name name)
    | `Cell (Value.Log_array _ as cell) -> (
      match d.d_base with
      | Ast.Tlogical -> cells.(d.d_slot) <- Some cell
      | Ast.Treal _ | Ast.Tinteger -> trap "array type mismatch for %s of %s" d.d_name name)
    | `Cell (Value.Scalar _) -> trap "scalar %s passed to array dummy %s of %s" a d.d_name name
    | `Param _ -> trap "parameter %s passed to array dummy" a)
  else (
    match resolve_g ct fr a r with
    | `Cell (Value.Scalar sr as cell) -> (
      match !sr, d.d_base with
      | Value.Vreal (_, ak), Ast.Treal dk ->
        if ak = dk then cells.(d.d_slot) <- Some cell
        else
          trap
            "argument %s of %s: real(kind=%d) passed to real(kind=%d) dummy %s — wrapper \
             required"
            a name (Token.int_of_kind ak) (Token.int_of_kind dk) d.d_name
      | Value.Vint _, Ast.Tinteger | Value.Vlog _, Ast.Tlogical ->
        cells.(d.d_slot) <- Some cell
      | _ -> trap "type mismatch binding %s to dummy %s of %s" a d.d_name name)
    | `Param v -> bind_by_value cells ~callee:name ~d ~lit:false v
    | `Cell (Value.Real_array _ | Value.Int_array _ | Value.Log_array _) ->
      trap "array %s passed to scalar dummy %s of %s" a d.d_name name)

(* ------------------------------------------------------------------ *)
(* Compiled call protocol: the callee resolves through [flinks] at
   run time, so compiled procedures stay cacheable across variants.   *)

(* a [for] rather than [Array.iter]: the iter closure would capture
   [ct]/[fr] and so allocate on every block execution — once per loop
   iteration in the models' innermost loops *)
let exec_cblock ct fr (blk : cstmt array) =
  for i = 0 to Array.length blk - 1 do
    blk.(i) ct fr
  done

let rec copy_back ct fr cells = function
  | [] -> ()
  | ((cc : ccopy), slot) :: rest ->
    (match cells.(slot) with
    | Some (Value.Scalar r) -> (
      match resolve_g ct fr cc.cco.co_name cc.cco.co_r with
      | `Cell cell -> cstore ct fr cc.cco.co_name cell cc.cco_idx ~lit:false !r
      | `Param _ -> ())
    | Some _ | None -> ());
    copy_back ct fr cells rest

let rec cdims_from (cl : clocal) ct callee i acc =
  if i = Array.length cl.cl_dims then List.rev acc
  else cdims_from cl ct callee (i + 1) (cl.cl_dims.(i) ct callee :: acc)

let[@inline] cdims cl ct callee = cdims_from cl ct callee 0 []

let exec_ccall ct fr (ca : ccall) : Value.v option =
  let rt = ct.rt in
  let cs = ca.cc in
  if cs.cs_callee = -1 then
    (* unknown procedure: the reference traps before the depth increment *)
    trap_s (match cs.cs_arity_trap with Some m -> m | None -> assert false);
  let name = cs.cs_name in
  rt.rdepth <- rt.rdepth + 1;
  if rt.rdepth > 200 then trap "call depth limit exceeded at %s" name;
  check_budget rt;
  (match cs.cs_arity_trap with Some m -> trap_s m | None -> ());
  let pidx = fr.flinks.(cs.cs_callee) in
  let cp = ct.cprocs.(pidx) in
  let ir = cp.ir in
  let cells = Array.make ir.p_nslots None in
  let copy_out = ref [] in
  let nargs = Array.length ca.cc_args in
  for i = 0 to nargs - 1 do
    let d = ir.p_dummies.(i) in
    if d.d_undeclared then trap "dummy %s of %s undeclared" d.d_name name;
    match ca.cc_args.(i) with
    | CAref { a; ar } -> bind_arg_ref ct fr cells ~callee:name ~d a ar
    | CAval { cv; lit; co } ->
      if d.d_is_array then
        trap "array dummy %s of %s requires a whole-array actual argument" d.d_name name
      else begin
        let v = cv ct fr in
        bind_by_value cells ~callee:name ~d ~lit v;
        match co with
        | Some c when d.d_writable -> copy_out := (c, d.d_slot) :: !copy_out
        | Some _ | None -> ()
      end
  done;
  let callee = { pname = ir.p_name; cells; flinks = rt.rlinks.(pidx) } in
  (* plain [for] loops below: [Array.iter]/[List.iter] thunks would
     capture [ct]/[callee] and allocate on every call *)
  for li = 0 to Array.length cp.clocals - 1 do
    let cl = cp.clocals.(li) in
    cells.(cl.cl_def.l_slot) <- Some (alloc_cell cl.cl_def.l_base (cdims cl ct callee))
  done;
  for ii = 0 to Array.length cp.cinits - 1 do
    let ci = cp.cinits.(ii) in
    let v = ci.cin_rhs ct callee in
    match cells.(ci.cin_def.i_slot) with
    | Some (Value.Scalar r) -> scalar_store rt r v ~lit:ci.cin_def.i_lit
    | Some _ | None -> trap "initializer on array %s unsupported" ci.cin_def.i_name
  done;
  let is_wrapper = ir.p_is_wrapper in
  let inl = (not is_wrapper) && (not rt.rin_wrapper) && ir.p_inlinable in
  if not is_wrapper then
    Timers.enter_acc rt.rtimers (proc_acc rt pidx ir.p_name) ir.p_name ~now:rt.rcost.fv;
  if not inl then begin
    charge rt ci_call rt.rmachine.Machine.call_overhead;
    if is_wrapper then charge rt ci_call rt.rmachine.Machine.wrapper_overhead
  end;
  let saved_vec = rt.rvec in
  let saved_in_wrapper = rt.rin_wrapper in
  if not inl then rt.rvec <- 0;
  rt.rin_wrapper <- is_wrapper;
  (* [finish] spelled out at both exits rather than bound to a closure:
     it would be allocated per call *)
  (match exec_cblock ct callee cp.cbody with
  | () -> ()
  | exception Rreturn -> ()
  | exception e ->
    if not is_wrapper then Timers.exit_ rt.rtimers ~now:rt.rcost.fv;
    rt.rvec <- saved_vec;
    rt.rin_wrapper <- saved_in_wrapper;
    rt.rdepth <- rt.rdepth - 1;
    raise e);
  if not is_wrapper then Timers.exit_ rt.rtimers ~now:rt.rcost.fv;
  rt.rvec <- saved_vec;
  rt.rin_wrapper <- saved_in_wrapper;
  rt.rdepth <- rt.rdepth - 1;
  copy_back ct fr cells !copy_out;
  if not ir.p_is_function then None
  else if ir.p_result = -2 then trap "function %s has no result cell" name
  else (
    match cells.(ir.p_result) with
    | Some (Value.Scalar r) -> Some !r
    | Some _ -> trap "array-valued function %s unsupported" name
    | None -> trap "function %s has no result cell" name)

(* ------------------------------------------------------------------ *)
(* Compile-time environment                                            *)

type cenv = {
  prog : program;
  gsty : sty array;  (* by global slot *)
  psty : sty array;  (* by parameter slot *)
  fsty : sty array;  (* by frame slot of the procedure being compiled *)
  clinks : int array;  (* this body's callee index -> proc index *)
}

let sty_of_ref env = function
  | Rlocal i -> if i >= 0 && i < Array.length env.fsty then env.fsty.(i) else Sunknown
  | Rglobal i -> if i >= 0 && i < Array.length env.gsty then env.gsty.(i) else Sunknown
  | Rparam i -> if i >= 0 && i < Array.length env.psty then env.psty.(i) else Sunknown
  | Rerr _ -> Sunknown

(* result type of the function behind a call site, pinned by the cache
   key: the callee is reachable, so its scope signature signs every real
   kind this decision depends on *)
let callee_result_sty env (cs : call_site) : sty =
  if cs.cs_callee < 0 || cs.cs_callee >= Array.length env.clinks then Sunknown
  else
    match env.clinks.(cs.cs_callee) with
    | -1 -> Sunknown
    | pidx ->
      let ir = env.prog.procs.(pidx) in
      if (not ir.p_is_function) || ir.p_result < 0 then Sunknown
      else begin
        let found = ref Sunknown in
        Array.iter
          (fun (l : local) ->
            if l.l_slot = ir.p_result then
              found := sty_of_base l.l_base ~is_array:(l.l_dims <> [||]))
          ir.p_locals;
        Array.iter
          (fun (d : dummy) ->
            if (not d.d_undeclared) && d.d_slot = ir.p_result then
              found := sty_of_base d.d_base ~is_array:d.d_is_array)
          ir.p_dummies;
        !found
      end

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)

(* A parameter named where an array is expected: it is forced (its
   initializer may trap) and then reads as a scalar cell, which every
   such site rejects with the message it gives a scalar. *)
let param_cell = Value.Scalar (ref (Value.Vint 0))

(* the cell a subscripted or whole-array reference names *)
let whole_cell name (r : ref_) : cctx -> rframe -> Value.cell =
  match r with
  | Rerr m -> fun _ _ -> trap_s m
  | Rparam s ->
    fun ct _ ->
      ignore (force_param ct s : Value.v);
      param_cell
  | Rlocal i ->
    fun _ fr -> (
      match fr.cells.(i) with
      | Some c -> c
      | None -> trap "variable %s local to %s referenced out of scope" name fr.pname)
  | Rglobal i -> fun ct _ -> ct.rt.rglobals.(i)

(* epsilon/huge/tiny of a real(kind) operand *)
let inquiry name (k : Ast.real_kind) =
  match name, k with
  | "epsilon", Ast.K8 -> epsilon_float
  | "epsilon", Ast.K4 -> 1.1920928955078125e-07
  | "huge", Ast.K8 -> max_float
  | "huge", Ast.K4 -> Fp32.max_finite
  | "tiny", Ast.K8 -> min_float
  | "tiny", Ast.K4 -> Fp32.min_positive_normal
  | _ -> assert false

(* min/max over operands of no static type: every argument evaluates,
   then the arity check, then one charge at the promoted kind *)
let minmax_values name costs (fs : (cctx -> rframe -> Value.v) array) : cexpr =
  let n = Array.length fs in
  Kv
    (fun ct fr ->
      let rt = ct.rt in
      let vs = Array.map (fun f -> f ct fr) fs in
      if n < 2 then trap "%s needs at least two arguments" name;
      match Array.fold_left (fun acc v -> promote_kind acc (value_kind v)) None vs with
      | None ->
        charge rt ci_flops rt.rmachine.Machine.int_op;
        let xs = Array.map as_int vs in
        let pick : int -> int -> int = if name = "min" then min else max in
        let acc = ref xs.(0) in
        for i = 1 to n - 1 do
          acc := pick !acc xs.(i)
        done;
        Value.Vint !acc
      | Some k ->
        charge rt ci_flops costs.((rt.rvec * 2) + kind_idx k);
        let xs = Array.map as_float vs in
        let pick = if name = "min" then Float.min else Float.max in
        let acc = ref xs.(0) in
        for i = 1 to n - 1 do
          acc := pick !acc xs.(i)
        done;
        mk_real k !acc)

(* dot_product of two real arrays: 2n adds and 2n loads at the promoted
   kind, rounding after every multiply and every add *)
let dot_real rt ka (da : float array) kb (db : float array) =
  let n = min (Array.length da) (Array.length db) in
  let kind = if ka = Ast.K8 || kb = Ast.K8 then Ast.K8 else Ast.K4 in
  let l = Machine.lanes rt.rmachine kind in
  charge rt ci_flops (2.0 *. float_of_int n *. Machine.op_cost rt.rmachine ~lanes:l kind Ast.Add);
  charge rt ci_memory (2.0 *. float_of_int n *. Machine.mem_cost rt.rmachine ~lanes:l kind);
  let s = ref 0.0 in
  for i = 0 to n - 1 do
    s := cround kind (!s +. cround kind (da.(i) *. db.(i)))
  done;
  mk_real kind !s

(* sum/maxval/minval of a whole array *)
let reduce rt name (cell : Value.cell) =
  match cell with
  | Value.Real_array { kind; data; _ } -> (
    let n = Array.length data in
    let l = Machine.lanes rt.rmachine kind in
    charge rt ci_flops (float_of_int n *. Machine.op_cost rt.rmachine ~lanes:l kind Ast.Add);
    charge rt ci_memory (float_of_int n *. Machine.mem_cost rt.rmachine ~lanes:l kind);
    match name with
    | "sum" ->
      let s = ref 0.0 in
      for i = 0 to n - 1 do
        s := cround kind (!s +. data.(i))
      done;
      mk_real kind !s
    | "maxval" | "minval" ->
      if n = 0 then trap "%s of empty array" name;
      let is_max = name = "maxval" in
      let m = ref data.(0) in
      for i = 0 to n - 1 do
        m := if is_max then Float.max !m data.(i) else Float.min !m data.(i)
      done;
      mk_real kind !m
    | _ -> assert false)
  | Value.Int_array { data; _ } -> (
    charge rt ci_flops (float_of_int (Array.length data) *. rt.rmachine.Machine.int_op);
    match name with
    | "sum" -> Value.Vint (Array.fold_left ( + ) 0 data)
    | "maxval" -> Value.Vint (Array.fold_left max min_int data)
    | "minval" -> Value.Vint (Array.fold_left min max_int data)
    | _ -> assert false)
  | Value.Scalar _ | Value.Log_array _ -> trap "%s of non-array" name

let rec compile_expr env (e : expr) : cexpr =
  match e with
  | Elit (Value.Vreal (x, k)) -> Kf ((fun ct _ -> ct.scratch.fv <- x), k)
  | Elit (Value.Vint i) -> Ki (fun _ _ -> i)
  | Elit (Value.Vlog b) -> Kb (fun _ _ -> b)
  | Elit (Value.Vstr _ as v) -> Kv (fun _ _ -> v)
  | Evar { name; r } -> (
    match r with
    | Rerr m -> Kv (fun _ _ -> trap_s m)
    | Rparam s -> (
      match env.psty.(s) with
      | Sreal k -> Kf ((fun ct _ -> ct.scratch.fv <- as_float (force_param ct s)), k)
      | Sint -> Ki (fun ct _ -> as_int (force_param ct s))
      | Sbool -> Kb (fun ct _ -> as_bool (force_param ct s))
      | Sarr _ | Sunknown -> Kv (fun ct _ -> force_param ct s))
    | Rlocal i -> (
      match sty_of_ref env r with
      | Sreal k ->
        Kf
          ( (fun ct fr ->
              match fr.cells.(i) with
              | Some (Value.Scalar sr) -> ct.scratch.fv <- as_float !sr
              | Some _ -> trap "whole array %s used as a value" name
              | None -> trap "variable %s local to %s referenced out of scope" name fr.pname),
            k )
      | Sint ->
        Ki
          (fun _ fr ->
            match fr.cells.(i) with
            | Some (Value.Scalar sr) -> as_int !sr
            | Some _ -> trap "whole array %s used as a value" name
            | None -> trap "variable %s local to %s referenced out of scope" name fr.pname)
      | Sbool ->
        Kb
          (fun _ fr ->
            match fr.cells.(i) with
            | Some (Value.Scalar sr) -> as_bool !sr
            | Some _ -> trap "whole array %s used as a value" name
            | None -> trap "variable %s local to %s referenced out of scope" name fr.pname)
      | Sarr _ | Sunknown ->
        Kv
          (fun _ fr ->
            match fr.cells.(i) with
            | Some (Value.Scalar sr) -> !sr
            | Some _ -> trap "whole array %s used as a value" name
            | None -> trap "variable %s local to %s referenced out of scope" name fr.pname))
    | Rglobal i -> (
      match sty_of_ref env r with
      | Sreal k ->
        Kf
          ( (fun ct _ ->
              match ct.rt.rglobals.(i) with
              | Value.Scalar sr -> ct.scratch.fv <- as_float !sr
              | _ -> trap "whole array %s used as a value" name),
            k )
      | Sint ->
        Ki
          (fun ct _ ->
            match ct.rt.rglobals.(i) with
            | Value.Scalar sr -> as_int !sr
            | _ -> trap "whole array %s used as a value" name)
      | Sbool ->
        Kb
          (fun ct _ ->
            match ct.rt.rglobals.(i) with
            | Value.Scalar sr -> as_bool !sr
            | _ -> trap "whole array %s used as a value" name)
      | Sarr _ | Sunknown ->
        Kv
          (fun ct _ ->
            match ct.rt.rglobals.(i) with
            | Value.Scalar sr -> !sr
            | _ -> trap "whole array %s used as a value" name)))
  | Eneg { e = e1; costs } -> (
    match compile_expr env e1 with
    | Kf (f, k) ->
      let sub = sub3 costs k in
      Kf
        ( (fun ct fr ->
            f ct fr;
            let x = ct.scratch.fv in
            let rt = ct.rt in
            charge rt ci_flops sub.(rt.rvec);
            ct.scratch.fv <- mk_realf k (-.x)),
          k )
    | Ki f ->
      Ki
        (fun ct fr ->
          let i = f ct fr in
          let rt = ct.rt in
          charge rt ci_flops rt.rmachine.Machine.int_op;
          -i)
    | Kb f ->
      Kv
        (fun ct fr ->
          ignore (f ct fr : bool);
          trap_s "negation of non-numeric value")
    | Kv f ->
      Kv
        (fun ct fr ->
          let rt = ct.rt in
          match f ct fr with
          | Value.Vint i ->
            charge rt ci_flops rt.rmachine.Machine.int_op;
            Value.Vint (-i)
          | Value.Vreal (x, k) ->
            charge rt ci_flops costs.((rt.rvec * 2) + kind_idx k);
            mk_real k (-.x)
          | Value.Vlog _ | Value.Vstr _ -> trap_s "negation of non-numeric value"))
  | Enot e1 ->
    let f = bview (compile_expr env e1) in
    Kb (fun ct fr -> not (f ct fr))
  | Ebin { op; a; b; exempt; costs; powmul } -> compile_bin env op a b exempt costs powmul
  | Earr { name; r; idx; mem } -> compile_load env name r idx mem
  | Ecall cs -> (
    let ca = compile_call env cs in
    match callee_result_sty env cs with
    | Sreal k ->
      Kf
        ( (fun ct fr ->
            match exec_ccall ct fr ca with
            | Some v -> ct.scratch.fv <- as_float v
            | None -> trap "subroutine %s called as a function" cs.cs_name),
          k )
    | Sint ->
      Ki
        (fun ct fr ->
          match exec_ccall ct fr ca with
          | Some v -> as_int v
          | None -> trap "subroutine %s called as a function" cs.cs_name)
    | Sbool ->
      Kb
        (fun ct fr ->
          match exec_ccall ct fr ca with
          | Some v -> as_bool v
          | None -> trap "subroutine %s called as a function" cs.cs_name)
    | Sarr _ | Sunknown ->
      Kv
        (fun ct fr ->
          match exec_ccall ct fr ca with
          | Some v -> v
          | None -> trap "subroutine %s called as a function" cs.cs_name))
  | Eintr it -> compile_intr env it
  | Etrap m -> Kv (fun _ _ -> trap_s m)

and compile_bin env op a b exempt costs powmul : cexpr =
  let ca = compile_expr env a in
  let cb = compile_expr env b in
  (* untyped operands: both forced, then [bin_values] *)
  let gen_bin () =
    let fa = force ca and fb = force cb in
    Kv
      (fun ct fr ->
        let va = fa ct fr in
        let vb = fb ct fr in
        bin_values ct.rt op ~exempt ~costs ~powmul va vb)
  in
  match op with
  | Ast.And ->
    let fa = bview ca and fb = bview cb in
    Kb (fun ct fr -> if fa ct fr then fb ct fr else false)
  | Ast.Or ->
    let fa = bview ca and fb = bview cb in
    Kb (fun ct fr -> if fa ct fr then true else fb ct fr)
  | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div -> (
    match ca, cb with
    | Ki fa, Ki fb ->
      Ki
        (fun ct fr ->
          let x = fa ct fr in
          let y = fb ct fr in
          let rt = ct.rt in
          charge rt ci_flops rt.rmachine.Machine.int_op;
          iarith op x y)
    | (Kf _ | Ki _), (Kf _ | Ki _) ->
      let k, conv =
        match ca, cb with
        | Kf (_, k1), Kf (_, k2) ->
          ((if k1 = Ast.K8 || k2 = Ast.K8 then Ast.K8 else Ast.K4), k1 <> k2 && not exempt)
        | Kf (_, k), _ | _, Kf (_, k) -> (k, false)
        | _ -> assert false
      in
      let sub = sub3 costs k in
      let fa = fput ca and fb = fput cb in
      Kf
        ( (fun ct fr ->
            fa ct fr;
            let x = ct.scratch.fv in
            fb ct fr;
            let y = ct.scratch.fv in
            let rt = ct.rt in
            if conv then charge rt ci_convert rt.rconv.(rt.rvec);
            charge rt ci_flops sub.(rt.rvec);
            ct.scratch.fv <- mk_realf k (arith4 op x y)),
          k )
    | _ -> gen_bin ())
  | Ast.Pow -> (
    match ca, cb with
    | Ki fa, Ki fb ->
      Ki
        (fun ct fr ->
          let x = fa ct fr in
          let y = fb ct fr in
          let rt = ct.rt in
          charge rt ci_flops rt.rmachine.Machine.int_op;
          iarith Ast.Pow x y)
    | Kf (fa, k), Ki fb ->
      (* runtime integer exponent: strength-reduced when |n| <= 4 *)
      let psub = sub3 powmul k and csub = sub3 costs k in
      Kf
        ( (fun ct fr ->
            fa ct fr;
            let x = ct.scratch.fv in
            let n = fb ct fr in
            let rt = ct.rt in
            if abs n <= 4 then begin
              charge rt ci_flops (psub.(rt.rvec) *. float_of_int (max 1 (abs n - 1)));
              let v = ipow4 x (abs n) in
              ct.scratch.fv <- mk_realf k (if n < 0 then 1.0 /. v else v)
            end
            else begin
              charge rt ci_flops csub.(rt.rvec);
              ct.scratch.fv <- mk_realf k (Float.pow x (float_of_int n))
            end),
          k )
    | Kf (fa, k1), Kf (fb, k2) ->
      let k = if k1 = Ast.K8 || k2 = Ast.K8 then Ast.K8 else Ast.K4 in
      let conv = k1 <> k2 && not exempt in
      let csub = sub3 costs k in
      Kf
        ( (fun ct fr ->
            fa ct fr;
            let x = ct.scratch.fv in
            fb ct fr;
            let y = ct.scratch.fv in
            let rt = ct.rt in
            if conv then charge rt ci_convert rt.rconv.(rt.rvec);
            charge rt ci_flops csub.(rt.rvec);
            ct.scratch.fv <- mk_realf k (Float.pow x y)),
          k )
    | Ki fa, Kf (fb, k) ->
      let csub = sub3 costs k in
      Kf
        ( (fun ct fr ->
            let x = float_of_int (fa ct fr) in
            fb ct fr;
            let y = ct.scratch.fv in
            let rt = ct.rt in
            charge rt ci_flops csub.(rt.rvec);
            ct.scratch.fv <- mk_realf k (Float.pow x y)),
          k )
    | _ -> gen_bin ())
  | Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge -> (
    match ca, cb with
    | (Kf _ | Ki _), (Kf _ | Ki _) ->
      let conv =
        match ca, cb with
        | Kf (_, k1), Kf (_, k2) -> k1 <> k2 && not exempt
        | _ -> false
      in
      let fa = fput ca and fb = fput cb in
      Kb
        (fun ct fr ->
          fa ct fr;
          let x = ct.scratch.fv in
          fb ct fr;
          let y = ct.scratch.fv in
          let rt = ct.rt in
          if conv then charge rt ci_convert rt.rconv.(rt.rvec);
          charge rt ci_flops rt.rmachine.Machine.compare_cost;
          cmp_fn op x y)
    | Kb fa, Kb fb ->
      Kb
        (fun ct fr ->
          let x = fa ct fr in
          let y = fb ct fr in
          let rt = ct.rt in
          charge rt ci_flops rt.rmachine.Machine.compare_cost;
          match op with
          | Ast.Eq -> x = y
          | Ast.Ne -> x <> y
          | _ -> trap "ordering of logicals")
    | _ -> gen_bin ())

and compile_load env name r idx mem : cexpr =
  match r with
  | Rerr m -> Kv (fun _ _ -> trap_s m)
  | Rparam s ->
    Kv
      (fun ct _ ->
        ignore (force_param ct s : Value.v);
        trap "array parameter %s unsupported" name)
  | Rlocal _ | Rglobal _ -> (
    let resolve = whole_cell name r in
    let cidx = Array.map (fun e -> iview (compile_expr env e)) idx in
    (* resolve the cell, evaluate indices (charging), then dispatch on
       the tag — the interpreter's order for an indexed load. Defensive
       arms replicate load-then-coerce on the (unreachable) mismatched
       tags. *)
    match sty_of_ref env r with
    | Sarr (Ast.Treal k) when Array.length cidx = 1 ->
      let c0 = cidx.(0) in
      Kf
        ( (fun ct fr ->
            let rt = ct.rt in
            let cell = resolve ct fr in
            charge rt ci_flops rt.rmachine.Machine.int_op;
            let i = c0 ct fr in
            match cell with
            | Value.Real_array { kind; data; dims } ->
              charge rt ci_memory mem.((rt.rvec * 2) + kind_idx kind);
              ct.scratch.fv <- data.(offset1 ~name ~dims i)
            | Value.Int_array { data; dims } ->
              charge rt ci_flops rt.rmachine.Machine.int_op;
              ct.scratch.fv <- float_of_int data.(offset1 ~name ~dims i)
            | Value.Log_array { data; dims } ->
              ct.scratch.fv <- as_float (Value.Vlog data.(offset1 ~name ~dims i))
            | Value.Scalar _ -> trap "scalar %s subscripted" name),
          k )
    | Sarr (Ast.Treal k) when Array.length cidx = 2 ->
      let c0 = cidx.(0) and c1 = cidx.(1) in
      Kf
        ( (fun ct fr ->
            let rt = ct.rt in
            let cell = resolve ct fr in
            charge rt ci_flops rt.rmachine.Machine.int_op;
            let i = c0 ct fr in
            charge rt ci_flops rt.rmachine.Machine.int_op;
            let j = c1 ct fr in
            match cell with
            | Value.Real_array { kind; data; dims } ->
              charge rt ci_memory mem.((rt.rvec * 2) + kind_idx kind);
              ct.scratch.fv <- data.(offset2 ~name ~dims i j)
            | Value.Int_array { data; dims } ->
              charge rt ci_flops rt.rmachine.Machine.int_op;
              ct.scratch.fv <- float_of_int data.(offset2 ~name ~dims i j)
            | Value.Log_array { data; dims } ->
              ct.scratch.fv <- as_float (Value.Vlog data.(offset2 ~name ~dims i j))
            | Value.Scalar _ -> trap "scalar %s subscripted" name),
          k )
    | Sarr (Ast.Treal k) ->
      Kf
        ( (fun ct fr ->
            let rt = ct.rt in
            let cell = resolve ct fr in
            let ix = eval_cidx cidx ct fr in
            match cell with
            | Value.Real_array { kind; data; dims } ->
              charge rt ci_memory mem.((rt.rvec * 2) + kind_idx kind);
              ct.scratch.fv <- data.(offset_arr ~name ~dims ix)
            | Value.Int_array { data; dims } ->
              charge rt ci_flops rt.rmachine.Machine.int_op;
              ct.scratch.fv <- float_of_int data.(offset_arr ~name ~dims ix)
            | Value.Log_array { data; dims } ->
              ct.scratch.fv <- as_float (Value.Vlog data.(offset_arr ~name ~dims ix))
            | Value.Scalar _ -> trap "scalar %s subscripted" name),
          k )
    | Sarr Ast.Tinteger when Array.length cidx = 1 ->
      let c0 = cidx.(0) in
      Ki
        (fun ct fr ->
          let rt = ct.rt in
          let cell = resolve ct fr in
          charge rt ci_flops rt.rmachine.Machine.int_op;
          let i = c0 ct fr in
          match cell with
          | Value.Int_array { data; dims } ->
            charge rt ci_flops rt.rmachine.Machine.int_op;
            data.(offset1 ~name ~dims i)
          | Value.Real_array { kind; data; dims } ->
            charge rt ci_memory mem.((rt.rvec * 2) + kind_idx kind);
            as_int (Value.Vreal (data.(offset1 ~name ~dims i), kind))
          | Value.Log_array { data; dims } -> as_int (Value.Vlog data.(offset1 ~name ~dims i))
          | Value.Scalar _ -> trap "scalar %s subscripted" name)
    | Sarr Ast.Tinteger when Array.length cidx = 2 ->
      let c0 = cidx.(0) and c1 = cidx.(1) in
      Ki
        (fun ct fr ->
          let rt = ct.rt in
          let cell = resolve ct fr in
          charge rt ci_flops rt.rmachine.Machine.int_op;
          let i = c0 ct fr in
          charge rt ci_flops rt.rmachine.Machine.int_op;
          let j = c1 ct fr in
          match cell with
          | Value.Int_array { data; dims } ->
            charge rt ci_flops rt.rmachine.Machine.int_op;
            data.(offset2 ~name ~dims i j)
          | Value.Real_array { kind; data; dims } ->
            charge rt ci_memory mem.((rt.rvec * 2) + kind_idx kind);
            as_int (Value.Vreal (data.(offset2 ~name ~dims i j), kind))
          | Value.Log_array { data; dims } -> as_int (Value.Vlog data.(offset2 ~name ~dims i j))
          | Value.Scalar _ -> trap "scalar %s subscripted" name)
    | Sarr Ast.Tinteger ->
      Ki
        (fun ct fr ->
          let rt = ct.rt in
          let cell = resolve ct fr in
          let ix = eval_cidx cidx ct fr in
          match cell with
          | Value.Int_array { data; dims } ->
            charge rt ci_flops rt.rmachine.Machine.int_op;
            data.(offset_arr ~name ~dims ix)
          | Value.Real_array { kind; data; dims } ->
            charge rt ci_memory mem.((rt.rvec * 2) + kind_idx kind);
            as_int (Value.Vreal (data.(offset_arr ~name ~dims ix), kind))
          | Value.Log_array { data; dims } -> as_int (Value.Vlog data.(offset_arr ~name ~dims ix))
          | Value.Scalar _ -> trap "scalar %s subscripted" name)
    | Sarr Ast.Tlogical ->
      Kb
        (fun ct fr ->
          let rt = ct.rt in
          let cell = resolve ct fr in
          let ix = eval_cidx cidx ct fr in
          match cell with
          | Value.Log_array { data; dims } -> data.(offset_arr ~name ~dims ix)
          | Value.Real_array { kind; data; dims } ->
            charge rt ci_memory mem.((rt.rvec * 2) + kind_idx kind);
            as_bool (Value.Vreal (data.(offset_arr ~name ~dims ix), kind))
          | Value.Int_array { data; dims } ->
            charge rt ci_flops rt.rmachine.Machine.int_op;
            as_bool (Value.Vint data.(offset_arr ~name ~dims ix))
          | Value.Scalar _ -> trap "scalar %s subscripted" name)
    | Sreal _ | Sint | Sbool | Sunknown ->
      (* a subscripted scalar or an untyped slot: dispatch on the tag *)
      Kv
        (fun ct fr ->
          let rt = ct.rt in
          let cell = resolve ct fr in
          let ix = eval_cidx cidx ct fr in
          match cell with
          | Value.Real_array { kind; data; dims } ->
            charge rt ci_memory mem.((rt.rvec * 2) + kind_idx kind);
            Value.Vreal (data.(offset_arr ~name ~dims ix), kind)
          | Value.Int_array { data; dims } ->
            charge rt ci_flops rt.rmachine.Machine.int_op;
            Value.Vint data.(offset_arr ~name ~dims ix)
          | Value.Log_array { data; dims } -> Value.Vlog data.(offset_arr ~name ~dims ix)
          | Value.Scalar _ -> trap "scalar %s subscripted" name))

and compile_intr env (it : intr) : cexpr =
  match it with
  | Iabs { e; costs } -> (
    match compile_expr env e with
    | Kf (f, k) ->
      let sub = sub3 costs k in
      Kf
        ( (fun ct fr ->
            f ct fr;
            let x = ct.scratch.fv in
            let rt = ct.rt in
            charge rt ci_flops sub.(rt.rvec);
            ct.scratch.fv <- mk_realf k (Float.abs x)),
          k )
    | Ki f ->
      Ki
        (fun ct fr ->
          let i = f ct fr in
          let rt = ct.rt in
          charge rt ci_flops rt.rmachine.Machine.int_op;
          abs i)
    | (Kb _ | Kv _) as c ->
      let f = force c in
      Kv
        (fun ct fr ->
          let rt = ct.rt in
          match f ct fr with
          | Value.Vint i ->
            charge rt ci_flops rt.rmachine.Machine.int_op;
            Value.Vint (abs i)
          | Value.Vreal (x, k) ->
            charge rt ci_flops costs.((rt.rvec * 2) + kind_idx k);
            mk_real k (Float.abs x)
          | Value.Vlog _ | Value.Vstr _ -> trap "abs of non-numeric value"))
  | Ielem { name; fn; e; costs } -> (
    match compile_expr env e with
    | Kf (f, k) -> (
      let sub = sub3 costs k in
      (* dispatch on the name once at compile time: the branches call the
         very functions [elem_fn] maps these names to, but directly — an
         indirect [fn] application boxes argument and result every time,
         and elementals sit in the models' innermost loops *)
      match name with
      | "sqrt" ->
        Kf
          ( (fun ct fr ->
              f ct fr;
              let x = ct.scratch.fv in
              let rt = ct.rt in
              charge rt ci_flops sub.(rt.rvec);
              ct.scratch.fv <- mk_realf k (sqrt x)),
            k )
      | "exp" ->
        Kf
          ( (fun ct fr ->
              f ct fr;
              let x = ct.scratch.fv in
              let rt = ct.rt in
              charge rt ci_flops sub.(rt.rvec);
              ct.scratch.fv <- mk_realf k (exp x)),
            k )
      | "log" ->
        Kf
          ( (fun ct fr ->
              f ct fr;
              let x = ct.scratch.fv in
              let rt = ct.rt in
              charge rt ci_flops sub.(rt.rvec);
              ct.scratch.fv <- mk_realf k (log x)),
            k )
      | "log10" ->
        Kf
          ( (fun ct fr ->
              f ct fr;
              let x = ct.scratch.fv in
              let rt = ct.rt in
              charge rt ci_flops sub.(rt.rvec);
              ct.scratch.fv <- mk_realf k (log10 x)),
            k )
      | "sin" ->
        Kf
          ( (fun ct fr ->
              f ct fr;
              let x = ct.scratch.fv in
              let rt = ct.rt in
              charge rt ci_flops sub.(rt.rvec);
              ct.scratch.fv <- mk_realf k (sin x)),
            k )
      | "cos" ->
        Kf
          ( (fun ct fr ->
              f ct fr;
              let x = ct.scratch.fv in
              let rt = ct.rt in
              charge rt ci_flops sub.(rt.rvec);
              ct.scratch.fv <- mk_realf k (cos x)),
            k )
      | "tan" ->
        Kf
          ( (fun ct fr ->
              f ct fr;
              let x = ct.scratch.fv in
              let rt = ct.rt in
              charge rt ci_flops sub.(rt.rvec);
              ct.scratch.fv <- mk_realf k (tan x)),
            k )
      | "atan" ->
        Kf
          ( (fun ct fr ->
              f ct fr;
              let x = ct.scratch.fv in
              let rt = ct.rt in
              charge rt ci_flops sub.(rt.rvec);
              ct.scratch.fv <- mk_realf k (atan x)),
            k )
      | "asin" ->
        Kf
          ( (fun ct fr ->
              f ct fr;
              let x = ct.scratch.fv in
              let rt = ct.rt in
              charge rt ci_flops sub.(rt.rvec);
              ct.scratch.fv <- mk_realf k (asin x)),
            k )
      | "acos" ->
        Kf
          ( (fun ct fr ->
              f ct fr;
              let x = ct.scratch.fv in
              let rt = ct.rt in
              charge rt ci_flops sub.(rt.rvec);
              ct.scratch.fv <- mk_realf k (acos x)),
            k )
      | "sinh" ->
        Kf
          ( (fun ct fr ->
              f ct fr;
              let x = ct.scratch.fv in
              let rt = ct.rt in
              charge rt ci_flops sub.(rt.rvec);
              ct.scratch.fv <- mk_realf k (sinh x)),
            k )
      | "cosh" ->
        Kf
          ( (fun ct fr ->
              f ct fr;
              let x = ct.scratch.fv in
              let rt = ct.rt in
              charge rt ci_flops sub.(rt.rvec);
              ct.scratch.fv <- mk_realf k (cosh x)),
            k )
      | "tanh" ->
        Kf
          ( (fun ct fr ->
              f ct fr;
              let x = ct.scratch.fv in
              let rt = ct.rt in
              charge rt ci_flops sub.(rt.rvec);
              ct.scratch.fv <- mk_realf k (tanh x)),
            k )
      | "aint" ->
        Kf
          ( (fun ct fr ->
              f ct fr;
              let x = ct.scratch.fv in
              let rt = ct.rt in
              charge rt ci_flops sub.(rt.rvec);
              ct.scratch.fv <- mk_realf k (Float.trunc x)),
            k )
      | "anint" ->
        Kf
          ( (fun ct fr ->
              f ct fr;
              let x = ct.scratch.fv in
              let rt = ct.rt in
              charge rt ci_flops sub.(rt.rvec);
              ct.scratch.fv <- mk_realf k (Float.round x)),
            k )
      | _ ->
        Kf
          ( (fun ct fr ->
              f ct fr;
              let x = ct.scratch.fv in
              let rt = ct.rt in
              charge rt ci_flops sub.(rt.rvec);
              ct.scratch.fv <- mk_realf k (fn x)),
            k ))
    | (Ki _ | Kb _ | Kv _) as c ->
      let f = force c in
      Kv
        (fun ct fr ->
          match f ct fr with
          | Value.Vreal (x, k) ->
            let rt = ct.rt in
            charge rt ci_flops costs.((rt.rvec * 2) + kind_idx k);
            mk_real k (fn x)
          | Value.Vint _ | Value.Vlog _ | Value.Vstr _ -> trap "%s of non-real value" name))
  | Iminmax { name; args; costs } -> (
    let n = Array.length args in
    let cs = Array.map (compile_expr env) args in
    if n < 2 then minmax_values name costs (Array.map force cs)
    else
      let all_int = Array.for_all (function Ki _ -> true | _ -> false) cs in
      let typed = Array.for_all (function Ki _ | Kf _ -> true | _ -> false) cs in
      if all_int then begin
        let fs = Array.map iview cs in
        let pick : int -> int -> int = if name = "min" then min else max in
        Ki
          (fun ct fr ->
            let rt = ct.rt in
            let vs = Array.make n 0 in
            for i = 0 to n - 1 do
              vs.(i) <- fs.(i) ct fr
            done;
            charge rt ci_flops rt.rmachine.Machine.int_op;
            let acc = ref vs.(0) in
            for i = 1 to n - 1 do
              acc := pick !acc vs.(i)
            done;
            !acc)
      end
      else if typed then begin
        (* at least one real operand: the promoted kind is static *)
        let k =
          Array.fold_left
            (fun acc c -> match c with Kf (_, Ast.K8) -> Ast.K8 | _ -> acc)
            Ast.K4 cs
        in
        let sub = sub3 costs k in
        let fs = Array.map fput cs in
        if n = 2 then begin
          (* two-argument min/max dominates; [Float.min]/[Float.max] are
             stdlib-inlinable, so the pair never boxes *)
          let f0 = fs.(0) and f1 = fs.(1) in
          let is_min = name = "min" in
          Kf
            ( (fun ct fr ->
                f0 ct fr;
                let a = ct.scratch.fv in
                f1 ct fr;
                let b = ct.scratch.fv in
                let rt = ct.rt in
                charge rt ci_flops sub.(rt.rvec);
                let z = if is_min then Float.min a b else Float.max a b in
                ct.scratch.fv <- mk_realf k z),
              k )
        end
        else begin
          let pick = if name = "min" then Float.min else Float.max in
          Kf
            ( (fun ct fr ->
                let rt = ct.rt in
                let vs = Array.make n 0.0 in
                for i = 0 to n - 1 do
                  fs.(i) ct fr;
                  vs.(i) <- ct.scratch.fv
                done;
                charge rt ci_flops sub.(rt.rvec);
                let acc = ref vs.(0) in
                for i = 1 to n - 1 do
                  acc := pick !acc vs.(i)
                done;
                ct.scratch.fv <- mk_realf k !acc),
              k )
        end
      end
      else minmax_values name costs (Array.map force cs))
  | Imod { a; b; costs } -> (
    match compile_expr env a, compile_expr env b with
    | Ki fa, Ki fb ->
      Ki
        (fun ct fr ->
          let x = fa ct fr in
          let y = fb ct fr in
          let rt = ct.rt in
          charge rt ci_flops rt.rmachine.Machine.int_op;
          if y = 0 then trap "mod with zero divisor" else x - (x / y * y))
    | ((Kf _ | Ki _) as ca), ((Kf _ | Ki _) as cb) ->
      let k =
        match ca, cb with
        | Kf (_, k1), Kf (_, k2) -> if k1 = Ast.K8 || k2 = Ast.K8 then Ast.K8 else Ast.K4
        | Kf (_, k), _ | _, Kf (_, k) -> k
        | _ -> assert false
      in
      let sub = sub3 costs k in
      let fa = fput ca and fb = fput cb in
      Kf
        ( (fun ct fr ->
            fa ct fr;
            let x = ct.scratch.fv in
            fb ct fr;
            let y = ct.scratch.fv in
            let rt = ct.rt in
            charge rt ci_flops sub.(rt.rvec);
            ct.scratch.fv <- mk_realf k (Float.rem x y)),
          k )
    | ca, cb ->
      let fa = force ca and fb = force cb in
      Kv
        (fun ct fr ->
          let va = fa ct fr in
          let vb = fb ct fr in
          let rt = ct.rt in
          match va, vb with
          | Value.Vint x, Value.Vint y ->
            charge rt ci_flops rt.rmachine.Machine.int_op;
            if y = 0 then trap "mod with zero divisor" else Value.Vint (x - (x / y * y))
          | _ ->
            let k =
              match promote_kind (value_kind va) (value_kind vb) with
              | Some k -> k
              | None -> trap "mod of non-numeric"
            in
            charge rt ci_flops costs.((rt.rvec * 2) + kind_idx k);
            let x = as_float va and y = as_float vb in
            mk_real k (Float.rem x y)))
  | Iatan2 { a; b; costs } -> (
    match compile_expr env a, compile_expr env b with
    | ((Kf _ | Ki _) as ca), ((Kf _ | Ki _) as cb)
      when (match ca, cb with Ki _, Ki _ -> false | _ -> true) ->
      let k =
        match ca, cb with
        | Kf (_, k1), Kf (_, k2) -> if k1 = Ast.K8 || k2 = Ast.K8 then Ast.K8 else Ast.K4
        | Kf (_, k), _ | _, Kf (_, k) -> k
        | _ -> assert false
      in
      let sub = sub3 costs k in
      let fa = fput ca and fb = fput cb in
      Kf
        ( (fun ct fr ->
            fa ct fr;
            let x = ct.scratch.fv in
            fb ct fr;
            let y = ct.scratch.fv in
            let rt = ct.rt in
            charge rt ci_flops sub.(rt.rvec);
            ct.scratch.fv <- mk_realf k (Float.atan2 x y)),
          k )
    | ca, cb ->
      let fa = force ca and fb = force cb in
      Kv
        (fun ct fr ->
          let va = fa ct fr in
          let vb = fb ct fr in
          match promote_kind (value_kind va) (value_kind vb) with
          | Some k ->
            let rt = ct.rt in
            charge rt ci_flops costs.((rt.rvec * 2) + kind_idx k);
            mk_real k (Float.atan2 (as_float va) (as_float vb))
          | None -> trap "atan2 of non-real values"))
  | Isign { a; b; costs } -> (
    match compile_expr env a, compile_expr env b with
    | Ki fa, Ki fb ->
      Ki
        (fun ct fr ->
          let x = fa ct fr in
          let y = fb ct fr in
          let rt = ct.rt in
          charge rt ci_flops rt.rmachine.Machine.int_op;
          let m = abs x in
          if y >= 0 then m else -m)
    | ((Kf _ | Ki _) as ca), ((Kf _ | Ki _) as cb) ->
      let k =
        match ca, cb with
        | Kf (_, k1), Kf (_, k2) -> if k1 = Ast.K8 || k2 = Ast.K8 then Ast.K8 else Ast.K4
        | Kf (_, k), _ | _, Kf (_, k) -> k
        | _ -> assert false
      in
      let sub = sub3 costs k in
      let fa = fput ca and fb = fput cb in
      Kf
        ( (fun ct fr ->
            fa ct fr;
            let x = ct.scratch.fv in
            fb ct fr;
            let y = ct.scratch.fv in
            let rt = ct.rt in
            charge rt ci_flops sub.(rt.rvec);
            let m = Float.abs x in
            ct.scratch.fv <- mk_realf k (if y >= 0.0 then m else -.m)),
          k )
    | ca, cb ->
      let fa = force ca and fb = force cb in
      Kv
        (fun ct fr ->
          let x = fa ct fr in
          let y = fb ct fr in
          let rt = ct.rt in
          match promote_kind (value_kind x) (value_kind y) with
          | Some k ->
            charge rt ci_flops costs.((rt.rvec * 2) + kind_idx k);
            let m = Float.abs (as_float x) in
            mk_real k (if as_float y >= 0.0 then m else -.m)
          | None ->
            charge rt ci_flops rt.rmachine.Machine.int_op;
            let m = abs (as_int x) in
            Value.Vint (if as_int y >= 0 then m else -m)))
  | Ireal { e; kind = None } -> (
    match compile_expr env e with
    | Kf (f, Ast.K4) ->
      Kf
        ( (fun ct fr ->
            f ct fr;
            ct.scratch.fv <- round32 ct.scratch.fv),
          Ast.K4 )
    | Kf (f, Ast.K8) ->
      Kf
        ( (fun ct fr ->
            f ct fr;
            let x = ct.scratch.fv in
            let rt = ct.rt in
            charge rt ci_convert rt.rconv.(rt.rvec);
            ct.scratch.fv <- round32 x),
          Ast.K4 )
    | Ki f -> Kf ((fun ct fr -> ct.scratch.fv <- round32 (float_of_int (f ct fr))), Ast.K4)
    | (Kb _ | Kv _) as c ->
      let f = force c in
      Kv
        (fun ct fr ->
          let v = f ct fr in
          (match value_kind v with
          | Some Ast.K4 | None -> ()
          | Some Ast.K8 ->
            let rt = ct.rt in
            charge rt ci_convert rt.rconv.(rt.rvec));
          Value.Vreal (round32 (as_float v), Ast.K4)))
  | Ireal { e; kind = Some kk } -> (
    match compile_expr env e with
    | Kf (f, k) when k = kk ->
      Kf
        ( (fun ct fr ->
            f ct fr;
            ct.scratch.fv <- cround kk ct.scratch.fv),
          kk )
    | Kf (f, _) ->
      Kf
        ( (fun ct fr ->
            f ct fr;
            let x = ct.scratch.fv in
            let rt = ct.rt in
            charge rt ci_convert rt.rconv.(rt.rvec);
            ct.scratch.fv <- cround kk x),
          kk )
    | Ki f -> Kf ((fun ct fr -> ct.scratch.fv <- cround kk (float_of_int (f ct fr))), kk)
    | (Kb _ | Kv _) as c ->
      let f = force c in
      Kv
        (fun ct fr ->
          let v = f ct fr in
          if value_kind v <> Some kk && value_kind v <> None then begin
            let rt = ct.rt in
            charge rt ci_convert rt.rconv.(rt.rvec)
          end;
          Value.Vreal (cround kk (as_float v), kk)))
  | Idble e -> (
    match compile_expr env e with
    | Kf (f, Ast.K8) -> Kf (f, Ast.K8)
    | Kf (f, Ast.K4) ->
      Kf
        ( (fun ct fr ->
            f ct fr;
            let rt = ct.rt in
            charge rt ci_convert rt.rconv.(rt.rvec)),
          Ast.K8 )
    | Ki f -> Kf ((fun ct fr -> ct.scratch.fv <- float_of_int (f ct fr)), Ast.K8)
    | (Kb _ | Kv _) as c ->
      let f = force c in
      Kv
        (fun ct fr ->
          let v = f ct fr in
          if value_kind v = Some Ast.K4 then begin
            let rt = ct.rt in
            charge rt ci_convert rt.rconv.(rt.rvec)
          end;
          Value.Vreal (as_float v, Ast.K8)))
  | Iicvt { which; e } -> (
    match compile_expr env e with
    | (Kf _ | Ki _) as c ->
      (* int_op is charged before the operand evaluates *)
      let f = fput c in
      Ki
        (fun ct fr ->
          let rt = ct.rt in
          charge rt ci_flops rt.rmachine.Machine.int_op;
          f ct fr;
          let x = ct.scratch.fv in
          match which with
          | 0 -> int_of_float x
          | 1 -> int_of_float (Float.round x)
          | _ -> int_of_float (Float.floor x))
    | (Kb _ | Kv _) as c ->
      let f = force c in
      Ki
        (fun ct fr ->
          let rt = ct.rt in
          charge rt ci_flops rt.rmachine.Machine.int_op;
          let x = as_float (f ct fr) in
          match which with
          | 0 -> int_of_float x
          | 1 -> int_of_float (Float.round x)
          | _ -> int_of_float (Float.floor x)))
  | Iinq { name; e } -> (
    match compile_expr env e with
    | Kf (f, k) ->
      let v = inquiry name k in
      Kf
        ( (fun ct fr ->
            f ct fr;
            ct.scratch.fv <- v),
          k )
    | (Ki _ | Kb _ | Kv _) as c ->
      let f = force c in
      Kv
        (fun ct fr ->
          match f ct fr with
          | Value.Vreal (_, k) -> Value.Vreal (inquiry name k, k)
          | Value.Vint _ | Value.Vlog _ | Value.Vstr _ -> trap "%s of non-real value" name))
  | Ireal_bad { e; k } ->
    let f = force (compile_expr env e) in
    Kv
      (fun ct fr ->
        ignore (f ct fr : Value.v);
        trap "real(): unsupported kind %d" k)
  | Idot { an; ar; bn; br } ->
    let cell_a = whole_cell an ar and cell_b = whole_cell bn br in
    Kv
      (fun ct fr ->
        let ca = cell_a ct fr in
        let cb = cell_b ct fr in
        match ca, cb with
        | ( Value.Real_array { kind = ka; data = da; _ },
            Value.Real_array { kind = kb; data = db; _ } ) ->
          dot_real ct.rt ka da kb db
        | _ -> trap "dot_product expects two real arrays")
  | Ireduce { name; rn; r } ->
    let cell = whole_cell rn r in
    Kv (fun ct fr -> reduce ct.rt name (cell ct fr))
  | Isize { rn; r; dim = None } ->
    let cell = whole_cell rn r in
    Ki
      (fun ct fr ->
        match cell ct fr with
        | Value.Real_array { dims; _ } | Value.Int_array { dims; _ } | Value.Log_array { dims; _ }
          ->
          Value.elements dims
        | Value.Scalar _ -> trap "size of non-array")
  | Isize { rn; r; dim = Some d } ->
    (* the dimension is evaluated before the array resolves *)
    let fd = iview (compile_expr env d) in
    let cell = whole_cell rn r in
    Ki
      (fun ct fr ->
        let dim = fd ct fr in
        match cell ct fr with
        | Value.Real_array { dims; _ } | Value.Int_array { dims; _ } | Value.Log_array { dims; _ }
          ->
          if dim >= 1 && dim <= Array.length dims then dims.(dim - 1)
          else trap "size: dimension %d out of range" dim
        | Value.Scalar _ -> trap "size of non-array")

and cco env (co : copy_out option) : ccopy option =
  match co with
  | None -> None
  | Some c ->
    Some { cco = c; cco_idx = Array.map (fun e -> iview (compile_expr env e)) c.co_idx }

and compile_call env (cs : call_site) : ccall =
  {
    cc = cs;
    cc_args =
      Array.map
        (function
          | Aref { name; r } -> CAref { a = name; ar = r }
          (* a literal actual is already a [Value.v]; handing the block
             out directly is safe (immutable) and skips re-boxing it on
             every call *)
          | Aval { e = Elit v; lit; co } -> CAval { cv = (fun _ _ -> v); lit; co = cco env co }
          | Aval { e; lit; co } ->
            CAval { cv = force (compile_expr env e); lit; co = cco env co })
        cs.cs_args;
  }

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)

(* target resolvers, with the [Sassign] trap wording *)
let lsc_ref name r : cctx -> rframe -> Value.v ref =
  match r with
  | Rerr m -> fun _ _ -> trap_s m
  | Rparam s ->
    fun ct _ ->
      ignore (force_param ct s : Value.v);
      trap "assignment to parameter %s" name
  | Rlocal i ->
    fun _ fr -> (
      match fr.cells.(i) with
      | Some (Value.Scalar sr) -> sr
      | Some _ -> trap "assignment to whole array %s unsupported" name
      | None -> trap "variable %s local to %s referenced out of scope" name fr.pname)
  | Rglobal i ->
    fun ct _ -> (
      match ct.rt.rglobals.(i) with
      | Value.Scalar sr -> sr
      | _ -> trap "assignment to whole array %s unsupported" name)

let arr_cell name r : cctx -> rframe -> Value.cell =
  match r with
  | Rerr m -> fun _ _ -> trap_s m
  | Rparam s ->
    fun ct _ ->
      ignore (force_param ct s : Value.v);
      trap "assignment to parameter %s" name
  | Rlocal i ->
    fun _ fr -> (
      match fr.cells.(i) with
      | Some c -> c
      | None -> trap "variable %s local to %s referenced out of scope" name fr.pname)
  | Rglobal i -> fun ct _ -> ct.rt.rglobals.(i)

type ccase =
  | CCval of (cctx -> rframe -> Value.v)
  | CCrange of (cctx -> rframe -> int) option * (cctx -> rframe -> int) option

let rec compile_stmt env (s : stmt) : cstmt =
  match s with
  | Sassign { tgt = Lsc { name; r; rhs_lit }; rhs } -> (
    let resolve = lsc_ref name r in
    let crhs = compile_expr env rhs in
    (* rhs first, then target resolution, then the store *)
    match sty_of_ref env r, crhs with
    | Sreal kind, Kf (f, k) ->
      let conv = k <> kind && not rhs_lit in
      fun ct fr ->
        f ct fr;
        let x = ct.scratch.fv in
        let sr = resolve ct fr in
        let rt = ct.rt in
        (match !sr with
        | Value.Vreal _ ->
          if conv then charge rt ci_convert rt.rconv.(rt.rvec);
          let y = cround kind x in
          if not (Float.is_finite y) then
            trap "non-finite value stored to real(kind=%d) scalar" (Token.int_of_kind kind);
          sr := Value.Vreal (y, kind)
        | _ -> scalar_store rt sr (Value.Vreal (x, k)) ~lit:rhs_lit)
    | Sreal kind, Ki f ->
      fun ct fr ->
        let i = f ct fr in
        let sr = resolve ct fr in
        let rt = ct.rt in
        (match !sr with
        | Value.Vreal _ ->
          let y = cround kind (float_of_int i) in
          if not (Float.is_finite y) then
            trap "non-finite value stored to real(kind=%d) scalar" (Token.int_of_kind kind);
          sr := Value.Vreal (y, kind)
        | _ -> scalar_store rt sr (Value.Vint i) ~lit:rhs_lit)
    | Sint, Ki f ->
      fun ct fr ->
        let i = f ct fr in
        let sr = resolve ct fr in
        (match !sr with
        | Value.Vint _ -> sr := vint i
        | _ -> scalar_store ct.rt sr (Value.Vint i) ~lit:rhs_lit)
    | Sbool, Kb f ->
      fun ct fr ->
        let b = f ct fr in
        let sr = resolve ct fr in
        (match !sr with
        | Value.Vlog _ -> sr := Value.Vlog b
        | _ -> scalar_store ct.rt sr (Value.Vlog b) ~lit:rhs_lit)
    | _ ->
      let fv = force crhs in
      fun ct fr ->
        let v = fv ct fr in
        let sr = resolve ct fr in
        scalar_store ct.rt sr v ~lit:rhs_lit)
  | Sassign { tgt = Larr { name; r; idx; rhs_lit }; rhs } -> (
    let resolve = arr_cell name r in
    let crhs = compile_expr env rhs in
    let cidx = Array.map (fun e -> iview (compile_expr env e)) idx in
    match sty_of_ref env r, crhs with
    | Sarr (Ast.Treal _), Kf (f, krhs) when Array.length cidx = 1 ->
      (* hot combination: rank-1 real store with a typed-float rhs; the
         float stays unboxed from the rhs through the element store *)
      let c0 = cidx.(0) in
      fun ct fr ->
        f ct fr;
        let xv = ct.scratch.fv in
        let cell = resolve ct fr in
        let rt = ct.rt in
        charge rt ci_flops rt.rmachine.Machine.int_op;
        let i = c0 ct fr in
        (match cell with
        | Value.Real_array { kind; data; dims } ->
          charge rt ci_memory rt.rmemtab.((rt.rvec * 2) + kind_idx kind);
          if krhs <> kind && not rhs_lit then charge rt ci_convert rt.rconv.(rt.rvec);
          let x = cround kind xv in
          if not (Float.is_finite x) then
            trap "non-finite value stored to %s (real(kind=%d))" name (Token.int_of_kind kind);
          data.(offset1 ~name ~dims i) <- x
        | Value.Int_array { data; dims } ->
          charge rt ci_flops rt.rmachine.Machine.int_op;
          data.(offset1 ~name ~dims i) <- as_int (Value.Vreal (xv, krhs))
        | Value.Log_array { data; dims } ->
          data.(offset1 ~name ~dims i) <- as_bool (Value.Vreal (xv, krhs))
        | Value.Scalar _ -> trap "scalar %s subscripted" name)
    | Sarr (Ast.Treal _), Kf (f, krhs) when Array.length cidx = 2 ->
      (* same, rank 2 (MOM6's column fields) *)
      let c0 = cidx.(0) and c1 = cidx.(1) in
      fun ct fr ->
        f ct fr;
        let xv = ct.scratch.fv in
        let cell = resolve ct fr in
        let rt = ct.rt in
        charge rt ci_flops rt.rmachine.Machine.int_op;
        let i = c0 ct fr in
        charge rt ci_flops rt.rmachine.Machine.int_op;
        let j = c1 ct fr in
        (match cell with
        | Value.Real_array { kind; data; dims } ->
          charge rt ci_memory rt.rmemtab.((rt.rvec * 2) + kind_idx kind);
          if krhs <> kind && not rhs_lit then charge rt ci_convert rt.rconv.(rt.rvec);
          let x = cround kind xv in
          if not (Float.is_finite x) then
            trap "non-finite value stored to %s (real(kind=%d))" name (Token.int_of_kind kind);
          data.(offset2 ~name ~dims i j) <- x
        | Value.Int_array { data; dims } ->
          charge rt ci_flops rt.rmachine.Machine.int_op;
          data.(offset2 ~name ~dims i j) <- as_int (Value.Vreal (xv, krhs))
        | Value.Log_array { data; dims } ->
          data.(offset2 ~name ~dims i j) <- as_bool (Value.Vreal (xv, krhs))
        | Value.Scalar _ -> trap "scalar %s subscripted" name)
    | _ ->
      let fv = force crhs in
      fun ct fr ->
        let v = fv ct fr in
        let cell = resolve ct fr in
        cstore ct fr name cell cidx ~lit:rhs_lit v)
  | Scall cs ->
    let ca = compile_call env cs in
    fun ct fr -> ignore (exec_ccall ct fr ca : Value.v option)
  | Sallreduce { send; send_lit; rn; recv; op } ->
    let fsend = force (compile_expr env send) in
    let known_op = op = "sum" || op = "max" || op = "min" in
    fun ct fr ->
      let rt = ct.rt in
      let v = fsend ct fr in
      charge rt ci_reduction rt.rmachine.Machine.allreduce;
      if not known_op then trap "mpi_allreduce: unknown op %s" op;
      let r = scalar_ref ct fr rn recv in
      scalar_store rt r v ~lit:send_lit
  | Sbarrier ->
    fun ct _ ->
      let rt = ct.rt in
      charge rt ci_reduction (rt.rmachine.Machine.allreduce /. 2.0)
  | Sif { arms; els } ->
    let carms =
      Array.map (fun (c, blk) -> (bview (compile_expr env c), compile_block env blk)) arms
    in
    let cels = compile_block env els in
    let n = Array.length carms in
    (* [go] closes over the compiled arms only, so it is allocated once
       here rather than on every execution of the [if] *)
    let rec go ct fr i =
      if i = n then exec_cblock ct fr cels
      else
        let cond, blk = carms.(i) in
        if cond ct fr then exec_cblock ct fr blk else go ct fr (i + 1)
    in
    fun ct fr -> go ct fr 0
  | Sdo { vn; var; from_; to_; step; mode; iter_overhead; body } ->
    let flo = iview (compile_expr env from_) in
    let fhi = iview (compile_expr env to_) in
    let fstep = Option.map (fun e -> iview (compile_expr env e)) step in
    let cbody = compile_block env body in
    let midx = mode_idx mode in
    fun ct fr ->
      let rt = ct.rt in
      let r = scalar_ref ct fr vn var in
      let lo = flo ct fr in
      let hi = fhi ct fr in
      let stp = match fstep with Some f -> f ct fr | None -> 1 in
      if stp = 0 then trap "do loop with zero step";
      let saved_vec = rt.rvec in
      rt.rvec <- midx;
      (try
         if stp = 1 then
           for i = lo to hi do
             r := vint i;
             charge rt ci_loop iter_overhead;
             check_budget rt;
             try exec_cblock ct fr cbody with Rcycle -> ()
           done
         else begin
           let i = ref lo in
           while (stp > 0 && !i <= hi) || (stp < 0 && !i >= hi) do
             r := vint !i;
             charge rt ci_loop iter_overhead;
             check_budget rt;
             (try exec_cblock ct fr cbody with Rcycle -> ());
             i := !i + stp
           done
         end
       with
      | Rexit -> ()
      | e ->
        rt.rvec <- saved_vec;
        raise e);
      rt.rvec <- saved_vec
  | Sdo_while { cond; body } ->
    let fcond = bview (compile_expr env cond) in
    let cbody = compile_block env body in
    fun ct fr ->
      let rt = ct.rt in
      (try
         while fcond ct fr do
           charge rt ci_loop rt.rmachine.Machine.loop_overhead;
           check_budget rt;
           try exec_cblock ct fr cbody with Rcycle -> ()
         done
       with Rexit -> ())
  | Sselect { selector; arms; default } ->
    let fsel = force (compile_expr env selector) in
    let carms =
      Array.map
        (fun (items, blk) ->
          ( Array.map
              (function
                | Cval e -> CCval (force (compile_expr env e))
                | Crange (lo, hi) ->
                  CCrange
                    ( Option.map (fun e -> iview (compile_expr env e)) lo,
                      Option.map (fun e -> iview (compile_expr env e)) hi ))
              items,
            compile_block env blk ))
        arms
    in
    let cdefault = compile_block env default in
    let n = Array.length carms in
    (* as with [Sif]: the helpers take all state as arguments so they
       are built once at compile time, not per execution *)
    let matches ct fr sel item =
      match item, sel with
      | CCval f, _ -> (
        match f ct fr, sel with
        | Value.Vint a, Value.Vint b -> a = b
        | Value.Vlog a, Value.Vlog b -> a = b
        | _ -> trap "case value incompatible with selector")
      | CCrange (lo, hi), Value.Vint x ->
        let above = match lo with Some f -> x >= f ct fr | None -> true in
        let below = match hi with Some f -> x <= f ct fr | None -> true in
        above && below
      | CCrange _, _ -> trap "case range requires an integer selector"
    in
    let rec matches_any ct fr sel (items : ccase array) j =
      j < Array.length items
      && (matches ct fr sel items.(j) || matches_any ct fr sel items (j + 1))
    in
    let rec go ct fr sel i =
      if i = n then exec_cblock ct fr cdefault
      else
        let items, blk = carms.(i) in
        if matches_any ct fr sel items 0 then exec_cblock ct fr blk else go ct fr sel (i + 1)
    in
    fun ct fr ->
      let rt = ct.rt in
      let sel = fsel ct fr in
      charge rt ci_flops rt.rmachine.Machine.compare_cost;
      go ct fr sel 0
  | Sexit -> fun _ _ -> raise Rexit
  | Scycle -> fun _ _ -> raise Rcycle
  | Sreturn -> fun _ _ -> raise Rreturn
  | Sstop m -> fun _ _ -> raise (Rstop m)
  | Sprint args ->
    let fs = Array.map (fun e -> force (compile_expr env e)) args in
    let n = Array.length fs in
    fun ct fr ->
      let rt = ct.rt in
      let vs = Array.make n (Value.Vint 0) in
      for i = 0 to n - 1 do
        vs.(i) <- fs.(i) ct fr
      done;
      let line = String.concat " " (List.map Value.to_string (Array.to_list vs)) in
      rt.rprinted <- line :: rt.rprinted;
      if n > 0 then (
        match vs.(0) with
        | Value.Vstr key ->
          for i = 1 to n - 1 do
            match vs.(i) with
            | Value.Vreal (x, _) -> rt.rrecords <- (key, x) :: rt.rrecords
            | Value.Vint iv -> rt.rrecords <- (key, float_of_int iv) :: rt.rrecords
            | Value.Vlog _ | Value.Vstr _ -> ()
          done
        | _ -> ())
  | Strap m -> fun _ _ -> trap_s m

and compile_block env (blk : stmt array) : cstmt array = Array.map (compile_stmt env) blk

(* ------------------------------------------------------------------ *)
(* Whole-program compilation                                           *)

let compile_proc env (ir : proc_ir) : cproc =
  {
    ir;
    cbody = compile_block env ir.p_body;
    clocals =
      Array.map
        (fun (l : local) ->
          { cl_def = l; cl_dims = Array.map (fun e -> iview (compile_expr env e)) l.l_dims })
        ir.p_locals;
    cinits =
      Array.map
        (fun (it : initr) -> { cin_def = it; cin_rhs = force (compile_expr env it.i_rhs) })
        ir.p_inits;
  }

module Cache = struct
  (* Same key discipline and locking protocol as [Lower.Cache]:
     compiled procedures are pure functions of (IR, machine) and the IR
     is itself pinned by the key, so entries are shared across variants
     and domains; a publish race keeps the first-published closure tree. *)
  type t = {
    tbl : (string, cproc) Hashtbl.t;
    lock : Mutex.t;
    (* atomics, as in [Lower.Cache]: domains aggregate traffic without
       holding [lock] and totals are never torn *)
    hits : int Atomic.t;
    misses : int Atomic.t;
  }

  let create () =
    { tbl = Hashtbl.create 512; lock = Mutex.create (); hits = Atomic.make 0;
      misses = Atomic.make 0 }

  let stats t = (Atomic.get t.hits, Atomic.get t.misses)

  let get_or_compile t key f =
    Mutex.lock t.lock;
    match Hashtbl.find_opt t.tbl key with
    | Some cp ->
      Atomic.incr t.hits;
      Mutex.unlock t.lock;
      cp
    | None ->
      Atomic.incr t.misses;
      Mutex.unlock t.lock;
      let cp = f () in
      Mutex.lock t.lock;
      (match Hashtbl.find_opt t.tbl key with
      | Some winner ->
        Mutex.unlock t.lock;
        winner
      | None ->
        Hashtbl.replace t.tbl key cp;
        Mutex.unlock t.lock;
        cp)
end

type t = {
  cl : program;
  cprocs : cproc array;
  cmain : cstmt array;
  cparams : (cctx -> rframe -> Value.v) option array;  (* by parameter slot *)
  cglobals : ((cctx -> rframe -> Value.v) * bool) option array;  (* as [cl.globals] *)
  memtab : float array;  (* mem_cost table of the machine *)
}

let compile ?cache (p : program) : t =
  let gsty = Array.make p.nglobals Sunknown in
  Array.iter
    (fun (g : global) ->
      gsty.(g.g_slot) <-
        (match g.g_extents with
        | Some [||] -> sty_of_base g.g_base ~is_array:false
        | Some _ -> Sarr g.g_base
        | None -> Sunknown))
    p.globals;
  let psty =
    Array.map (fun (pa : param) -> sty_of_base pa.pa_base ~is_array:false) p.params
  in
  let fsty_of (ir : proc_ir) =
    let fsty = Array.make ir.p_nslots Sunknown in
    Array.iter
      (fun (d : dummy) ->
        if not d.d_undeclared then fsty.(d.d_slot) <- sty_of_base d.d_base ~is_array:d.d_is_array)
      ir.p_dummies;
    Array.iter
      (fun (l : local) ->
        fsty.(l.l_slot) <- sty_of_base l.l_base ~is_array:(l.l_dims <> [||]))
      ir.p_locals;
    fsty
  in
  let cached key f =
    match cache with
    | Some c when key <> "" -> Cache.get_or_compile c key f
    | Some _ | None -> f ()
  in
  let cprocs =
    Array.mapi
      (fun i (ir : proc_ir) ->
        cached ir.p_key (fun () ->
            compile_proc
              { prog = p; gsty; psty; fsty = fsty_of ir; clinks = p.links.(i) }
              ir))
      p.procs
  in
  (* the main body runs in an empty frame: every name it touches is a
     global or parameter, so [fsty] is empty *)
  let main_env = { prog = p; gsty; psty; fsty = [||]; clinks = p.main_links } in
  let cmain =
    match cache with
    | Some c when p.main_key <> "" ->
      let main_ir =
        {
          p_name = "";
          p_key = p.main_key;
          p_result = -1;
          p_is_function = false;
          p_is_wrapper = false;
          p_inlinable = false;
          p_nslots = 0;
          p_dummies = [||];
          p_locals = [||];
          p_inits = [||];
          p_body = p.main_body;
          p_callees = [||];
        }
      in
      (Cache.get_or_compile c p.main_key (fun () ->
           {
             ir = main_ir;
             cbody = compile_block main_env p.main_body;
             clocals = [||];
             cinits = [||];
           }))
        .cbody
    | Some _ | None -> compile_block main_env p.main_body
  in
  (* parameter and global initializers share one callee table and see
     only globals and parameters *)
  let aux_env = { prog = p; gsty; psty; fsty = [||]; clinks = p.aux_links } in
  let init e = force (compile_expr aux_env e) in
  {
    cl = p;
    cprocs;
    cmain;
    cparams = Array.map (fun (pa : param) -> Option.map init pa.pa_init) p.params;
    cglobals =
      Array.map (fun (g : global) -> Option.map (fun (e, lit) -> (init e, lit)) g.g_init) p.globals;
    memtab = table6 p.machine (fun lanes k -> Machine.mem_cost p.machine ~lanes k);
  }

(* every module variable is allocated before any initializer runs *)
let prepare_globals ct (t : t) =
  let rt = ct.rt in
  let globals = t.cl.globals in
  Array.iter
    (fun (g : global) ->
      match g.g_extents with
      | None -> trap "module array %s.%s has non-constant extent" g.g_unit g.g_name
      | Some ext -> rt.rglobals.(g.g_slot) <- alloc_cell g.g_base (Array.to_list ext))
    globals;
  let frame = { pname = ""; cells = [||]; flinks = t.cl.aux_links } in
  Array.iteri
    (fun i (g : global) ->
      match t.cglobals.(i) with
      | Some (f, lit) -> (
        let v = f ct frame in
        match rt.rglobals.(g.g_slot) with
        | Value.Scalar r -> scalar_store rt r v ~lit
        | Value.Real_array _ | Value.Int_array _ | Value.Log_array _ ->
          trap "initializer on module array %s unsupported" g.g_name)
      | None -> ())
    globals

let run ?budget (t : t) : Interp.outcome =
  let p = t.cl in
  let rt =
    {
      rprocs = p.procs;
      rlinks = p.links;
      raux = p.aux_links;
      rmachine = p.machine;
      rtimers = Timers.create ();
      raccs = Array.make (Array.length p.procs) None;
      rcost = { fv = 0.0 };
      rbudget = (match budget with Some b -> b | None -> Float.infinity);
      rglobals = Array.make p.nglobals (Value.Scalar (ref (Value.Vint 0)));
      rparams = Array.make (Array.length p.params) None;
      rparam_defs = p.params;
      rconv = p.conv_costs;
      rmemtab = t.memtab;
      rvec = 0;
      rrecords = [];
      rprinted = [];
      rdepth = 0;
      rcharging = true;
      rin_wrapper = false;
      rbreakdown = Array.make (List.length Machine.categories) 0.0;
    }
  in
  let ct = { rt; cprocs = t.cprocs; cparams = t.cparams; scratch = { fv = 0.0 } } in
  let status =
    match
      prepare_globals ct t;
      if not p.has_main then trap "program has no main unit";
      Timers.enter rt.rtimers "<main>" ~now:rt.rcost.fv;
      (try exec_cblock ct { pname = ""; cells = [||]; flinks = p.main_links } t.cmain
       with e ->
         Timers.exit_ rt.rtimers ~now:rt.rcost.fv;
         raise e);
      Timers.exit_ rt.rtimers ~now:rt.rcost.fv
    with
    | () -> Interp.Finished
    | exception Rstop m -> Interp.Stopped m
    | exception Rtrap m -> Interp.Runtime_error m
    | exception Value.Bounds m -> Interp.Runtime_error m
    | exception Rtimeout -> Interp.Timed_out
    | exception Rreturn -> Interp.Finished
    | exception Rexit -> Interp.Runtime_error "exit outside a loop"
    | exception Rcycle -> Interp.Runtime_error "cycle outside a loop"
  in
  {
    Interp.status;
    cost = rt.rcost.fv;
    timers = Timers.snapshot rt.rtimers;
    records = List.rev rt.rrecords;
    printed = List.rev rt.rprinted;
    breakdown = List.mapi (fun i c -> (c, rt.rbreakdown.(i))) Machine.categories;
  }


