open Fortran

type status =
  | Finished
  | Stopped of string
  | Runtime_error of string
  | Timed_out

type outcome = {
  status : status;
  cost : float;
  timers : Timers.entry list;
  records : (string * float) list;
  printed : string list;
  breakdown : (Machine.category * float) list;
      (* modeled cost by category; the Cat_convert entry is the run's
         casting overhead *)
}

let pp_status ppf = function
  | Finished -> Format.pp_print_string ppf "finished"
  | Stopped m -> Format.fprintf ppf "stopped: %s" m
  | Runtime_error m -> Format.fprintf ppf "runtime error: %s" m
  | Timed_out -> Format.pp_print_string ppf "timed out"

(* control-flow and failure signals *)
exception Return_signal
exception Exit_signal
exception Cycle_signal
exception Stop_signal of string
exception Trap of string
exception Timeout_signal

let trap fmt = Format.kasprintf (fun m -> raise (Trap m)) fmt

type vec_mode =
  | Vscalar  (* not vectorized *)
  | Vnarrow  (* vectorized at the binary64 width: the loop mixes kinds *)
  | Vfull  (* vectorized at each operation's natural width *)

type frame = {
  proc : string option;  (* None = main program body *)
  vars : (string, Value.cell) Hashtbl.t;
}

type ctx = {
  st : Symtab.t;
  machine : Machine.t;
  timers : Timers.t;
  mutable cost : float;
  budget : float option;
  vec_ok : (int, vec_mode) Hashtbl.t;  (* loop id -> vectorization mode *)
  wrapper_owner : string -> string option;
  globals : (string, Value.cell) Hashtbl.t;  (* "unit.var" *)
  params : (string, Value.v) Hashtbl.t;
  inlinable : (string, bool) Hashtbl.t;
  mutable vec : vec_mode;
  mutable records : (string * float) list;  (* reversed *)
  mutable printed : string list;  (* reversed *)
  mutable depth : int;
  mutable charging : bool;  (* disabled while folding compile-time constants *)
  mutable in_wrapper : bool;  (* executing a generated wrapper's body *)
  breakdown : float array;  (* indexed in Machine.categories order *)
}

let category_index =
  let tbl = Hashtbl.create 8 in
  List.iteri (fun i c -> Hashtbl.add tbl c i) Machine.categories;
  fun c -> Hashtbl.find tbl c

let charge ctx cat c =
  if ctx.charging then begin
    ctx.cost <- ctx.cost +. c;
    let i = category_index cat in
    ctx.breakdown.(i) <- ctx.breakdown.(i) +. c;
    Timers.charge ctx.timers c
  end

let check_budget ctx =
  match ctx.budget with
  | Some b when ctx.cost > b -> raise Timeout_signal
  | Some _ | None -> ()

let lanes_of ctx kind =
  match ctx.vec with
  | Vscalar -> 1
  | Vnarrow -> ctx.machine.Machine.lanes_f64
  | Vfull -> Machine.lanes ctx.machine kind

let conv_lanes ctx = match ctx.vec with Vscalar -> 1 | Vnarrow | Vfull -> ctx.machine.Machine.lanes_f64

(* ------------------------------------------------------------------ *)
(* Value helpers                                                       *)

let mk_real kind x =
  let x = Fp32.of_kind kind x in
  if Float.is_finite x then Value.Vreal (x, kind)
  else if Float.is_nan x then trap "NaN produced in real(kind=%d) arithmetic" (Token.int_of_kind kind)
  else trap "overflow in real(kind=%d) arithmetic" (Token.int_of_kind kind)

let as_float = function
  | Value.Vreal (x, _) -> x
  | Value.Vint i -> float_of_int i
  | Value.Vlog _ | Value.Vstr _ -> trap "numeric value expected"

let as_int = function
  | Value.Vint i -> i
  | Value.Vreal (x, _) -> int_of_float x  (* truncation, as Fortran int assignment *)
  | Value.Vlog _ | Value.Vstr _ -> trap "integer value expected"

let as_bool = function
  | Value.Vlog b -> b
  | Value.Vint _ | Value.Vreal _ | Value.Vstr _ -> trap "logical value expected"

let value_kind = function
  | Value.Vreal (_, k) -> Some k
  | Value.Vint _ | Value.Vlog _ | Value.Vstr _ -> None

let is_real_literal = function Ast.Real_lit _ -> true | _ -> false

(* result kind of promoting two operands *)
let promote_kind a b =
  match a, b with
  | Some Ast.K8, _ | _, Some Ast.K8 -> Some Ast.K8
  | Some Ast.K4, _ | _, Some Ast.K4 -> Some Ast.K4
  | None, None -> None

(* ------------------------------------------------------------------ *)
(* Storage                                                             *)

let global_key unit_name var = unit_name ^ "." ^ var

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

(* ------------------------------------------------------------------ *)
(* The interpreter                                                     *)

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
    let in_proc = match info.v_scope with Symtab.Proc_scope p -> Some p | Symtab.Unit_scope _ -> None in
    let init =
      match info.v_init with
      | Some e -> e
      | None -> trap "parameter %s has no initializer" info.v_name
    in
    (* parameters reference only literals and other parameters: evaluate in
       an empty frame; costs are compile-time, so do not charge *)
    let saved = ctx.charging in
    ctx.charging <- false;
    let frame = { proc = in_proc; vars = Hashtbl.create 1 } in
    let v = eval_expr ctx frame init in
    ctx.charging <- saved;
    let v =
      match info.v_base, v with
      | Ast.Treal k, _ -> Value.Vreal (Fp32.of_kind k (as_float v), k)
      | Ast.Tinteger, _ -> Value.Vint (as_int v)
      | Ast.Tlogical, _ -> Value.Vlog (as_bool v)
    in
    Hashtbl.replace ctx.params key v;
    v

and resolve ctx frame name : [ `Cell of Value.cell | `Param of Value.v ] =
  match Hashtbl.find_opt frame.vars name with
  | Some cell -> `Cell cell
  | None -> (
    match Symtab.lookup_var ctx.st ~in_proc:frame.proc name with
    | None -> trap "undeclared variable %s" name
    | Some info ->
      if info.v_parameter then `Param (param_value ctx info)
      else (
        match info.v_scope with
        | Symtab.Unit_scope u -> (
          match Hashtbl.find_opt ctx.globals (global_key u name) with
          | Some cell -> `Cell cell
          | None -> trap "global %s.%s not allocated" u name)
        | Symtab.Proc_scope p ->
          trap "variable %s local to %s referenced out of scope" name p))

and scalar_ref ctx frame name =
  match resolve ctx frame name with
  | `Cell (Value.Scalar r) -> r
  | `Cell (Value.Real_array _ | Value.Int_array _ | Value.Log_array _) ->
    trap "array %s used as a scalar" name
  | `Param _ -> trap "parameter %s cannot be assigned" name

and eval_expr ctx frame (e : Ast.expr) : Value.v =
  match e with
  | Ast.Int_lit i -> Value.Vint i
  | Ast.Real_lit { value; kind; _ } -> Value.Vreal (Fp32.of_kind kind value, kind)
  | Ast.Logical_lit b -> Value.Vlog b
  | Ast.Str_lit s -> Value.Vstr s
  | Ast.Var name -> (
    match resolve ctx frame name with
    | `Param v -> v
    | `Cell (Value.Scalar r) -> !r
    | `Cell (Value.Real_array _ | Value.Int_array _ | Value.Log_array _) ->
      trap "whole array %s used as a value" name)
  | Ast.Unop (Ast.Neg, e1) -> (
    match eval_expr ctx frame e1 with
    | Value.Vint i ->
      charge ctx Machine.Cat_flops ctx.machine.Machine.int_op;
      Value.Vint (-i)
    | Value.Vreal (x, k) ->
      charge ctx Machine.Cat_flops (Machine.op_cost ctx.machine ~lanes:(lanes_of ctx k) k Ast.Sub);
      mk_real k (-.x)
    | Value.Vlog _ | Value.Vstr _ -> trap "negation of non-numeric value")
  | Ast.Unop (Ast.Not, e1) -> Value.Vlog (not (as_bool (eval_expr ctx frame e1)))
  | Ast.Binop (op, a, b) -> eval_binop ctx frame op a b
  | Ast.Index (name, args) -> (
    (* array element, intrinsic, or user function *)
    match Hashtbl.find_opt frame.vars name with
    | Some cell -> array_load ctx frame name cell args
    | None -> (
      match Symtab.lookup_var ctx.st ~in_proc:frame.proc name with
      | Some info when info.v_dims <> [] -> (
        match resolve ctx frame name with
        | `Cell cell -> array_load ctx frame name cell args
        | `Param _ -> trap "array parameter %s unsupported" name)
      | Some _ -> trap "scalar %s subscripted" name
      | None ->
        if Builtins.is_intrinsic_function name then eval_intrinsic ctx frame name args
        else
          (* user function call *)
          (match call_user ctx frame name args with
          | Some v -> v
          | None -> trap "subroutine %s called as a function" name)))

and eval_binop ctx frame op a b =
  match op with
  | Ast.And ->
    (* short-circuit; Fortran does not specify, but it is safe here *)
    if as_bool (eval_expr ctx frame a) then Value.Vlog (as_bool (eval_expr ctx frame b))
    else Value.Vlog false
  | Ast.Or ->
    if as_bool (eval_expr ctx frame a) then Value.Vlog true
    else Value.Vlog (as_bool (eval_expr ctx frame b))
  | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Pow | Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt
  | Ast.Ge ->
    let va = eval_expr ctx frame a in
    let vb = eval_expr ctx frame b in
    let ka = value_kind va in
    let kb = value_kind vb in
    (* casting overhead: mixing real kinds where neither side is a literal
       (literal conversions fold at compile time) *)
    (match ka, kb with
    | Some k1, Some k2 when k1 <> k2 ->
      if not (is_real_literal a || is_real_literal b) then
        charge ctx Machine.Cat_convert (Machine.convert_cost ctx.machine ~lanes:(conv_lanes ctx))
    | _ -> ());
    (match va, vb, op with
    | Value.Vint x, Value.Vint y, (Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Pow) ->
      charge ctx Machine.Cat_flops ctx.machine.Machine.int_op;
      Value.Vint
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
        | _ -> assert false)
    | _, _, (Ast.Add | Ast.Sub | Ast.Mul | Ast.Div) ->
      let k = match promote_kind ka kb with Some k -> k | None -> trap "numeric operands expected" in
      charge ctx Machine.Cat_flops (Machine.op_cost ctx.machine ~lanes:(lanes_of ctx k) k op);
      let x = as_float va and y = as_float vb in
      mk_real k
        (match op with
        | Ast.Add -> x +. y
        | Ast.Sub -> x -. y
        | Ast.Mul -> x *. y
        | Ast.Div -> x /. y
        | _ -> assert false)
    | _, _, Ast.Pow -> (
      let k = match promote_kind ka kb with Some k -> k | None -> trap "numeric operands expected" in
      let x = as_float va in
      match vb with
      | Value.Vint n when abs n <= 4 ->
        (* strength-reduced small integer powers *)
        charge ctx Machine.Cat_flops (Machine.op_cost ctx.machine ~lanes:(lanes_of ctx k) k Ast.Mul *. float_of_int (max 1 (abs n - 1)));
        let rec pow acc i = if i = 0 then acc else pow (acc *. x) (i - 1) in
        let v = pow 1.0 (abs n) in
        mk_real k (if n < 0 then 1.0 /. v else v)
      | _ ->
        charge ctx Machine.Cat_flops (Machine.op_cost ctx.machine ~lanes:(lanes_of ctx k) k Ast.Pow);
        mk_real k (Float.pow x (as_float vb)))
    | _, _, (Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge) ->
      charge ctx Machine.Cat_flops ctx.machine.Machine.compare_cost;
      (match va, vb with
      | Value.Vlog x, Value.Vlog y ->
        Value.Vlog (match op with Ast.Eq -> x = y | Ast.Ne -> x <> y | _ -> trap "ordering of logicals")
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
    | _, _, (Ast.And | Ast.Or) -> assert false)

and eval_indices ctx frame args =
  List.map
    (fun a ->
      charge ctx Machine.Cat_flops ctx.machine.Machine.int_op;
      as_int (eval_expr ctx frame a))
    args

and array_load ctx frame name cell args =
  let indices = eval_indices ctx frame args in
  match cell with
  | Value.Real_array { kind; data; dims } ->
    charge ctx Machine.Cat_memory (Machine.mem_cost ctx.machine ~lanes:(lanes_of ctx kind) kind);
    Value.Vreal (data.(Value.offset ~name ~dims indices), kind)
  | Value.Int_array { data; dims } ->
    charge ctx Machine.Cat_flops ctx.machine.Machine.int_op;
    Value.Vint (data.(Value.offset ~name ~dims indices))
  | Value.Log_array { data; dims } -> Value.Vlog (data.(Value.offset ~name ~dims indices))
  | Value.Scalar _ -> trap "scalar %s subscripted" name

and array_store ctx frame name cell args v rhs_expr =
  let indices = eval_indices ctx frame args in
  match cell with
  | Value.Real_array { kind; data; dims } ->
    charge ctx Machine.Cat_memory (Machine.mem_cost ctx.machine ~lanes:(lanes_of ctx kind) kind);
    (match value_kind v with
    | Some k when k <> kind ->
      if not (is_real_literal rhs_expr) then
        charge ctx Machine.Cat_convert (Machine.convert_cost ctx.machine ~lanes:(conv_lanes ctx))
    | _ -> ());
    let x = Fp32.of_kind kind (as_float v) in
    if not (Float.is_finite x) then
      trap "non-finite value stored to %s (real(kind=%d))" name (Token.int_of_kind kind);
    data.(Value.offset ~name ~dims indices) <- x
  | Value.Int_array { data; dims } ->
    charge ctx Machine.Cat_flops ctx.machine.Machine.int_op;
    data.(Value.offset ~name ~dims indices) <- as_int v
  | Value.Log_array { data; dims } -> data.(Value.offset ~name ~dims indices) <- as_bool v
  | Value.Scalar _ -> trap "scalar %s subscripted" name

and scalar_store ctx r v ~rhs_expr ~name =
  ignore name;
  match !r, v with
  | Value.Vreal (_, k), _ ->
    (match value_kind v with
    | Some k2 when k2 <> k ->
      if not (is_real_literal rhs_expr) then
        charge ctx Machine.Cat_convert (Machine.convert_cost ctx.machine ~lanes:(conv_lanes ctx))
    | _ -> ());
    let x = Fp32.of_kind k (as_float v) in
    if not (Float.is_finite x) then
      trap "non-finite value stored to real(kind=%d) scalar" (Token.int_of_kind k);
    r := Value.Vreal (x, k)
  | Value.Vint _, _ -> r := Value.Vint (as_int v)
  | Value.Vlog _, _ -> r := Value.Vlog (as_bool v)
  | Value.Vstr _, _ -> r := v

(* ------------------------------------------------------------------ *)
(* Intrinsics                                                          *)

and eval_intrinsic ctx frame name args =
  let unary () =
    match args with
    | [ a ] -> eval_expr ctx frame a
    | _ -> trap "intrinsic %s expects one argument" name
  in
  let charge_elemental k = charge ctx Machine.Cat_flops (Machine.intrinsic_cost ctx.machine ~lanes:(lanes_of ctx k) k name) in
  match name with
  | "abs" -> (
    match unary () with
    | Value.Vint i ->
      charge ctx Machine.Cat_flops ctx.machine.Machine.int_op;
      Value.Vint (abs i)
    | Value.Vreal (x, k) ->
      charge_elemental k;
      mk_real k (Float.abs x)
    | Value.Vlog _ | Value.Vstr _ -> trap "abs of non-numeric value")
  | "sqrt" | "exp" | "log" | "log10" | "sin" | "cos" | "tan" | "atan" | "asin" | "acos"
  | "sinh" | "cosh" | "tanh" | "aint" | "anint" -> (
    match unary () with
    | Value.Vreal (x, k) ->
      charge_elemental k;
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
      mk_real k (f x)
    | Value.Vint _ | Value.Vlog _ | Value.Vstr _ -> trap "%s of non-real value" name)
  | "min" | "max" ->
    let vs = List.map (eval_expr ctx frame) args in
    if List.length vs < 2 then trap "%s needs at least two arguments" name;
    let kind = List.fold_left (fun acc v -> promote_kind acc (value_kind v)) None vs in
    (match kind with
    | None ->
      charge ctx Machine.Cat_flops ctx.machine.Machine.int_op;
      let ints = List.map as_int vs in
      Value.Vint (List.fold_left (if name = "min" then min else max) (List.hd ints) (List.tl ints))
    | Some k ->
      charge_elemental k;
      let fs = List.map as_float vs in
      let f = List.fold_left (if name = "min" then Float.min else Float.max) (List.hd fs) (List.tl fs) in
      mk_real k f)
  | "mod" -> (
    match args with
    | [ a; b ] -> (
      let va = eval_expr ctx frame a in
      let vb = eval_expr ctx frame b in
      match va, vb with
      | Value.Vint x, Value.Vint y ->
        charge ctx Machine.Cat_flops ctx.machine.Machine.int_op;
        if y = 0 then trap "mod with zero divisor" else Value.Vint (x - (x / y * y))
      | _ ->
        let k = match promote_kind (value_kind va) (value_kind vb) with Some k -> k | None -> trap "mod of non-numeric" in
        charge ctx Machine.Cat_flops (Machine.op_cost ctx.machine ~lanes:(lanes_of ctx k) k Ast.Div);
        let x = as_float va and y = as_float vb in
        mk_real k (Float.rem x y))
    | _ -> trap "mod expects two arguments")
  | "atan2" -> (
    match args with
    | [ a; b ] -> (
      let va = eval_expr ctx frame a in
      let vb = eval_expr ctx frame b in
      match promote_kind (value_kind va) (value_kind vb) with
      | Some k ->
        charge_elemental k;
        mk_real k (Float.atan2 (as_float va) (as_float vb))
      | None -> trap "atan2 of non-real values")
    | _ -> trap "atan2 expects two arguments")
  | "sign" -> (
    match args with
    | [ a; b ] ->
      let x = eval_expr ctx frame a in
      let y = eval_expr ctx frame b in
      (match promote_kind (value_kind x) (value_kind y) with
      | Some k ->
        charge_elemental k;
        let m = Float.abs (as_float x) in
        mk_real k (if as_float y >= 0.0 then m else -.m)
      | None ->
        charge ctx Machine.Cat_flops ctx.machine.Machine.int_op;
        let m = abs (as_int x) in
        Value.Vint (if as_int y >= 0 then m else -m))
    | _ -> trap "sign expects two arguments")
  | "real" -> (
    match args with
    | [ a ] ->
      let v = eval_expr ctx frame a in
      (match value_kind v with
      | Some Ast.K4 | None -> ()
      | Some Ast.K8 -> charge ctx Machine.Cat_convert (Machine.convert_cost ctx.machine ~lanes:(conv_lanes ctx)));
      Value.Vreal (Fp32.round (as_float v), Ast.K4)
    | [ a; Ast.Int_lit k ] -> (
      let v = eval_expr ctx frame a in
      match Token.kind_of_int k with
      | Some kk ->
        if value_kind v <> Some kk && value_kind v <> None then
          charge ctx Machine.Cat_convert (Machine.convert_cost ctx.machine ~lanes:(conv_lanes ctx));
        Value.Vreal (Fp32.of_kind kk (as_float v), kk)
      | None -> trap "real(): unsupported kind %d" k)
    | _ -> trap "real() expects (x) or (x, kind)")
  | "dble" ->
    let v = unary () in
    if value_kind v = Some Ast.K4 then charge ctx Machine.Cat_convert (Machine.convert_cost ctx.machine ~lanes:(conv_lanes ctx));
    Value.Vreal (as_float v, Ast.K8)
  | "int" ->
    charge ctx Machine.Cat_flops ctx.machine.Machine.int_op;
    Value.Vint (int_of_float (as_float (unary ())))
  | "nint" ->
    charge ctx Machine.Cat_flops ctx.machine.Machine.int_op;
    Value.Vint (int_of_float (Float.round (as_float (unary ()))))
  | "floor" ->
    charge ctx Machine.Cat_flops ctx.machine.Machine.int_op;
    Value.Vint (int_of_float (Float.floor (as_float (unary ()))))
  | "dot_product" -> (
    match args with
    | [ Ast.Var a; Ast.Var b ] -> (
      (* [a] resolves first: the order decides which trap a run reports *)
      let ra = resolve ctx frame a in
      let rb = resolve ctx frame b in
      match ra, rb with
      | ( `Cell (Value.Real_array { kind = ka; data = da; _ }),
          `Cell (Value.Real_array { kind = kb; data = db; _ }) ) ->
        let n = min (Array.length da) (Array.length db) in
        let kind = if ka = Ast.K8 || kb = Ast.K8 then Ast.K8 else Ast.K4 in
        let l = Machine.lanes ctx.machine kind in
        charge ctx Machine.Cat_flops
          (2.0 *. float_of_int n *. Machine.op_cost ctx.machine ~lanes:l kind Ast.Add);
        charge ctx Machine.Cat_memory
          (2.0 *. float_of_int n *. Machine.mem_cost ctx.machine ~lanes:l kind);
        let s = ref 0.0 in
        for i = 0 to n - 1 do
          s := Fp32.of_kind kind (!s +. Fp32.of_kind kind (da.(i) *. db.(i)))
        done;
        mk_real kind !s
      | _ -> trap "dot_product expects two real arrays")
    | _ -> trap "dot_product expects two whole-array arguments")
  | "sum" | "maxval" | "minval" -> (
    match args with
    | [ Ast.Var arr ] -> (
      match resolve ctx frame arr with
      | `Cell (Value.Real_array { kind; data; _ }) ->
        let n = Array.length data in
        (* library reductions vectorize internally *)
        let l = Machine.lanes ctx.machine kind in
        charge ctx Machine.Cat_flops
          (float_of_int n *. Machine.op_cost ctx.machine ~lanes:l kind Ast.Add);
        charge ctx Machine.Cat_memory
          (float_of_int n *. Machine.mem_cost ctx.machine ~lanes:l kind);
        (match name with
        | "sum" ->
          let s = ref 0.0 in
          Array.iter (fun x -> s := Fp32.of_kind kind (!s +. x)) data;
          mk_real kind !s
        | "maxval" ->
          if n = 0 then trap "maxval of empty array"
          else mk_real kind (Array.fold_left Float.max data.(0) data)
        | "minval" ->
          if n = 0 then trap "minval of empty array"
          else mk_real kind (Array.fold_left Float.min data.(0) data)
        | _ -> assert false)
      | `Cell (Value.Int_array { data; _ }) ->
        charge ctx Machine.Cat_flops (float_of_int (Array.length data) *. ctx.machine.Machine.int_op);
        (match name with
        | "sum" -> Value.Vint (Array.fold_left ( + ) 0 data)
        | "maxval" -> Value.Vint (Array.fold_left max min_int data)
        | "minval" -> Value.Vint (Array.fold_left min max_int data)
        | _ -> assert false)
      | `Cell (Value.Scalar _ | Value.Log_array _) | `Param _ -> trap "%s of non-array" name)
    | _ -> trap "%s expects a whole-array argument" name)
  | "size" -> (
    match args with
    | [ Ast.Var arr ] -> (
      match resolve ctx frame arr with
      | `Cell (Value.Real_array { dims; _ }) -> Value.Vint (Value.elements dims)
      | `Cell (Value.Int_array { dims; _ }) -> Value.Vint (Value.elements dims)
      | `Cell (Value.Log_array { dims; _ }) -> Value.Vint (Value.elements dims)
      | `Cell (Value.Scalar _) | `Param _ -> trap "size of non-array")
    | [ Ast.Var arr; d ] -> (
      let dim = as_int (eval_expr ctx frame d) in
      match resolve ctx frame arr with
      | `Cell (Value.Real_array { dims; _ })
      | `Cell (Value.Int_array { dims; _ })
      | `Cell (Value.Log_array { dims; _ }) ->
        if dim >= 1 && dim <= Array.length dims then Value.Vint dims.(dim - 1)
        else trap "size: dimension %d out of range" dim
      | `Cell (Value.Scalar _) | `Param _ -> trap "size of non-array")
    | _ -> trap "size expects an array argument")
  | "epsilon" | "huge" | "tiny" -> (
    match unary () with
    | Value.Vreal (_, k) ->
      let v =
        match name, k with
        | "epsilon", Ast.K8 -> epsilon_float
        | "epsilon", Ast.K4 -> 1.1920928955078125e-07
        | "huge", Ast.K8 -> max_float
        | "huge", Ast.K4 -> Fp32.max_finite
        | "tiny", Ast.K8 -> min_float
        | "tiny", Ast.K4 -> Fp32.min_positive_normal
        | _ -> assert false
      in
      Value.Vreal (v, k)
    | Value.Vint _ | Value.Vlog _ | Value.Vstr _ -> trap "%s of non-real value" name)
  | _ -> trap "unknown intrinsic %s" name

(* ------------------------------------------------------------------ *)
(* Procedure calls                                                     *)

and call_user ctx frame name arg_exprs : Value.v option =
  let p =
    match Symtab.find_proc ctx.st name with
    | Some p -> p
    | None -> trap "unknown procedure %s" name
  in
  ctx.depth <- ctx.depth + 1;
  if ctx.depth > 200 then trap "call depth limit exceeded at %s" name;
  check_budget ctx;
  if List.length arg_exprs <> List.length p.Ast.params then
    trap "procedure %s expects %d arguments, got %d" name (List.length p.Ast.params)
      (List.length arg_exprs);
  let callee_frame = { proc = Some name; vars = Hashtbl.create 16 } in
  (* Bind dummies; returns the copy-out list. *)
  let uniform = ref true in
  let copy_out = ref [] in
  List.iter2
    (fun dummy actual ->
      let dinfo =
        match Symtab.lookup_var ctx.st ~in_proc:(Some name) dummy with
        | Some i -> i
        | None -> trap "dummy %s of %s undeclared" dummy name
      in
      if dinfo.v_dims <> [] then begin
        (* whole-array association: share the cell *)
        match actual with
        | Ast.Var a -> (
          match resolve ctx frame a with
          | `Cell (Value.Real_array { kind; _ } as cell) -> (
            match dinfo.v_base with
            | Ast.Treal dk when dk = kind -> Hashtbl.replace callee_frame.vars dummy cell
            | Ast.Treal dk ->
              trap
                "argument %s of %s: real(kind=%d) array passed to real(kind=%d) dummy %s — \
                 wrapper required"
                a name (Token.int_of_kind kind) (Token.int_of_kind dk) dummy
            | Ast.Tinteger | Ast.Tlogical -> trap "array type mismatch for %s of %s" dummy name)
          | `Cell (Value.Int_array _ as cell) -> (
            match dinfo.v_base with
            | Ast.Tinteger -> Hashtbl.replace callee_frame.vars dummy cell
            | Ast.Treal _ | Ast.Tlogical -> trap "array type mismatch for %s of %s" dummy name)
          | `Cell (Value.Log_array _ as cell) -> (
            match dinfo.v_base with
            | Ast.Tlogical -> Hashtbl.replace callee_frame.vars dummy cell
            | Ast.Treal _ | Ast.Tinteger -> trap "array type mismatch for %s of %s" dummy name)
          | `Cell (Value.Scalar _) -> trap "scalar %s passed to array dummy %s of %s" a dummy name
          | `Param _ -> trap "parameter %s passed to array dummy" a)
        | _ -> trap "array dummy %s of %s requires a whole-array actual argument" dummy name
      end
      else begin
        (* scalar dummy *)
        match actual, dinfo.v_base with
        | Ast.Var a, _ -> (
          match resolve ctx frame a with
          | `Cell (Value.Scalar r as cell) -> (
            match !r, dinfo.v_base with
            | Value.Vreal (_, ak), Ast.Treal dk ->
              if ak = dk then Hashtbl.replace callee_frame.vars dummy cell
              else begin
                uniform := false;
                trap
                  "argument %s of %s: real(kind=%d) passed to real(kind=%d) dummy %s — wrapper \
                   required"
                  a name (Token.int_of_kind ak) (Token.int_of_kind dk) dummy
              end
            | Value.Vint _, Ast.Tinteger | Value.Vlog _, Ast.Tlogical ->
              Hashtbl.replace callee_frame.vars dummy cell
            | _ -> trap "type mismatch binding %s to dummy %s of %s" a dummy name)
          | `Param v -> bind_by_value ctx callee_frame ~callee:name ~dummy ~dinfo ~actual v uniform
          | `Cell (Value.Real_array _ | Value.Int_array _ | Value.Log_array _) ->
            trap "array %s passed to scalar dummy %s of %s" a dummy name)
        | _, _ ->
          let v = eval_expr ctx frame actual in
          bind_by_value ctx callee_frame ~callee:name ~dummy ~dinfo ~actual v uniform;
          (* copy-out for array-element actuals when the dummy may write *)
          (match actual, dinfo.v_intent with
          | Ast.Index (arr_name, idx), (Some Ast.Out | Some Ast.Inout | None) -> (
            match Symtab.lookup_var ctx.st ~in_proc:frame.proc arr_name with
            | Some { v_dims = _ :: _; v_parameter = false; _ } ->
              copy_out := (arr_name, idx, dummy) :: !copy_out
            | Some _ | None -> ())
          | _ -> ())
      end)
    p.Ast.params arg_exprs;
  (* allocate locals (non-dummy, non-parameter) *)
  List.iter
    (fun (info : Symtab.var_info) ->
      if (not (Hashtbl.mem callee_frame.vars info.v_name)) && not info.v_parameter then begin
        let extents =
          List.map (fun d -> as_int (eval_expr ctx callee_frame d)) info.v_dims
        in
        Hashtbl.replace callee_frame.vars info.v_name (alloc_cell info.v_base extents)
      end)
    (Symtab.vars_of_scope ctx.st (Symtab.Proc_scope name));
  (* run declaration initializers *)
  List.iter
    (fun (info : Symtab.var_info) ->
      match info.v_init with
      | Some e when not info.v_parameter ->
        let v = eval_expr ctx callee_frame e in
        (match Hashtbl.find_opt callee_frame.vars info.v_name with
        | Some (Value.Scalar r) -> scalar_store ctx r v ~rhs_expr:e ~name:info.v_name
        | Some _ | None -> trap "initializer on array %s unsupported" info.v_name)
      | Some _ | None -> ())
    (Symtab.vars_of_scope ctx.st (Symtab.Proc_scope name));
  (* call cost: inlinable, kind-uniform calls are free; wrappers pay extra *)
  let is_wrapper = ctx.wrapper_owner name <> None in
  (* a call from inside a wrapper body is never inlined: the boundary
     conversions are exactly what defeated inlining of the original call
     (the paper's MPAS-A flux observation) *)
  let inl =
    (not is_wrapper) && (not ctx.in_wrapper) && !uniform
    && Option.value ~default:false (Hashtbl.find_opt ctx.inlinable name)
  in
  (* Wrappers do not get a timer of their own: their conversion cost lands
     on the procedure containing the call site, exactly where GPTL-style
     instrumentation inside the work routines would leave it. The wrapped
     callee still times itself when invoked from the wrapper body. Call
     overhead is charged after timer entry, so a non-inlined callee's
     per-call time includes its call cost — as a GPTL timer at function
     entry would report. *)
  if not is_wrapper then Timers.enter ctx.timers name ~now:ctx.cost;
  if not inl then begin
    charge ctx Machine.Cat_call ctx.machine.Machine.call_overhead;
    if is_wrapper then charge ctx Machine.Cat_call ctx.machine.Machine.wrapper_overhead
  end;
  let saved_vec = ctx.vec in
  let saved_in_wrapper = ctx.in_wrapper in
  if not inl then ctx.vec <- Vscalar;
  ctx.in_wrapper <- is_wrapper;
  let finish () =
    if not is_wrapper then Timers.exit_ ctx.timers ~now:ctx.cost;
    ctx.vec <- saved_vec;
    ctx.in_wrapper <- saved_in_wrapper;
    ctx.depth <- ctx.depth - 1
  in
  (match exec_block ctx callee_frame p.Ast.proc_body with
  | () -> ()
  | exception Return_signal -> ()
  | exception e ->
    finish ();
    raise e);
  finish ();
  (* copy-out temporaries bound to array elements *)
  List.iter
    (fun (arr_name, idx, dummy) ->
      match Hashtbl.find_opt callee_frame.vars dummy with
      | Some (Value.Scalar r) -> (
        match resolve ctx frame arr_name with
        | `Cell cell -> array_store ctx frame arr_name cell idx !r (Ast.Var dummy)
        | `Param _ -> ())
      | Some _ | None -> ())
    !copy_out;
  match p.Ast.proc_kind with
  | Ast.Subroutine -> None
  | Ast.Function { result } -> (
    match Hashtbl.find_opt callee_frame.vars result with
    | Some (Value.Scalar r) -> Some !r
    | Some _ -> trap "array-valued function %s unsupported" name
    | None -> trap "function %s has no result cell" name)

and bind_by_value ctx callee_frame ~callee ~dummy ~dinfo ~actual v uniform =
  ignore ctx;
  match dinfo.Symtab.v_base, v with
  | Ast.Treal dk, Value.Vreal (_, ak) ->
    if ak <> dk then begin
      uniform := false;
      if is_real_literal actual then begin
        (* literal kind conversions fold at compile time *)
        uniform := true;
        Hashtbl.replace callee_frame.vars dummy
          (Value.Scalar (ref (Value.Vreal (Fp32.of_kind dk (as_float v), dk))))
      end
      else
        trap
          "argument %d-ish of %s: real(kind=%d) value passed to real(kind=%d) dummy %s — \
           wrapper required"
          0 callee (Token.int_of_kind ak) (Token.int_of_kind dk) dummy
    end
    else Hashtbl.replace callee_frame.vars dummy (Value.Scalar (ref v))
  | Ast.Treal dk, Value.Vint i ->
    Hashtbl.replace callee_frame.vars dummy
      (Value.Scalar (ref (Value.Vreal (Fp32.of_kind dk (float_of_int i), dk))))
  | Ast.Tinteger, Value.Vint _ | Ast.Tlogical, Value.Vlog _ ->
    Hashtbl.replace callee_frame.vars dummy (Value.Scalar (ref v))
  | _ -> trap "type mismatch binding value to dummy %s of %s" dummy callee

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)

and exec_block ctx frame blk = List.iter (exec_stmt ctx frame) blk

and exec_stmt ctx frame (s : Ast.stmt) =
  match s.node with
  | Ast.Assign (lhs, rhs) -> (
    let v = eval_expr ctx frame rhs in
    match lhs with
    | Ast.Lvar name -> (
      match resolve ctx frame name with
      | `Cell (Value.Scalar r) -> scalar_store ctx r v ~rhs_expr:rhs ~name
      | `Cell _ -> trap "assignment to whole array %s unsupported" name
      | `Param _ -> trap "assignment to parameter %s" name)
    | Ast.Lindex (name, idx) -> (
      match resolve ctx frame name with
      | `Cell cell -> array_store ctx frame name cell idx v rhs
      | `Param _ -> trap "assignment to parameter %s" name))
  | Ast.Call (name, args) ->
    if Builtins.is_intrinsic_subroutine name then exec_builtin_call ctx frame name args
    else ignore (call_user ctx frame name args)
  | Ast.If (arms, els) ->
    let rec go = function
      | [] -> exec_block ctx frame els
      | (cond, blk) :: rest ->
        if as_bool (eval_expr ctx frame cond) then exec_block ctx frame blk else go rest
    in
    go arms
  | Ast.Do { id; var; from_; to_; step; body } ->
    let r = scalar_ref ctx frame var in
    let lo = as_int (eval_expr ctx frame from_) in
    let hi = as_int (eval_expr ctx frame to_) in
    let stp = match step with Some e -> as_int (eval_expr ctx frame e) | None -> 1 in
    if stp = 0 then trap "do loop with zero step";
    let vec_here = Option.value ~default:Vscalar (Hashtbl.find_opt ctx.vec_ok id) in
    let saved_vec = ctx.vec in
    ctx.vec <- vec_here;
    let iter_overhead =
      match vec_here with
      | Vscalar -> ctx.machine.Machine.loop_overhead
      | Vnarrow | Vfull ->
        ctx.machine.Machine.loop_overhead /. float_of_int ctx.machine.Machine.lanes_f64
    in
    let restore () = ctx.vec <- saved_vec in
    (try
       let i = ref lo in
       while (stp > 0 && !i <= hi) || (stp < 0 && !i >= hi) do
         r := Value.Vint !i;
         charge ctx Machine.Cat_loop iter_overhead;
         check_budget ctx;
         (try exec_block ctx frame body with Cycle_signal -> ());
         i := !i + stp
       done
     with
    | Exit_signal -> ()
    | e ->
      restore ();
      raise e);
    restore ()
  | Ast.Do_while { cond; body; _ } ->
    (try
       while as_bool (eval_expr ctx frame cond) do
         charge ctx Machine.Cat_loop ctx.machine.Machine.loop_overhead;
         check_budget ctx;
         try exec_block ctx frame body with Cycle_signal -> ()
       done
     with Exit_signal -> ())
  | Ast.Select { selector; arms; default } ->
    let sel = eval_expr ctx frame selector in
    charge ctx Machine.Cat_flops ctx.machine.Machine.compare_cost;
    let matches item =
      match item, sel with
      | Ast.Case_value v, _ -> (
        match eval_expr ctx frame v, sel with
        | Value.Vint a, Value.Vint b -> a = b
        | Value.Vlog a, Value.Vlog b -> a = b
        | _ -> trap "case value incompatible with selector")
      | Ast.Case_range (lo, hi), Value.Vint x ->
        let above =
          match lo with Some e -> x >= as_int (eval_expr ctx frame e) | None -> true
        in
        let below =
          match hi with Some e -> x <= as_int (eval_expr ctx frame e) | None -> true
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
  | Ast.Print_stmt args ->
    let vs = List.map (fun a -> (a, eval_expr ctx frame a)) args in
    let line = String.concat " " (List.map (fun (_, v) -> Value.to_string v) vs) in
    ctx.printed <- line :: ctx.printed;
    (match vs with
    | (_, Value.Vstr key) :: rest ->
      List.iter
        (fun (_, v) ->
          match v with
          | Value.Vreal (x, _) -> ctx.records <- (key, x) :: ctx.records
          | Value.Vint i -> ctx.records <- (key, float_of_int i) :: ctx.records
          | Value.Vlog _ | Value.Vstr _ -> ())
        rest
    | _ -> ())

and exec_builtin_call ctx frame name args =
  match name, args with
  | "mpi_allreduce", [ send; Ast.Var recv; Ast.Str_lit op ] ->
    let v = eval_expr ctx frame send in
    charge ctx Machine.Cat_reduction ctx.machine.Machine.allreduce;
    (* single-rank semantics: the reduction of one contribution *)
    (match op with
    | "sum" | "max" | "min" -> ()
    | _ -> trap "mpi_allreduce: unknown op %s" op);
    let r = scalar_ref ctx frame recv in
    scalar_store ctx r v ~rhs_expr:send ~name:recv
  | "mpi_allreduce", _ -> trap "mpi_allreduce expects (send, recv, 'op')"
  | "mpi_barrier", [] -> charge ctx Machine.Cat_reduction (ctx.machine.Machine.allreduce /. 2.0)
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
  (* run module-level initializers *)
  List.iter
    (fun u ->
      let uname = Ast.unit_name u in
      List.iter
        (fun (info : Symtab.var_info) ->
          match info.v_init with
          | Some e when not info.v_parameter -> (
            let frame = { proc = None; vars = Hashtbl.create 1 } in
            let v = eval_expr ctx frame e in
            match Hashtbl.find_opt ctx.globals (global_key uname info.v_name) with
            | Some (Value.Scalar r) -> scalar_store ctx r v ~rhs_expr:e ~name:info.v_name
            | Some _ | None -> trap "initializer on module array %s unsupported" info.v_name)
          | Some _ | None -> ())
        (Symtab.vars_of_scope ctx.st (Symtab.Unit_scope uname)))
    prog

let run ?(machine = Machine.default) ?budget ?loop_reports ?(wrapper_owner = fun _ -> None) st =
  let reports =
    match loop_reports with
    | Some r -> r
    | None -> Analysis.Vectorize.analyze ~inline_stmt_limit:machine.Machine.inline_stmt_limit st
  in
  let vec_ok = Hashtbl.create 32 in
  List.iter
    (fun (r : Analysis.Vectorize.report) ->
      let ratio =
        (* a loop that only converts (e.g. a wrapper copy loop) has nothing
           to amortize the packed converts against: treat as all-conversion *)
        if r.Analysis.Vectorize.fp_ops = 0 then
          if r.Analysis.Vectorize.conv_sites > 0 then infinity else 0.0
        else float_of_int r.Analysis.Vectorize.conv_sites /. float_of_int r.Analysis.Vectorize.fp_ops
      in
      let mode =
        if not (Analysis.Vectorize.vectorizable r) then Vscalar
        else if ratio > machine.Machine.conv_ratio_threshold then Vscalar
        else if ratio > 0.0 then Vnarrow
        else Vfull
      in
      Hashtbl.replace vec_ok r.Analysis.Vectorize.loop_id mode)
    reports;
  let inlinable = Hashtbl.create 32 in
  List.iter
    (fun name ->
      match Symtab.find_proc st name with
      | Some p ->
        Hashtbl.replace inlinable name
          (Analysis.Vectorize.inlinable st ~inline_stmt_limit:machine.Machine.inline_stmt_limit p)
      | None -> ())
    (Symtab.all_proc_names st);
  let ctx =
    {
      st;
      machine;
      timers = Timers.create ();
      cost = 0.0;
      budget;
      vec_ok;
      wrapper_owner;
      globals = Hashtbl.create 64;
      params = Hashtbl.create 64;
      inlinable;
      vec = Vscalar;
      records = [];
      printed = [];
      depth = 0;
      charging = true;
      in_wrapper = false;
      breakdown = Array.make (List.length Machine.categories) 0.0;
    }
  in
  let status =
    match
      prepare_globals ctx;
      match Ast.main_of (Symtab.program st) with
      | None -> trap "program has no main unit"
      | Some m ->
        let frame = { proc = None; vars = Hashtbl.create 16 } in
        ignore m.Ast.main_name;
        Timers.enter ctx.timers "<main>" ~now:ctx.cost;
        (try exec_block ctx frame m.Ast.main_body
         with e ->
           Timers.exit_ ctx.timers ~now:ctx.cost;
           raise e);
        Timers.exit_ ctx.timers ~now:ctx.cost
    with
    | () -> Finished
    | exception Stop_signal m -> Stopped m
    | exception Trap m -> Runtime_error m
    | exception Value.Bounds m -> Runtime_error m
    | exception Timeout_signal -> Timed_out
    | exception Return_signal -> Finished
    | exception Exit_signal -> Runtime_error "exit outside a loop"
    | exception Cycle_signal -> Runtime_error "cycle outside a loop"
  in
  {
    status;
    cost = ctx.cost;
    timers = Timers.snapshot ctx.timers;
    records = List.rev ctx.records;
    printed = List.rev ctx.printed;
    breakdown = List.mapi (fun i c -> (c, ctx.breakdown.(i))) Machine.categories;
  }

let series (outcome : outcome) key =
  List.filter_map (fun (k, v) -> if k = key then Some v else None) outcome.records

let record_keys (outcome : outcome) =
  let seen = Hashtbl.create 8 in
  List.filter_map
    (fun (k, _) ->
      if Hashtbl.mem seen k then None
      else begin
        Hashtbl.add seen k ();
        Some k
      end)
    outcome.records

let casting_share (outcome : outcome) =
  if outcome.cost <= 0.0 then 0.0
  else
    match List.assoc_opt Machine.Cat_convert outcome.breakdown with
    | Some c -> c /. outcome.cost
    | None -> 0.0
