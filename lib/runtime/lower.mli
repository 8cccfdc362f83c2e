(** Lowering of a typechecked program to a slot-resolved IR, the input
    of the closure compiler {!Compile}.

    [lower] resolves every name once: locals and dummies become integer
    slots into a per-frame cell array, module globals and parameters
    become indices into program-wide arrays, callees become indices into
    a per-body link table, and per-site cost tables are precomputed for
    each (vector mode, real kind) pair. {!Compile.run} executes the IR
    with bit-identical observable behavior to [Interp.run] on the
    unparse→reparse round-trip of the same program.

    The optional [Cache.t] memoizes lowered procedures across variants
    keyed by name + the precision signature of every declaration the
    procedure can observe (its own scope, all module scopes, and all
    transitively reachable callees). It is domain-safe. *)

(** {1 The IR} *)

type vmode = Vscalar | Vnarrow | Vfull

val mode_idx : vmode -> int
val kind_idx : Fortran.Ast.real_kind -> int

val table6 : Machine.t -> (int -> Fortran.Ast.real_kind -> float) -> float array
(** [table6 machine f] is a cost table indexed [mode_idx m * 2 + kind_idx k]:
    [f lanes k] at the lane count of each vectorization mode. *)

type ref_ =
  | Rlocal of int  (** slot in the current frame *)
  | Rglobal of int  (** slot in the per-run global store *)
  | Rparam of int  (** slot in the lazily-evaluated parameter store *)
  | Rerr of string  (** name resolution failed: trap when touched *)

type expr =
  | Elit of Value.v
  | Evar of { name : string; r : ref_ }
  | Eneg of { e : expr; costs : float array }
  | Enot of expr
  | Ebin of {
      op : Fortran.Ast.binop;
      a : expr;
      b : expr;
      exempt : bool;  (** either operand is a real literal: casting folds *)
      costs : float array;  (** op table ([[||]] for compares and logic) *)
      powmul : float array;  (** Mul table for strength-reduced powers *)
    }
  | Earr of { name : string; r : ref_; idx : expr array; mem : float array }
  | Ecall of call_site
  | Eintr of intr
  | Etrap of string

and intr =
  | Iabs of { e : expr; costs : float array }
  | Ielem of { name : string; fn : float -> float; e : expr; costs : float array }
  | Iminmax of { name : string; args : expr array; costs : float array }
  | Imod of { a : expr; b : expr; costs : float array }
  | Iatan2 of { a : expr; b : expr; costs : float array }
  | Isign of { a : expr; b : expr; costs : float array }
  | Ireal of { e : expr; kind : Fortran.Ast.real_kind option }
  | Ireal_bad of { e : expr; k : int }
  | Idble of expr
  | Iicvt of { which : int; e : expr }
  | Idot of { an : string; ar : ref_; bn : string; br : ref_ }
  | Ireduce of { name : string; rn : string; r : ref_ }
  | Isize of { rn : string; r : ref_; dim : expr option }
  | Iinq of { name : string; e : expr }

and call_site = {
  cs_name : string;
  cs_callee : int;  (** index into the owning body's callee-name table *)
  cs_args : arg array;
  cs_arity_trap : string option;
}

and arg =
  | Aref of { name : string; r : ref_ }
  | Aval of { e : expr; lit : bool; co : copy_out option }

and copy_out = { co_name : string; co_r : ref_; co_idx : expr array }

type lhs =
  | Lsc of { name : string; r : ref_; rhs_lit : bool }
  | Larr of { name : string; r : ref_; idx : expr array; rhs_lit : bool }

type stmt =
  | Sassign of { tgt : lhs; rhs : expr }
  | Scall of call_site
  | Sallreduce of { send : expr; send_lit : bool; rn : string; recv : ref_; op : string }
  | Sbarrier
  | Sif of { arms : (expr * stmt array) array; els : stmt array }
  | Sdo of {
      vn : string;
      var : ref_;
      from_ : expr;
      to_ : expr;
      step : expr option;
      mode : vmode;
      iter_overhead : float;
      body : stmt array;
    }
  | Sdo_while of { cond : expr; body : stmt array }
  | Sselect of { selector : expr; arms : (case array * stmt array) array; default : stmt array }
  | Sexit
  | Scycle
  | Sreturn
  | Sstop of string
  | Sprint of expr array
  | Strap of string

and case =
  | Cval of expr
  | Crange of expr option * expr option

type dummy = {
  d_name : string;
  d_slot : int;
  d_base : Fortran.Ast.base_type;
  d_is_array : bool;
  d_writable : bool;
  d_undeclared : bool;
}

type local = { l_slot : int; l_base : Fortran.Ast.base_type; l_dims : expr array }
type initr = { i_name : string; i_slot : int; i_rhs : expr; i_lit : bool }

type proc_ir = {
  p_name : string;
  p_key : string;  (** cache key when lowered through a [Cache]; [""] otherwise *)
  p_result : int;  (** result slot; -1 = subroutine; -2 = function, no cell *)
  p_is_function : bool;
  p_is_wrapper : bool;
  p_inlinable : bool;
  p_nslots : int;
  p_dummies : dummy array;
  p_locals : local array;
  p_inits : initr array;
  p_body : stmt array;
  p_callees : string array;
}

type global = {
  g_slot : int;
  g_unit : string;
  g_name : string;
  g_base : Fortran.Ast.base_type;
  g_extents : int array option;
  g_init : (expr * bool) option;
}

type param = { pa_name : string; pa_base : Fortran.Ast.base_type; pa_init : expr option }

type program = {
  machine : Machine.t;
  has_main : bool;
  procs : proc_ir array;
  links : int array array;
  main_body : stmt array;
  main_key : string;  (** cache key of the main pseudo-procedure; [""] uncached *)
  main_links : int array;
  aux_links : int array;
  globals : global array;
  nglobals : int;
  params : param array;
  conv_costs : float array;
}

module Cache : sig
  type t

  val create : unit -> t

  val stats : t -> int * int
  (** [(hits, misses)] since creation. The counters are atomics
      aggregated across every domain that used the cache, so the read is
      never torn — but speculative evaluation can still make live
      traffic schedule-dependent; deterministic per-campaign diagnostics
      are derived by replaying committed records over {!cache_keys}. *)
end

val cache_keys : Fortran.Symtab.t -> string list
(** The cache keys one [lower ?cache] pass over this (already
    transformed) program requests, in request order: one per procedure,
    plus the ["<main>"] pseudo-procedure when a main program exists.
    [Compile.compile ?cache] requests exactly the same keys. Computed
    statically — nothing is lowered — so callers can account compile
    traffic for a variant without running it. *)

val lower :
  ?cache:Cache.t ->
  ?wrapper_owner:(string -> string option) ->
  machine:Machine.t ->
  Fortran.Symtab.t ->
  program
(** [wrapper_owner name] returns [Some orig] when [name] is a generated
    precision wrapper for [orig]; wrappers are exempt from timers and
    inlining, and pay [wrapper_overhead] (mirrors [Interp.run]'s
    [~wrapper_owner]). *)
