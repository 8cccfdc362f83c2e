(** Closure compilation of the [Lower] IR: the one evaluator of variant
    programs.

    [compile] translates a lowered program once into a tree of OCaml
    closures — expressions become [env -> float/int/bool/value]
    functions with slots, cost tables and static typing decisions
    pre-bound, statements become [env -> unit] — so the per-evaluation
    inner loop runs no opcode dispatch at all. [run] executes the
    compiled tree with observable behavior bit-identical to [Interp.run]
    on the unparse→reparse round trip of the same program: same status,
    cost, timers, records, printed lines and breakdown.

    Typed unboxed lanes are used only where a declared base type pins
    the runtime representation; everything else compiles to a value
    lane that dispatches on the runtime tag exactly as [Interp] does. *)

type t
(** A compiled program, ready to [run] any number of times. *)

(** Memoizes compiled procedures across variants under the same
    precision-signature keys as [Lower.Cache] ([Lower.proc_ir.p_key]).
    Compiled closures never bake procedure indices — callees resolve
    through the frame's link table at runtime — so entries are shared
    across variants and domains. *)
module Cache : sig
  type t

  val create : unit -> t

  val stats : t -> int * int
  (** [(hits, misses)] since creation. Each miss is one procedure
      compiled; each hit is one compilation avoided. Atomics aggregated
      across worker domains, as in [Lower.Cache.stats]. *)
end

val compile : ?cache:Cache.t -> Lower.program -> t
(** Procedures lowered through a [Lower.Cache] (non-empty
    [Lower.proc_ir.p_key]) are compiled at most once per [cache].
    Parameter and global initializers are compiled per program. *)

val run : ?budget:float -> t -> Interp.outcome
(** Execute the compiled program. [budget] bounds the abstract cost: a
    run that exceeds it ends [Interp.Timed_out] at the same point
    [Interp.run] does. *)
