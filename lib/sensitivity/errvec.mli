(** Sparse per-atom error vectors: the value-error half of {!Absint}'s
    abstract values.

    A vector maps atom indices to absolute-error bounds. It is stored as
    two flat arrays — ascending [int] keys and unboxed [float] values —
    and every kernel is one monomorphic loop over the key union, with no
    closure and no boxed float per entry.

    Key presence is part of the value: a kernel keeps an entry for every
    key present in either input even when the result is [0.0] (a present
    [0.0] later rounds to a nonzero bound, an absent key stays absent),
    while {!set} with [0.0] leaves the vector unchanged. Iteration runs in
    ascending atom order.

    Kernels that can make a demoted run diverge take the analysis'
    per-atom [poisoned] flags and raise the flag of every atom concerned. *)

type t

val empty : t

val get : int -> t -> float
(** [get a v] is atom [a]'s entry, [0.0] when absent. *)

val set : int -> float -> t -> t
(** [set a e v] binds [a] to [e]; [e = 0.0] is a no-op that keeps any
    existing entry. *)

val of_list : (int * float) list -> t
(** Entries in any order (a repeated key keeps its last value); explicit
    [0.0] values are kept as present keys. *)

val to_list : t -> (int * float) list
(** In ascending atom order. *)

val iter : (int -> float -> unit) -> t -> unit
val fold : (int -> float -> 'a -> 'a) -> t -> 'a -> 'a

val map : (int -> float -> float) -> t -> t
(** Same keys, values rewritten in ascending atom order. *)

(** {1 Union kernels}

    Each result has exactly the keys of [ex] ∪ [ey]; a missing operand
    entry reads as [0.0]. *)

val add : t -> t -> t
(** [ex + ey]: the bound for a sum or difference. *)

val max : t -> t -> t
(** [Float.max ex ey]: the bound for min/max selections. *)

val mul : float -> float -> t -> t -> t
(** [mul x y ex ey]: [|y| ex + |x| ey + ex ey], the product rule. *)

val div : bool array -> float -> float -> t -> t -> t
(** [div poisoned x y ex ey]: [(|y| ex + |x| ey + ex ey) / (|y| (|y| - ey))];
    an atom whose divisor interval reaches zero is poisoned and gets the
    finite heuristic [num / max (y^2) 1e-300]. *)

val union : (float -> float -> float) -> t -> t -> t
(** Generic union for the rarely executed operators (general powers,
    [mod], [atan2], [sign]). *)

val compare_guard : bool array -> gap:float -> t -> t -> unit
(** Poison every atom whose joint interval [ex + ey] is positive and at
    least [gap]: the demoted run may take the other branch. *)

(** {1 Rounding} *)

val eps32 : float
(** One f32 ulp at 1.0, the interpreter's [epsilon(kind=4)]. *)

val sub32 : float
(** The smallest positive f32 subnormal. *)

val round_entry : bool array -> narrow:bool -> int -> float -> float -> float
(** [round_entry poisoned ~narrow a v e]: one rounding of a result of
    magnitude [|v|] at f32 ([narrow]) or f64 precision,
    [e (1 + 2 eps) + max (2 eps (|v| + e)) sub], where [sub] is the
    kind's smallest subnormal. A result that is not finite or reaches the
    kind's overflow threshold poisons [a] and stays finite when it can. *)

val round : bool array -> narrow:bool -> float -> t -> int array -> t
(** [round poisoned ~narrow v err taint] rounds every entry once at the
    result kind. When the result is 64-bit ([narrow = false]) each atom of
    the sorted, duplicate-free [taint] gets one more f32 rounding on top,
    with {!set}'s zero rule; [taint] is ignored for 32-bit results. *)

val round_at : bool array -> int -> float -> t -> t
(** [round_at poisoned a v err]: [set a (round_entry ~narrow:true a v (get a err)) err]. *)

type op = Add | Max | Mul | Div

val op_round :
  op -> bool array -> x:float -> y:float -> narrow:bool -> float -> t -> t -> int array -> t
(** [op_round op poisoned ~x ~y ~narrow v ex ey taint] is the kernel [op]
    ({!add}, {!max}, {!mul} or {!div} on operands [x], [y]) followed by
    [round poisoned ~narrow v _ taint], rounding in the kernel's own fresh
    value array when no key is added. *)

(** {1 Kind-taint sets}

    Sorted, duplicate-free atom arrays, shared when unchanged. *)

val no_atoms : int array
val atoms_union : int array -> int array -> int array
val atoms_add : int -> int array -> int array
