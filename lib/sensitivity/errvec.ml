(* Sparse per-atom error vectors as two flat arrays (errvec.mli).

   Invariant: [keys] is strictly ascending and [vals] has the same
   length. Arrays are never mutated after construction, so kernels share
   an operand's [keys] array whenever the result has the same key set. *)

type t = { keys : int array; vals : float array }

let empty = { keys = [||]; vals = [||] }
let is_empty v = Array.length v.keys = 0

(* position of [a] in [keys], or [-(insertion point) - 1] *)
let find keys a =
  let lo = ref 0 and hi = ref (Array.length keys - 1) and at = ref (-1) in
  while !at < 0 && !lo <= !hi do
    let mid = (!lo + !hi) lsr 1 in
    let k = Array.unsafe_get keys mid in
    if k = a then at := mid else if k < a then lo := mid + 1 else hi := mid - 1
  done;
  if !at >= 0 then !at else - !lo - 1

let get a v =
  let i = find v.keys a in
  if i >= 0 then Array.unsafe_get v.vals i else 0.0

(* [a] bound to [e], replacing or inserting *)
let bind a e v =
  let i = find v.keys a in
  if i >= 0 then begin
    let vals = Array.copy v.vals in
    Array.unsafe_set vals i e;
    { v with vals }
  end
  else begin
    let at = -i - 1 in
    let n = Array.length v.keys in
    let keys = Array.make (n + 1) a in
    let vals = Array.make (n + 1) e in
    Array.blit v.keys 0 keys 0 at;
    Array.blit v.vals 0 vals 0 at;
    Array.blit v.keys at keys (at + 1) (n - at);
    Array.blit v.vals at vals (at + 1) (n - at);
    { keys; vals }
  end

let set a e v = if e = 0.0 then v else bind a e v

let of_list l = List.fold_left (fun v (a, e) -> bind a e v) empty l

let fold f v acc =
  let acc = ref acc in
  for i = 0 to Array.length v.keys - 1 do
    acc := f (Array.unsafe_get v.keys i) (Array.unsafe_get v.vals i) !acc
  done;
  !acc

let to_list v = List.rev (fold (fun a e acc -> (a, e) :: acc) v [])

let iter f v =
  for i = 0 to Array.length v.keys - 1 do
    f (Array.unsafe_get v.keys i) (Array.unsafe_get v.vals i)
  done

let map f v =
  if is_empty v then v
  else { v with vals = Array.init (Array.length v.keys) (fun i -> f v.keys.(i) v.vals.(i)) }

(* ------------------------------------------------------------------ *)
(* Key unions                                                          *)

let union_count ka kb =
  let na = Array.length ka and nb = Array.length kb in
  let i = ref 0 and j = ref 0 and n = ref 0 in
  while !i < na && !j < nb do
    let a = Array.unsafe_get ka !i and b = Array.unsafe_get kb !j in
    if a <= b then incr i;
    if b <= a then incr j;
    incr n
  done;
  !n + (na - !i) + (nb - !j)

(* the ascending union of [ka] and [kb], of known size [n]; an operand
   that already holds every key is returned as is *)
let union_keys ka kb n =
  if n = Array.length ka then ka
  else if n = Array.length kb then kb
  else begin
    let na = Array.length ka and nb = Array.length kb in
    let keys = Array.make n 0 in
    let i = ref 0 and j = ref 0 in
    for k = 0 to n - 1 do
      let a = if !i < na then Array.unsafe_get ka !i else max_int in
      let b = if !j < nb then Array.unsafe_get kb !j else max_int in
      if a <= b then incr i;
      if b <= a then incr j;
      Array.unsafe_set keys k (if a <= b then a else b)
    done;
    keys
  end

(* ------------------------------------------------------------------ *)
(* Union kernels                                                       *)

type op = Add | Max | Mul | Div

(* the operator is a constant switch, not a closure, and this is inlined
   into each loop below, so entries stay unboxed *)
let[@inline] apply op poisoned ax ay key ea eb =
  match op with
  | Add -> ea +. eb
  | Max -> Float.max ea eb
  | Mul -> (ay *. ea) +. (ax *. eb) +. (ea *. eb)
  | Div ->
    (* a divisor interval reaching zero is a trap/Inf divergence *)
    if eb > 0.0 && ay -. eb <= 0.0 then poisoned.(key) <- true;
    let denom = ay -. eb in
    let num = (ay *. ea) +. (ax *. eb) +. (ea *. eb) in
    if denom <= 0.0 then num /. Float.max (ay *. ay) 1e-300 (* finite heuristic *)
    else num /. (ay *. denom)

(* one walk over the key union; an entry missing on one side reads as
   0.0. Equal key sets and an empty side skip the key comparisons. *)
let kernel op poisoned x y ex ey =
  let ka = ex.keys and va = ex.vals and kb = ey.keys and vb = ey.vals in
  let na = Array.length ka and nb = Array.length kb in
  let n = if ka == kb then na else union_count ka kb in
  let keys = union_keys ka kb n in
  let vals = Array.create_float n in
  let ax = Float.abs x and ay = Float.abs y in
  if n = na && n = nb then
    for k = 0 to n - 1 do
      Array.unsafe_set vals k
        (apply op poisoned ax ay (Array.unsafe_get keys k) (Array.unsafe_get va k)
           (Array.unsafe_get vb k))
    done
  else if nb = 0 then
    for k = 0 to n - 1 do
      Array.unsafe_set vals k
        (apply op poisoned ax ay (Array.unsafe_get keys k) (Array.unsafe_get va k) 0.0)
    done
  else if na = 0 then
    for k = 0 to n - 1 do
      Array.unsafe_set vals k
        (apply op poisoned ax ay (Array.unsafe_get keys k) 0.0 (Array.unsafe_get vb k))
    done
  else begin
    let i = ref 0 and j = ref 0 in
    for k = 0 to n - 1 do
      let key = Array.unsafe_get keys k in
      let ea =
        if !i < na && Array.unsafe_get ka !i = key then begin
          let e = Array.unsafe_get va !i in
          incr i;
          e
        end
        else 0.0
      in
      let eb =
        if !j < nb && Array.unsafe_get kb !j = key then begin
          let e = Array.unsafe_get vb !j in
          incr j;
          e
        end
        else 0.0
      in
      Array.unsafe_set vals k (apply op poisoned ax ay key ea eb)
    done
  end;
  { keys; vals }

let no_poison : bool array = [||]
let add ex ey = kernel Add no_poison 0.0 0.0 ex ey
let max ex ey = kernel Max no_poison 0.0 0.0 ex ey
let mul x y ex ey = kernel Mul no_poison x y ex ey
let div poisoned x y ex ey = kernel Div poisoned x y ex ey

let union f ex ey =
  let ka = ex.keys and kb = ey.keys in
  let n = union_count ka kb in
  let keys = union_keys ka kb n in
  { keys; vals = Array.map (fun a -> f (get a ex) (get a ey)) keys }

let compare_guard poisoned ~gap ex ey =
  let ka = ex.keys and va = ex.vals and kb = ey.keys and vb = ey.vals in
  let na = Array.length ka and nb = Array.length kb in
  let i = ref 0 and j = ref 0 in
  while !i < na || !j < nb do
    let a = if !i < na then Array.unsafe_get ka !i else max_int in
    let b = if !j < nb then Array.unsafe_get kb !j else max_int in
    let key = if a <= b then a else b in
    let ea = if a = key then Array.unsafe_get va !i else 0.0 in
    let eb = if b = key then Array.unsafe_get vb !j else 0.0 in
    let e = ea +. eb in
    if e > 0.0 && e >= gap then poisoned.(key) <- true;
    if a = key then incr i;
    if b = key then incr j
  done

(* ------------------------------------------------------------------ *)
(* Rounding                                                            *)

(* one f32 ulp at 1.0 (the interpreter's epsilon(kind=4)), doubled in the
   rounding update so double roundings and directed modes are absorbed *)
let eps32 = 1.1920928955078125e-07
let eps64 = epsilon_float

(* smallest positive subnormal at each kind: the relative model
   [err <= 2 eps |v|] is vacuous once |v| sinks under the normal range —
   rounding tiny(kind=8) to f32 flushes it to zero, an absolute error of
   ~2.2e-308 that no multiple of eps32*|v| covers.  An absolute floor of
   one subnormal ulp restores the bound (for normal |v| the relative term
   already dominates it). *)
let sub32 = 0x1p-149
let sub64 = 0x1p-1074
let f32_cap = Runtime.Fp32.max_finite
let f64_cap = max_float

(* overflow past the kind's cap means the demoted run may trap where the
   baseline did not — poison and keep a finite heuristic *)
let[@inline] round_entry poisoned ~narrow a v e =
  let eps = if narrow then eps32 else eps64 in
  let sub = if narrow then sub32 else sub64 in
  let cap = if narrow then f32_cap else f64_cap in
  let m = Float.abs v +. e in
  (* [Float.max r sub] for the positive constant [sub], without its
     sign-bit calls *)
  let round =
    if m = 0.0 then 0.0
    else
      let r = 2.0 *. eps *. m in
      if sub > r then sub else r
  in
  let e' = (e *. (1.0 +. (2.0 *. eps))) +. round in
  if (not (Float.is_finite e')) || Float.abs v +. e' >= cap then begin
    poisoned.(a) <- true;
    if Float.is_finite e' then e' else Float.abs v +. cap
  end
  else e'

(* with [reuse], [err] was just built by a kernel and is not shared yet:
   when no key is added its value array is rounded in place *)
let round_gen ~reuse poisoned ~narrow v err taint =
  let ka = err.keys and va = err.vals in
  let na = Array.length ka in
  let nt = if narrow then 0 else Array.length taint in
  (* a tainted atom absent from [err] rounds 0.0 to a nonzero bound unless
     v = 0.0, where the bound stays 0.0 and [set] keeps the key absent *)
  let n = if nt = 0 || v = 0.0 then na else union_count ka taint in
  let keys = if n = na then ka else union_keys ka taint n in
  let vals = if reuse && n = na then va else Array.create_float n in
  (* in place, entry k is read before it is written and never again *)
  if nt = 0 then
    for k = 0 to n - 1 do
      Array.unsafe_set vals k
        (round_entry poisoned ~narrow (Array.unsafe_get keys k) v (Array.unsafe_get va k))
    done
  else begin
    let i = ref 0 and t = ref 0 in
    for k = 0 to n - 1 do
      let key = Array.unsafe_get keys k in
      let e =
        if !i < na && Array.unsafe_get ka !i = key then begin
          let e = Array.unsafe_get va !i in
          incr i;
          round_entry poisoned ~narrow key v e
        end
        else 0.0
      in
      while !t < nt && Array.unsafe_get taint !t < key do
        incr t
      done;
      Array.unsafe_set vals k
        (if !t < nt && Array.unsafe_get taint !t = key then begin
           let r = round_entry poisoned ~narrow:true key v e in
           if r = 0.0 then e else r
         end
         else e)
    done
  end;
  if vals == va then err else { keys; vals }

let round = round_gen ~reuse:false

let op_round op poisoned ~x ~y ~narrow v ex ey taint =
  round_gen ~reuse:true poisoned ~narrow v (kernel op poisoned x y ex ey) taint

let round_at poisoned a v err = set a (round_entry poisoned ~narrow:true a v (get a err)) err

(* ------------------------------------------------------------------ *)
(* Kind-taint sets                                                     *)

let no_atoms : int array = [||]

let atoms_union a b =
  if Array.length a = 0 || a == b then b
  else if Array.length b = 0 then a
  else begin
    let n = union_count a b in
    union_keys a b n
  end

let atoms_add x a = atoms_union a [| x |]
