(* Per-model profiling harness: ms and minor words per evaluation on
   the compiled and lowered backends (usage: profile.exe MODEL [N]),
   followed by per-variant pipeline phase timings with warm caches —
   the configuration a search campaign actually runs — and one run of
   the sensitivity layer's mirror analysis. *)
let () =
  let name = try Sys.argv.(1) with _ -> "mpas" in
  let n = try int_of_string Sys.argv.(2) with _ -> 100 in
  let model = Models.Registry.find name in
  let p = Core.Tuner.prepare model in
  let asg = Transform.Assignment.uniform p.Core.Tuner.atoms Fortran.Ast.K8 in
  let st = p.Core.Tuner.st in
  let machine = Core.Config.default.Core.Config.machine in
  let ir = Runtime.Lower.lower ~machine st in
  let t = Runtime.Compile.compile ir in
  (* warmup *)
  ignore (Runtime.Compile.run t);
  let t0 = Unix.gettimeofday () in
  for _ = 1 to n do ignore (Runtime.Compile.run t) done;
  let dt = Unix.gettimeofday () -. t0 in
  let w0 = Gc.minor_words () in
  ignore (Runtime.Compile.run t);
  let alloc = Gc.minor_words () -. w0 in
  Printf.printf "compiled: %.3f ms/eval, %.0f minor words/eval\n" (1000.0 *. dt /. float_of_int n) alloc;
  let t0 = Unix.gettimeofday () in
  for _ = 1 to n do ignore (Runtime.Lower.run ir) done;
  let dt = Unix.gettimeofday () -. t0 in
  let w0 = Gc.minor_words () in
  ignore (Runtime.Lower.run ir);
  let alloc = Gc.minor_words () -. w0 in
  Printf.printf "lowered:  %.3f ms/eval, %.0f minor words/eval\n" (1000.0 *. dt /. float_of_int n) alloc;
  (* per-variant pipeline phase costs (all-hit caches, like a search) *)
  let cache = Runtime.Lower.Cache.create () in
  let ccache = Runtime.Compile.Cache.create () in
  let phase label f =
    let x = f () in
    let t0 = Unix.gettimeofday () in
    let m = max 1 (n / 4) in
    for _ = 1 to m do ignore (f ()) done;
    let dt = Unix.gettimeofday () -. t0 in
    Printf.printf "%-10s %.3f ms\n" label (1000.0 *. dt /. float_of_int m);
    x
  in
  let prog' = phase "rewrite" (fun () -> Transform.Rewrite.apply st asg) in
  let w = phase "wrappers" (fun () -> Transform.Wrappers.insert prog') in
  let st' = phase "symtab" (fun () -> Fortran.Symtab.build w.Transform.Wrappers.program) in
  ignore (phase "typecheck" (fun () -> Fortran.Typecheck.check_program st'));
  let ir' =
    phase "lower" (fun () ->
        Runtime.Lower.lower ~cache ~machine
          ~wrapper_owner:(Transform.Wrappers.owner_fn w) st')
  in
  ignore (phase "compile" (fun () -> Runtime.Compile.compile ~cache:ccache ir'));
  (* the sensitivity layer: one Absint run over the original program, the
     bulk of Score.create; minor words per step is its deterministic cost *)
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let r = Sensitivity.Absint.analyze ~atoms:p.Core.Tuner.atoms st in
  let dt = Unix.gettimeofday () -. t0 in
  let words = Gc.minor_words () -. w0 in
  match r with
  | None -> Printf.printf "sensitivity: analysis declined (%.1f ms)\n" (1000.0 *. dt)
  | Some r ->
    let steps = r.Sensitivity.Absint.r_steps in
    Printf.printf "sensitivity: analyze %.1f ms, %d steps, %.1f minor words/step (%.0f total)\n"
      (1000.0 *. dt) steps
      (words /. float_of_int (max 1 steps))
      words
