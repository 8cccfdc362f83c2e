type kind = End_to_end | Per_layer
type better = Lower | Higher

type metric = { name : string; unit_ : string; better : better; kind : kind }

let e name unit_ better = { name; unit_; better; kind = End_to_end }
let l name unit_ better = { name; unit_; better; kind = Per_layer }

let metrics =
  [
    e "setup_s" "s" Lower;
    e "wall_s" "s" Lower;
    e "evals_per_s" "1/s" Higher;
    e "evals_to_minimal" "count" Lower;
    e "fresh_evals" "count" Lower;
    e "sim_hours" "h" Lower;
    e "job_s_p50" "s" Lower;
    e "peak_heap_mb" "MB" Lower;
    l "runtime.execute_ms_p50" "ms" Lower;
    l "runtime.execute_ms_tail" "ms" Lower;
    l "runtime.execute_minor_words" "words" Lower;
    l "transform.rewrite_ms_p50" "ms" Lower;
    l "transform.wrappers_ms_p50" "ms" Lower;
    l "fortran.symtab_ms_p50" "ms" Lower;
    l "fortran.typecheck_ms_p50" "ms" Lower;
    l "runtime.lower_ms_p50" "ms" Lower;
    l "runtime.compile_ms_p50" "ms" Lower;
    l "runtime.compile_cache_hit_ratio" "ratio" Higher;
    l "core.evaluate_ms_p50" "ms" Lower;
    l "core.evaluate_ms_tail" "ms" Lower;
    l "core.score_self_ms_p50" "ms" Lower;
    l "core.phase_coverage" "ratio" Higher;
    l "core.prepare_ms" "ms" Lower;
    l "sensitivity.score_create_ms" "ms" Lower;
    l "search.self_s" "s" Lower;
    l "search.trace_hit_ratio" "ratio" Higher;
    l "persist.append_us_p50" "us" Lower;
    l "persist.append_us_tail" "us" Lower;
    l "persist.fsync_share" "ratio" Lower;
    l "persist.load_ms" "ms" Lower;
    l "service.slice_ms_p50" "ms" Lower;
    l "service.slice_ms_tail" "ms" Lower;
    l "service.slices" "count" Lower;
    l "service.resume_ms" "ms" Lower;
    l "service.memo_hit_ratio" "ratio" Higher;
    l "trace.overhead_s" "s" Lower;
  ]

let end_to_end = List.filter (fun m -> m.kind = End_to_end) metrics
let per_layer = List.filter (fun m -> m.kind = Per_layer) metrics
let find name = List.find (fun m -> m.name = name) metrics
