(* Tests for the benchmark's own helpers: order statistics, span self
   time, and the metric table against BENCHMARK.json. *)

open Perfbench

let close = Alcotest.float 1e-12

let test_median () =
  Alcotest.check close "odd" 3.0 (Stats.median [ 5.0; 1.0; 3.0 ]);
  Alcotest.check close "even" 2.5 (Stats.median [ 4.0; 1.0; 2.0; 3.0 ]);
  Alcotest.check close "one" 7.0 (Stats.median [ 7.0 ]);
  Alcotest.check_raises "empty" (Invalid_argument "Stats.median: no samples") (fun () ->
      ignore (Stats.median []))

(* reference values from Python's statistics.quantiles(xs, n=4) *)
let test_quartiles () =
  let q xs = Stats.quartiles xs in
  let pair = Alcotest.(pair close close) in
  Alcotest.check pair "1..10" (2.75, 8.25) (q (List.init 10 (fun i -> float_of_int (i + 1))));
  Alcotest.check pair "three" (1.0, 3.0) (q [ 3.0; 1.0; 2.0 ]);
  Alcotest.check pair "two extrapolates" (0.0, 6.0) (q [ 5.0; 1.0 ]);
  Alcotest.check pair "five" (2.0, 8.125) (q [ 2.5; 9.0; 1.5; 4.0; 7.25 ])

let test_tail_rule () =
  let level n = Stats.tail_level n in
  let lvl = Alcotest.(option (float 0.0)) in
  Alcotest.check lvl "19 samples: none" None (level 19);
  Alcotest.check lvl "20 samples: p50" (Some 50.0) (level 20);
  Alcotest.check lvl "40 samples: p75" (Some 75.0) (level 40);
  Alcotest.check lvl "100 samples: p90" (Some 90.0) (level 100);
  Alcotest.check lvl "247 samples: p95" (Some 95.0) (level 247);
  Alcotest.check lvl "999 samples: p95" (Some 95.0) (level 999);
  Alcotest.check lvl "1000 samples: p99" (Some 99.0) (level 1000);
  Alcotest.check lvl "10000 samples: p99.9" (Some 99.9) (level 10000);
  (* the rule leaves at least ten samples beyond the reported value *)
  List.iter
    (fun n ->
      let xs = List.init n float_of_int in
      match Stats.tail xs with
      | Some (_, v) when n >= 20 ->
        Alcotest.(check bool)
          (Printf.sprintf "%d: ten beyond" n)
          true
          (List.length (List.filter (fun x -> x > v) xs) >= 10)
      | Some (l, v) -> Alcotest.check close (Printf.sprintf "%d: max" n) (float_of_int (n - 1)) v;
        Alcotest.check close "level 100" 100.0 l
      | None -> Alcotest.fail "samples but no tail")
    [ 1; 5; 19; 20; 21; 57; 100; 247; 1000; 1234 ];
  Alcotest.(check (option (pair close close))) "no samples" None (Stats.tail []);
  Alcotest.check close "p50 nearest rank" 2.0 (Stats.percentile ~level:50.0 [ 4.0; 1.0; 3.0; 2.0 ])

let span ?parent id start stop =
  { Spans.id; name = "s"; campaign = "c"; parent; start; stop }

let test_self_time () =
  let parent = span 0 0.0 10.0 in
  Alcotest.check close "no children" 10.0 (Spans.self_time parent []);
  Alcotest.check close "disjoint" 6.0
    (Spans.self_time parent [ span ~parent:0 1 1.0 2.0; span ~parent:0 2 5.0 8.0 ]);
  Alcotest.check close "overlapping counted once" 5.0
    (Spans.self_time parent [ span ~parent:0 1 1.0 4.0; span ~parent:0 2 3.0 6.0 ]);
  Alcotest.check close "nested counted once" 7.0
    (Spans.self_time parent [ span ~parent:0 1 2.0 5.0; span ~parent:0 2 3.0 4.0 ]);
  Alcotest.check close "clipped to the parent" 8.0
    (Spans.self_time parent [ span ~parent:0 1 (-3.0) 1.0; span ~parent:0 2 9.0 12.0 ])

let test_recorder () =
  let t = Spans.create () in
  let x =
    Spans.record t ~campaign:"c" "outer" (fun id ->
        Spans.record t ~parent:id ~campaign:"c" "inner" (fun _ -> 41) + 1)
  in
  Alcotest.(check int) "result" 42 x;
  (match Spans.spans t with
  | [ outer; inner ] ->
    Alcotest.(check string) "outer first" "outer" outer.Spans.name;
    Alcotest.(check (option int)) "parent" (Some outer.Spans.id) inner.Spans.parent;
    Alcotest.(check bool) "self time within duration" true
      (Spans.self_time outer [ inner ] <= Spans.duration outer)
  | _ -> Alcotest.fail "expected two spans");
  (try Spans.record t ~campaign:"c" "raises" (fun _ -> failwith "boom") with Failure _ -> ());
  Alcotest.(check int) "recorded on raise" 1 (List.length (Spans.durations t "raises"));
  Alcotest.(check int) "one line per span" 3
    (List.length (List.filter (( <> ) "") (String.split_on_char '\n' (Spans.to_jsonl t))))

(* the names and units BENCHMARK.json accepts *)
let valid_name s =
  let alnum = function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false in
  String.length s >= 1
  && String.length s <= 64
  && alnum s.[0]
  && String.for_all (fun c -> alnum c || c = '_' || c = '.' || c = '-') s

let valid_unit s =
  String.length s >= 1
  && String.length s <= 16
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '/' | '%' | '.' | '-' -> true
         | _ -> false)
       s

let test_table () =
  List.iter
    (fun (m : Table.metric) ->
      Alcotest.(check bool) (m.name ^ " name") true (valid_name m.name);
      Alcotest.(check bool) (m.name ^ " unit") true (valid_unit m.unit_))
    Table.metrics;
  let names = List.map (fun (m : Table.metric) -> m.name) Table.metrics in
  Alcotest.(check int) "names unique" (List.length names)
    (List.length (List.sort_uniq compare names));
  Alcotest.(check bool) "setup_s is end to end" true
    ((Table.find "setup_s").kind = Table.End_to_end);
  List.iter
    (fun bad -> Alcotest.(check bool) ("rejects " ^ bad) false (valid_name bad))
    [ ""; "_x"; "a b"; "a/b"; String.make 65 'a' ];
  Alcotest.(check bool) "rejects unit" false (valid_unit "m s")

(* BENCHMARK.json lists the same metrics, in the same order, as the
   table the benchmark prints from *)
let test_benchmark_json () =
  let path = "../../BENCHMARK.json" in
  let j = Persist.Json.parse (In_channel.with_open_bin path In_channel.input_all) in
  let listed key =
    match Option.bind (Persist.Json.member key j) Persist.Json.to_list with
    | None -> Alcotest.fail ("no " ^ key)
    | Some l ->
      List.map
        (fun m ->
          let s k = Option.bind (Persist.Json.member k m) Persist.Json.to_str in
          (s "name", s "unit", s "better"))
        l
  in
  let of_table kind =
    List.map
      (fun (m : Table.metric) ->
        ( Some m.name,
          Some m.unit_,
          Some (match m.better with Table.Lower -> "lower" | Table.Higher -> "higher") ))
      (List.filter (fun (m : Table.metric) -> m.kind = kind) Table.metrics)
  in
  let triple = Alcotest.(list (triple (option string) (option string) (option string))) in
  Alcotest.check triple "end_to_end" (of_table Table.End_to_end) (listed "end_to_end");
  Alcotest.check triple "per_layer" (of_table Table.Per_layer) (listed "per_layer")

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "quartiles match Python" `Quick test_quartiles;
          Alcotest.test_case "tail percentile rule" `Quick test_tail_rule;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "recorder" `Quick test_recorder;
        ] );
      ( "table",
        [
          Alcotest.test_case "names and units" `Quick test_table;
          Alcotest.test_case "matches BENCHMARK.json" `Quick test_benchmark_json;
        ] );
    ]
