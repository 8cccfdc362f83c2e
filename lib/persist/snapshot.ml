type t = {
  s_records : int;
  s_hours : float;
  s_best_speedup : float;
  s_lost_seconds : float;
  s_preemptions : int;
  s_finished : bool;
}

let file ~dir = Filename.concat dir "snapshot.json"

let to_json s =
  Json.Obj
    [
      ("records", Json.Num (float_of_int s.s_records));
      ("hours", Json.Str (Json.hex_float s.s_hours));
      ("best_speedup", Json.Str (Json.hex_float s.s_best_speedup));
      ("lost_seconds", Json.Str (Json.hex_float s.s_lost_seconds));
      ("preemptions", Json.Num (float_of_int s.s_preemptions));
      ("finished", Json.Bool s.s_finished);
    ]

let of_json j =
  let ( let* ) = Option.bind in
  let get k f = Option.bind (Json.member k j) f in
  let hex k = get k (fun v -> Option.bind (Json.to_str v) Json.of_hex_float) in
  let* s_records = get "records" Json.to_int in
  let* s_hours = hex "hours" in
  let* s_best_speedup = hex "best_speedup" in
  let* s_lost_seconds = hex "lost_seconds" in
  let* s_preemptions = get "preemptions" Json.to_int in
  let* s_finished = get "finished" Json.to_bool in
  Some { s_records; s_hours; s_best_speedup; s_lost_seconds; s_preemptions; s_finished }

let rec mkdir_p dir =
  if dir <> "/" && dir <> "." && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let write ~dir s =
  mkdir_p dir;
  let path = file ~dir in
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string (to_json s));
      output_char oc '\n';
      flush oc;
      Unix.fsync (Unix.descr_of_out_channel oc));
  Sys.rename tmp path

let read ~dir =
  match open_in_bin (file ~dir) with
  | exception Sys_error _ -> None
  | ic ->
    let s =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    (match of_json (Json.parse s) with
    | v -> v
    | exception Json.Parse_error _ -> None)
