open Persist

type request =
  | Ping
  | Submit of Job.spec
  | Jobs
  | Show of string
  | Cancel of string
  | Watch of string

let socket_file ~root = Filename.concat root "prose.sock"

(* ------------------------------------------------------------------ *)
(* Codecs                                                              *)

let request_json = function
  | Ping -> Json.Obj [ ("cmd", Json.Str "ping") ]
  | Submit spec -> Json.Obj [ ("cmd", Json.Str "submit"); ("spec", Job.spec_json spec) ]
  | Jobs -> Json.Obj [ ("cmd", Json.Str "jobs") ]
  | Show id -> Json.Obj [ ("cmd", Json.Str "show"); ("id", Json.Str id) ]
  | Cancel id -> Json.Obj [ ("cmd", Json.Str "cancel"); ("id", Json.Str id) ]
  | Watch id -> Json.Obj [ ("cmd", Json.Str "watch"); ("id", Json.Str id) ]

let request_of_json j =
  let id () =
    match Option.bind (Json.member "id" j) Json.to_str with
    | Some id -> Ok id
    | None -> Error "missing job id"
  in
  match Option.bind (Json.member "cmd" j) Json.to_str with
  | Some "ping" -> Ok Ping
  | Some "submit" -> (
    match Json.member "spec" j with
    | Some spec -> Result.map (fun s -> Submit s) (Job.spec_result spec)
    | None -> Error "missing spec")
  | Some "jobs" -> Ok Jobs
  | Some "show" -> Result.map (fun id -> Show id) (id ())
  | Some "cancel" -> Result.map (fun id -> Cancel id) (id ())
  | Some "watch" -> Result.map (fun id -> Watch id) (id ())
  | Some cmd -> Error (Printf.sprintf "unknown command %S" cmd)
  | None -> Error "missing command"

let request_of_string line =
  match Json.parse line with
  | j -> request_of_json j
  | exception Json.Parse_error m -> Error ("malformed request: " ^ m)

let ok fields = Json.Obj (("ok", Json.Bool true) :: fields)
let error msg = Json.Obj [ ("ok", Json.Bool false); ("error", Json.Str msg) ]

let is_ok j = Option.bind (Json.member "ok" j) Json.to_bool = Some true

let error_of j =
  match Option.bind (Json.member "error" j) Json.to_str with
  | Some m -> m
  | None -> "server error"

let event_json (e : Sched.event) =
  Json.Obj
    [
      ("event", Json.Str "status");
      ("job", Json.Str e.Sched.ev_job);
      ("state", Json.Str (Job.state_name e.Sched.ev_state));
      ( "error",
        match e.Sched.ev_state with Job.Failed m -> Json.Str m | _ -> Json.Null );
      ("records", Json.Num (float_of_int e.Sched.ev_records));
      ("hours", Json.Str (Json.hex_float e.Sched.ev_hours));
      ("best", Json.Str (Json.hex_float e.Sched.ev_best));
      ("shared", Json.Num (float_of_int e.Sched.ev_shared));
      ("detail", Json.Str e.Sched.ev_detail);
    ]

let event_of_json j =
  let str k = Option.bind (Json.member k j) Json.to_str in
  (* an absent float reads as 0; a garbled one rejects the event *)
  let hex k = match str k with Some h -> Json.of_hex_float h | None -> Some 0.0 in
  match (str "job", str "state", hex "hours", hex "best") with
  | Some job, Some state_s, Some ev_hours, Some ev_best ->
    let state =
      match state_s with
      | "queued" -> Some Job.Queued
      | "running" -> Some Job.Running
      | "paused" -> Some Job.Paused
      | "done" -> Some Job.Done
      | "failed" -> Some (Job.Failed (Option.value ~default:"" (str "error")))
      | _ -> None
    in
    Option.map
      (fun state ->
        {
          Sched.ev_job = job;
          ev_state = state;
          ev_records =
            Option.value ~default:0 (Option.bind (Json.member "records" j) Json.to_int);
          ev_hours;
          ev_best;
          (* absent on events from pre-PR-10 servers *)
          ev_shared =
            Option.value ~default:0 (Option.bind (Json.member "shared" j) Json.to_int);
          ev_detail = Option.value ~default:"" (str "detail");
        })
      state
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Client side                                                         *)

let send oc j =
  output_string oc (Json.to_string j);
  output_char oc '\n';
  flush oc

let recv ic =
  match input_line ic with
  | line -> (
    match Json.parse line with
    | j -> Some j
    | exception Json.Parse_error _ -> None)
  | exception (End_of_file | Sys_error _) -> None

let connect ~root =
  let path = socket_file ~root in
  if not (Sys.file_exists path) then None
  else
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> Some (Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)
    | exception Unix.Unix_error _ ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      None

let with_client ~root f =
  match connect ~root with
  | None -> None
  | Some ((ic, _) as conn) ->
    Some (Fun.protect ~finally:(fun () -> try close_in ic with Sys_error _ -> ()) (fun () -> f conn))

let roundtrip ~root req =
  with_client ~root (fun (ic, oc) ->
      send oc (request_json req);
      match recv ic with
      | Some j -> if is_ok j then Ok j else Error (error_of j)
      | None -> Error "no response from server")
