type span = {
  id : int;
  name : string;
  campaign : string;
  parent : int option;
  start : float;
  stop : float;
}

type t = { mutable rev : span list; mutable next : int }

let create () = { rev = []; next = 0 }

let record t ?parent ~campaign name f =
  let id = t.next in
  t.next <- id + 1;
  let start = Unix.gettimeofday () in
  let finish () =
    t.rev <- { id; name; campaign; parent; start; stop = Unix.gettimeofday () } :: t.rev
  in
  match f id with
  | x ->
    finish ();
    x
  | exception e ->
    finish ();
    raise e

let spans t = List.sort (fun a b -> compare (a.start, a.id) (b.start, b.id)) t.rev
let duration s = s.stop -. s.start

let durations t ?campaign name =
  List.filter_map
    (fun s ->
      if s.name = name && (campaign = None || campaign = Some s.campaign) then
        Some (duration s)
      else None)
    (spans t)

let self_time parent kids =
  let clipped =
    List.filter_map
      (fun k ->
        let a = Float.max k.start parent.start and b = Float.min k.stop parent.stop in
        if b > a then Some (a, b) else None)
      kids
    |> List.sort compare
  in
  let covered, last =
    List.fold_left
      (fun (acc, cur) (a, b) ->
        match cur with
        | Some (ca, cb) when a <= cb -> (acc, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (acc +. (cb -. ca), Some (a, b))
        | None -> (acc, Some (a, b)))
      (0.0, None) clipped
  in
  let covered = match last with Some (a, b) -> covered +. (b -. a) | None -> covered in
  duration parent -. covered

let to_jsonl t =
  let b = Buffer.create 4096 in
  List.iter
    (fun s ->
      Printf.bprintf b
        "{\"id\":%d,\"name\":\"%s\",\"campaign\":\"%s\",\"parent\":%s,\"start\":%.6f,\"end\":%.6f}\n"
        s.id (String.escaped s.name) (String.escaped s.campaign)
        (match s.parent with Some p -> string_of_int p | None -> "null")
        s.start s.stop)
    (spans t);
  Buffer.contents b
