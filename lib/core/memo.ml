(* Process-wide cross-campaign evaluation memo: pre-fault measurements
   keyed by (evaluation space, signature), shared by every job the
   scheduler multiplexes. An evaluation space is one equivalence class of
   campaigns whose measurements are interchangeable: same model source
   and same result-affecting configuration (Config.digest, which includes
   the seed — speedup noise is seeded — and excludes fault specs, worker
   counts and execution strategy, which never change a pre-fault
   measurement). First write wins under the mutex, so the table's
   contents never depend on scheduling. *)

type entry = { e_meas : Search.Variant.measurement; e_donor : string }

type t = {
  lock : Mutex.t;
  tbl : (string * string, entry) Hashtbl.t;  (* (space, signature) *)
  mutable m_finds : int;
  mutable m_hits : int;
  mutable m_publishes : int;
}

type stats = { entries : int; finds : int; hits : int; publishes : int }

let create () =
  { lock = Mutex.create (); tbl = Hashtbl.create 1024; m_finds = 0; m_hits = 0;
    m_publishes = 0 }

let space_key ~(model : Models.Registry.t) ~config =
  model.Models.Registry.name
  ^ "/"
  ^ Digest.to_hex (Digest.string model.Models.Registry.source)
  ^ "/"
  ^ Config.digest config

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let find t ~space ~signature =
  locked t (fun () ->
      t.m_finds <- t.m_finds + 1;
      match Hashtbl.find_opt t.tbl (space, signature) with
      | Some e ->
        t.m_hits <- t.m_hits + 1;
        Some (e.e_meas, e.e_donor)
      | None -> None)

let publish t ~space ~donor ~signature meas =
  locked t (fun () ->
      t.m_publishes <- t.m_publishes + 1;
      let key = (space, signature) in
      if not (Hashtbl.mem t.tbl key) then
        Hashtbl.add t.tbl key { e_meas = meas; e_donor = donor })

let stats t =
  locked t (fun () ->
      { entries = Hashtbl.length t.tbl; finds = t.m_finds; hits = t.m_hits;
        publishes = t.m_publishes })
