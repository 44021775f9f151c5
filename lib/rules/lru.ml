(* Recency is a stamp from a per-table clock, bumped on every use; a
   full table evicts the entry with the smallest stamp.  Finding it
   scans the table, which happens only when a miss inserts into a
   full table, and keeps a hit down to one hash probe and one store. *)

type 'a entry = { value : 'a; mutable stamp : int }

type 'a t = {
  tbl : (string, 'a entry) Hashtbl.t;
  capacity : int;
  mutable clock : int;
}

let create capacity = { tbl = Hashtbl.create 64; capacity; clock = 0 }

let tick t =
  t.clock <- t.clock + 1;
  t.clock

let find t key =
  match Hashtbl.find_opt t.tbl key with
  | Some e ->
    e.stamp <- tick t;
    Some e.value
  | None -> None

let peek t key = Option.map (fun e -> e.value) (Hashtbl.find_opt t.tbl key)

let evict_oldest t =
  let oldest = ref None and stamp = ref max_int in
  Hashtbl.iter
    (fun key e ->
      if e.stamp < !stamp then begin
        stamp := e.stamp;
        oldest := Some key
      end)
    t.tbl;
  Option.iter (Hashtbl.remove t.tbl) !oldest

let add t key value =
  if (not (Hashtbl.mem t.tbl key)) && Hashtbl.length t.tbl >= t.capacity then
    evict_oldest t;
  Hashtbl.replace t.tbl key { value; stamp = tick t }

let length t = Hashtbl.length t.tbl
