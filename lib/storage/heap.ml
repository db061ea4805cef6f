module Obs = Genalg_obs.Obs

let c_inserts = Obs.counter "storage.heap.inserts"
let c_deletes = Obs.counter "storage.heap.deletes"

type rid = int

(* [slots.(0 .. n - 1)] are the heap's rows, indexed by rid; the array
   grows by doubling. A deleted slot holds [tombstone], recognised by
   physical equality, so a live row of any arity can never be
   mistaken for it. *)
type t = {
  mutable slots : Dtype.value array array;
  mutable n : int;
  mutable live : int;
}

let tombstone = [| Dtype.Null |]
let create () = { slots = [||]; n = 0; live = 0 }
(* the spare capacity is copied too, so an insert right after a copy
   does not grow the spine again *)
let copy t = { t with slots = Array.copy t.slots }
let live_slot t rid = rid >= 0 && rid < t.n && t.slots.(rid) != tombstone

let insert t row =
  Obs.add c_inserts 1;
  if t.n = Array.length t.slots then begin
    let bigger = Array.make (max 16 (2 * t.n)) tombstone in
    Array.blit t.slots 0 bigger 0 t.n;
    t.slots <- bigger
  end;
  let rid = t.n in
  t.slots.(rid) <- row;
  t.n <- rid + 1;
  t.live <- t.live + 1;
  rid

let get t rid = if live_slot t rid then Some t.slots.(rid) else None

let delete t rid =
  live_slot t rid
  && begin
       Obs.add c_deletes 1;
       t.slots.(rid) <- tombstone;
       t.live <- t.live - 1;
       true
     end

let update t rid row =
  live_slot t rid
  && begin
       t.slots.(rid) <- row;
       true
     end

let iter f t =
  for rid = 0 to t.n - 1 do
    let row = t.slots.(rid) in
    if row != tombstone then f rid row
  done

let fold f t init =
  let acc = ref init in
  iter (fun rid row -> acc := f rid row !acc) t;
  !acc

let record_count t = t.live
