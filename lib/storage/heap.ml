module Obs = Genalg_obs.Obs

let c_page_allocs = Obs.counter "storage.heap.page_allocs"
let c_inserts = Obs.counter "storage.heap.inserts"
let c_deletes = Obs.counter "storage.heap.deletes"

type rid = { page : int; slot : int }

(* [pages.(0 .. npages - 1)] are the heap's pages; the array grows by
   doubling. *)
type t = { mutable pages : Page.t array; mutable npages : int; mutable live : int }

let create () = { pages = [||]; npages = 0; live = 0 }

let add_page t =
  Obs.add c_page_allocs 1;
  if t.npages = Array.length t.pages then begin
    let bigger = Array.make (max 4 (2 * t.npages)) (Page.create ()) in
    Array.blit t.pages 0 bigger 0 t.npages;
    t.pages <- bigger
  end;
  let i = t.npages in
  t.pages.(i) <- Page.create ();
  t.npages <- i + 1;
  i

let valid t rid = rid.page >= 0 && rid.page < t.npages

let insert t record =
  Obs.add c_inserts 1;
  (* try the last page first; heap loads are append-dominated *)
  let try_page i =
    Option.map (fun slot -> { page = i; slot }) (Page.insert t.pages.(i) record)
  in
  let rid =
    if t.npages = 0 then None
    else
      match try_page (t.npages - 1) with
      | Some _ as r -> r
      | None -> if t.npages >= 2 then try_page (t.npages - 2) else None
  in
  let rid =
    match rid with
    | Some r -> r
    | None -> (
        match try_page (add_page t) with
        | Some r -> r
        | None -> invalid_arg "Heap.insert: record exceeds page capacity")
  in
  t.live <- t.live + 1;
  rid

let get t rid = if valid t rid then Page.get t.pages.(rid.page) rid.slot else None

let delete t rid =
  if valid t rid && Page.delete t.pages.(rid.page) rid.slot then begin
    Obs.add c_deletes 1;
    t.live <- t.live - 1;
    true
  end
  else false

let update t rid record =
  if valid t rid && Page.update t.pages.(rid.page) rid.slot record then rid
  else begin
    ignore (delete t rid);
    insert t record
  end

let iter f t =
  for i = 0 to t.npages - 1 do
    Page.iter (fun slot record -> f { page = i; slot } record) t.pages.(i)
  done

let fold f t init =
  let acc = ref init in
  iter (fun rid record -> acc := f rid record !acc) t;
  !acc

let record_count t = t.live
let page_count t = t.npages
