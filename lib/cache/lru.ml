module Obs = Genalg_obs.Obs

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  invalidations : int;
  rejections : int;
}

type tally = {
  mutable t_hits : int;
  mutable t_misses : int;
  mutable t_evictions : int;
  mutable t_invalidations : int;
  mutable t_rejections : int;
}

let fresh_tally () =
  { t_hits = 0; t_misses = 0; t_evictions = 0; t_invalidations = 0; t_rejections = 0 }

let stats_of_tally y =
  {
    hits = y.t_hits;
    misses = y.t_misses;
    evictions = y.t_evictions;
    invalidations = y.t_invalidations;
    rejections = y.t_rejections;
  }

(* Per-name aggregates shared by every instance with that name, so
   [genalg stats] reports one row per cache family. *)
let registry : (string, tally) Hashtbl.t = Hashtbl.create 8

let registry_tally name =
  match Hashtbl.find_opt registry name with
  | Some y -> y
  | None ->
      let y = fresh_tally () in
      Hashtbl.add registry name y;
      y

let registry_stats () =
  Hashtbl.fold (fun name y acc -> (name, stats_of_tally y) :: acc) registry []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let reset_registry_stats () =
  Hashtbl.iter
    (fun _ y ->
      y.t_hits <- 0;
      y.t_misses <- 0;
      y.t_evictions <- 0;
      y.t_invalidations <- 0;
      y.t_rejections <- 0)
    registry

type ('k, 'v) node = {
  nkey : 'k;
  mutable nval : 'v;
  mutable weight : int;
  mutable prev : ('k, 'v) node option; (* toward MRU *)
  mutable next : ('k, 'v) node option; (* toward LRU *)
}

type ('k, 'v) t = {
  name : string;
  max_entries : int;
  max_bytes : int;
  weight_of : 'k -> 'v -> int;
  tbl : ('k, ('k, 'v) node) Hashtbl.t;
  mutable mru : ('k, 'v) node option;
  mutable lru : ('k, 'v) node option;
  mutable bytes : int;
  local : tally;
  global : tally;
  c_hits : Obs.counter;
  c_misses : Obs.counter;
  c_evictions : Obs.counter;
  c_invalidations : Obs.counter;
}

let create ~name ?(max_entries = 1024) ?(max_bytes = max_int)
    ?(weight = fun _ _ -> 0) () =
  if max_entries < 1 then invalid_arg "Lru.create: max_entries < 1";
  if max_bytes < 0 then invalid_arg "Lru.create: max_bytes < 0";
  {
    name;
    max_entries;
    max_bytes;
    weight_of = weight;
    tbl = Hashtbl.create 64;
    mru = None;
    lru = None;
    bytes = 0;
    local = fresh_tally ();
    global = registry_tally name;
    c_hits = Obs.counter (Printf.sprintf "cache.%s.hits" name);
    c_misses = Obs.counter (Printf.sprintf "cache.%s.misses" name);
    c_evictions = Obs.counter (Printf.sprintf "cache.%s.evictions" name);
    c_invalidations = Obs.counter (Printf.sprintf "cache.%s.invalidations" name);
  }

let hit t =
  t.local.t_hits <- t.local.t_hits + 1;
  t.global.t_hits <- t.global.t_hits + 1;
  Obs.add t.c_hits 1

let miss t =
  t.local.t_misses <- t.local.t_misses + 1;
  t.global.t_misses <- t.global.t_misses + 1;
  Obs.add t.c_misses 1

let note_eviction t =
  t.local.t_evictions <- t.local.t_evictions + 1;
  t.global.t_evictions <- t.global.t_evictions + 1;
  Obs.add t.c_evictions 1

let note_invalidation t n =
  if n > 0 then begin
    t.local.t_invalidations <- t.local.t_invalidations + n;
    t.global.t_invalidations <- t.global.t_invalidations + n;
    Obs.add t.c_invalidations n
  end

let note_rejection t =
  t.local.t_rejections <- t.local.t_rejections + 1;
  t.global.t_rejections <- t.global.t_rejections + 1

(* Doubly-linked recency list: [mru] is the head, [lru] the tail. *)

let detach t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.mru <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.lru <- n.prev);
  n.prev <- None;
  n.next <- None

let push_mru t n =
  n.prev <- None;
  n.next <- t.mru;
  (match t.mru with Some h -> h.prev <- Some n | None -> t.lru <- Some n);
  t.mru <- Some n

let touch t n =
  match t.mru with
  | Some h when h == n -> ()
  | _ ->
      detach t n;
      push_mru t n

let drop t n =
  detach t n;
  Hashtbl.remove t.tbl n.nkey;
  t.bytes <- t.bytes - n.weight

let over_budget t =
  Hashtbl.length t.tbl > t.max_entries || t.bytes > t.max_bytes

(* Evict from the LRU end until the bounds hold. *)
let rec evict_to_fit t =
  if over_budget t then
    match t.lru with
    | None -> ()
    | Some n ->
        drop t n;
        note_eviction t;
        evict_to_fit t

let find_validated t k ~validate =
  match Hashtbl.find_opt t.tbl k with
  | Some n when validate n.nval ->
      touch t n;
      hit t;
      Some n.nval
  | Some n ->
      (* present but stale: a coherence event, not a plain miss *)
      drop t n;
      note_invalidation t 1;
      miss t;
      None
  | None ->
      miss t;
      None

let find t k =
  match Hashtbl.find_opt t.tbl k with
  | Some n ->
      touch t n;
      hit t;
      Some n.nval
  | None ->
      miss t;
      None

let peek t k =
  match Hashtbl.find_opt t.tbl k with Some n -> Some n.nval | None -> None

let put t k v =
  let w = t.weight_of k v in
  if w > t.max_bytes then begin
    (* Inadmissible: keeping it would purge everything else for nothing.
       Drop any stale entry under the same key so we never serve it. *)
    (match Hashtbl.find_opt t.tbl k with Some n -> drop t n | None -> ());
    note_rejection t
  end
  else begin
    (match Hashtbl.find_opt t.tbl k with
    | Some n ->
        t.bytes <- t.bytes - n.weight + w;
        n.nval <- v;
        n.weight <- w;
        touch t n
    | None ->
        let n = { nkey = k; nval = v; weight = w; prev = None; next = None } in
        Hashtbl.add t.tbl k n;
        push_mru t n;
        t.bytes <- t.bytes + w);
    evict_to_fit t
  end

let remove t k =
  match Hashtbl.find_opt t.tbl k with
  | Some n ->
      drop t n;
      true
  | None -> false

let invalidate t k =
  let removed = remove t k in
  if removed then note_invalidation t 1;
  removed

let invalidate_where t pred =
  let victims =
    Hashtbl.fold (fun _ n acc -> if pred n.nkey n.nval then n :: acc else acc) t.tbl []
  in
  List.iter (drop t) victims;
  let n = List.length victims in
  note_invalidation t n;
  n

let mem t k = Hashtbl.mem t.tbl k
let length t = Hashtbl.length t.tbl
let weight_total t = t.bytes
let max_entries t = t.max_entries
let max_bytes t = t.max_bytes

let iter f t =
  let rec go = function
    | None -> ()
    | Some n ->
        let next = n.next in
        f n.nkey n.nval;
        go next
  in
  go t.mru

let keys t =
  let acc = ref [] in
  iter (fun k _ -> acc := k :: !acc) t;
  List.rev !acc

let stats t = stats_of_tally t.local
let name t = t.name
