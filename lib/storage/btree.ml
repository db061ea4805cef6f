(* CLRS-style B-tree with minimum degree [min_degree]; each key carries a
   posting list of rids. *)

let min_degree = 16
let max_keys = (2 * min_degree) - 1

module Obs = Genalg_obs.Obs

let c_lookups = Obs.counter "storage.btree.lookups"
let c_inserts = Obs.counter "storage.btree.inserts"
let c_splits = Obs.counter "storage.btree.node_splits"
let c_ranges = Obs.counter "storage.btree.range_scans"

type node = {
  mutable keys : Dtype.value array;
  mutable postings : Heap.rid list array;
  mutable children : node array; (* [||] for leaves *)
  mutable n : int;
  mutable leaf : bool;
}

type t = { mutable root : node }

let dummy_node =
  { keys = [||]; postings = [||]; children = [||]; n = 0; leaf = true }

let new_node leaf =
  {
    keys = Array.make max_keys Dtype.Null;
    postings = Array.make max_keys [];
    children = (if leaf then [||] else Array.make (max_keys + 1) dummy_node);
    n = 0;
    leaf;
  }

let create () = { root = new_node true }

(* Slots past [n] may still point at keys and children that a split
   moved away; only the live prefix is copied. Posting lists are
   immutable and stay shared. *)
let rec copy_node node =
  {
    node with
    keys = Array.copy node.keys;
    postings = Array.copy node.postings;
    children =
      Array.mapi
        (fun i child -> if i <= node.n then copy_node child else dummy_node)
        node.children;
  }

let copy t = { root = copy_node t.root }

let cmp = Dtype.compare_value

(* index of the first key >= k in node, or node.n *)
let lower_bound node k =
  let lo = ref 0 and hi = ref node.n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cmp node.keys.(mid) k < 0 then lo := mid + 1 else hi := mid
  done;
  !lo

let rec find_node node k =
  let i = lower_bound node k in
  if i < node.n && cmp node.keys.(i) k = 0 then Some (node, i)
  else if node.leaf then None
  else find_node node.children.(i) k

let find t k =
  Obs.add c_lookups 1;
  match find_node t.root k with
  | Some (node, i) -> List.rev node.postings.(i)
  | None -> []

(* Split the full child [child] of [parent] at child index [ci]. *)
let split_child parent ci =
  Obs.add c_splits 1;
  let child = parent.children.(ci) in
  let right = new_node child.leaf in
  let mid = min_degree - 1 in
  right.n <- min_degree - 1;
  for j = 0 to right.n - 1 do
    right.keys.(j) <- child.keys.(mid + 1 + j);
    right.postings.(j) <- child.postings.(mid + 1 + j)
  done;
  if not child.leaf then
    for j = 0 to right.n do
      right.children.(j) <- child.children.(mid + 1 + j)
    done;
  let median_key = child.keys.(mid) and median_post = child.postings.(mid) in
  child.n <- mid;
  (* shift parent entries right to make room *)
  for j = parent.n downto ci + 1 do
    parent.keys.(j) <- parent.keys.(j - 1);
    parent.postings.(j) <- parent.postings.(j - 1)
  done;
  for j = parent.n + 1 downto ci + 2 do
    parent.children.(j) <- parent.children.(j - 1)
  done;
  parent.keys.(ci) <- median_key;
  parent.postings.(ci) <- median_post;
  parent.children.(ci + 1) <- right;
  parent.n <- parent.n + 1

let rec insert_nonfull node k rid =
  let i = lower_bound node k in
  if i < node.n && cmp node.keys.(i) k = 0 then
    node.postings.(i) <- rid :: node.postings.(i)
  else if node.leaf then begin
    for j = node.n downto i + 1 do
      node.keys.(j) <- node.keys.(j - 1);
      node.postings.(j) <- node.postings.(j - 1)
    done;
    node.keys.(i) <- k;
    node.postings.(i) <- [ rid ];
    node.n <- node.n + 1
  end
  else begin
    let i =
      if node.children.(i).n = max_keys then begin
        split_child node i;
        if cmp node.keys.(i) k < 0 then i + 1
        else if cmp node.keys.(i) k = 0 then begin
          node.postings.(i) <- rid :: node.postings.(i);
          -1
        end
        else i
      end
      else i
    in
    if i >= 0 then insert_nonfull node.children.(i) k rid
  end

let insert t k rid =
  Obs.add c_inserts 1;
  if t.root.n = max_keys then begin
    let new_root = new_node false in
    new_root.children.(0) <- t.root;
    t.root <- new_root;
    split_child new_root 0
  end;
  insert_nonfull t.root k rid

let remove t k rid =
  match find_node t.root k with
  | None -> false
  | Some (node, i) ->
      let before = node.postings.(i) in
      let after = List.filter (fun r -> r <> rid) before in
      node.postings.(i) <- after;
      List.length after < List.length before

let rec iter_node f node =
  if node.leaf then
    for i = 0 to node.n - 1 do
      f node.keys.(i) (List.rev node.postings.(i))
    done
  else begin
    for i = 0 to node.n - 1 do
      iter_node f node.children.(i);
      f node.keys.(i) (List.rev node.postings.(i))
    done;
    iter_node f node.children.(node.n)
  end

let iter f t = iter_node f t.root

let range ?lo ?hi ?(lo_inclusive = true) ?(hi_inclusive = true) t =
  Obs.add c_ranges 1;
  let in_range k =
    (match lo with
    | None -> true
    | Some l ->
        let c = cmp k l in
        if lo_inclusive then c >= 0 else c > 0)
    && (match hi with
       | None -> true
       | Some h ->
           let c = cmp k h in
           if hi_inclusive then c <= 0 else c < 0)
  in
  let acc = ref [] in
  iter (fun k rids -> if in_range k && rids <> [] then acc := (k, rids) :: !acc) t;
  List.rev !acc

let cardinal t =
  let n = ref 0 in
  iter (fun _ rids -> if rids <> [] then incr n) t;
  !n

let distinct_keys t =
  let n = ref 0 in
  iter (fun _ _ -> incr n) t;
  !n

let height t =
  let rec depth node = if node.leaf then 1 else 1 + depth node.children.(0) in
  depth t.root
