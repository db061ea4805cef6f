module Obs = Genalg_obs.Obs

let c_rows_scanned = Obs.counter "storage.table.rows_scanned"
let c_index_lookups = Obs.counter "storage.table.index_lookups"
let c_genomic_searches = Obs.counter "storage.table.genomic_searches"

type t = {
  name : string;
  schema : Schema.t;
  mutable heap : Heap.t;
  mutable indexes : (string, Btree.t) Hashtbl.t; (* lower-case column name -> index *)
  mutable genomic : (string, int * Text_index.t) Hashtbl.t;
      (* lower-case column name -> (column position, k-mer postings) *)
  mutable shared : bool;
      (* heap and indexes may belong to another handle too; [own]
         copies them before this handle's first write *)
  mutable pending_genomic : (string * int) list;
      (* (column, k) specs restored from an image, awaiting a UDT
         registry to backfill; see [rebuild_genomic_indexes] *)
  mutable stats : (string, column_stats) Hashtbl.t option;
      (* per-column statistics, present after [analyze] *)
  mutable data_version : int;
      (* bumped on every row write; result-cache validation token *)
  mutable schema_version : int;
      (* bumped on planning-relevant changes (indexes, analyze) *)
}

and column_stats = {
  rows : int;
  distinct : int;
  nulls : int;
  min_value : Dtype.value option;
  max_value : Dtype.value option;
  histogram : histogram option;
}

and histogram = {
  bounds : Dtype.value array;
  counts : int array;
}

let create ~name schema =
  { name; schema; heap = Heap.create (); indexes = Hashtbl.create 4;
    genomic = Hashtbl.create 2; shared = false; pending_genomic = []; stats = None;
    data_version = 0; schema_version = 0 }

let name t = t.name
let schema t = t.schema
let data_version t = t.data_version
let schema_version t = t.schema_version
let touch_data t = t.data_version <- t.data_version + 1
let touch_schema t = t.schema_version <- t.schema_version + 1

(* Rows are immutable once stored, so two handles may share a heap and
   its indexes; the first write through a shared handle gives it
   private copies. Statistics and pending genomic specs are replaced
   wholesale, never mutated, so they need no copy. *)
let share t =
  t.shared <- true;
  { t with shared = true }

let own t =
  if t.shared then begin
    let copy_all copy tbl =
      let tbl = Hashtbl.copy tbl in
      Hashtbl.filter_map_inplace (fun _ v -> Some (copy v)) tbl;
      tbl
    in
    t.heap <- Heap.copy t.heap;
    t.indexes <- copy_all Btree.copy t.indexes;
    t.genomic <- copy_all (fun (i, gidx) -> (i, Text_index.copy gidx)) t.genomic;
    t.shared <- false
  end

let index_updates t row f =
  Hashtbl.iter
    (fun col idx ->
      match Schema.column_index t.schema col with
      | Some i -> f idx row.(i)
      | None -> ())
    t.indexes

let genomic_updates t rid row f =
  Hashtbl.iter
    (fun _ (i, gidx) ->
      match row.(i) with
      | Dtype.Opaque (_, payload) -> f gidx rid payload
      | Dtype.Null | Dtype.Bool _ | Dtype.Int _ | Dtype.Float _ | Dtype.Str _ -> ())
    t.genomic

let insert t row =
  match Schema.validate_row t.schema row with
  | Error _ as e -> e
  | Ok () ->
      own t;
      let row = Array.copy row in
      let rid = Heap.insert t.heap row in
      index_updates t row (fun idx key -> Btree.insert idx key rid);
      genomic_updates t rid row Text_index.add;
      touch_data t;
      Ok rid

let insert_exn t row =
  match insert t row with
  | Ok rid -> rid
  | Error msg -> invalid_arg (Printf.sprintf "Table.insert_exn (%s): %s" t.name msg)

let get t rid = Heap.get t.heap rid

let delete t rid =
  match get t rid with
  | None -> false
  | Some row ->
      own t;
      index_updates t row (fun idx key -> ignore (Btree.remove idx key rid));
      genomic_updates t rid row Text_index.remove;
      let ok = Heap.delete t.heap rid in
      if ok then touch_data t;
      ok

let update t rid row =
  match Schema.validate_row t.schema row with
  | Error _ as e -> e
  | Ok () -> (
      match get t rid with
      | None -> Error "no such record"
      | Some old_row ->
          own t;
          let row = Array.copy row in
          index_updates t old_row (fun idx key -> ignore (Btree.remove idx key rid));
          genomic_updates t rid old_row Text_index.remove;
          ignore (Heap.update t.heap rid row : bool);
          index_updates t row (fun idx key -> Btree.insert idx key rid);
          genomic_updates t rid row Text_index.add;
          touch_data t;
          Ok rid)

let scan t f =
  Heap.iter
    (fun rid row ->
      Obs.add c_rows_scanned 1;
      f rid row)
    t.heap

let fold t ~init ~f = Heap.fold (fun rid row acc -> f acc rid row) t.heap init

let row_count t = Heap.record_count t.heap

let create_index t ~column =
  let col = String.lowercase_ascii column in
  match Schema.column_index t.schema col with
  | None -> Error (Printf.sprintf "no column %s in table %s" column t.name)
  | Some i ->
      if Hashtbl.mem t.indexes col then
        Error (Printf.sprintf "index on %s.%s already exists" t.name column)
      else begin
        own t;
        let idx = Btree.create () in
        scan t (fun rid row -> Btree.insert idx row.(i) rid);
        Hashtbl.add t.indexes col idx;
        touch_schema t;
        Ok ()
      end

let has_index t ~column = Hashtbl.mem t.indexes (String.lowercase_ascii column)

let indexed_columns t =
  Hashtbl.fold (fun col _ acc -> col :: acc) t.indexes []
  |> List.sort String.compare

let index_lookup t ~column key =
  Option.map
    (fun idx ->
      Obs.add c_index_lookups 1;
      Btree.find idx key)
    (Hashtbl.find_opt t.indexes (String.lowercase_ascii column))

let index_range t ~column ?lo ?hi ?lo_inclusive ?hi_inclusive () =
  Option.map
    (fun idx ->
      Obs.add c_index_lookups 1;
      List.concat_map snd (Btree.range ?lo ?hi ?lo_inclusive ?hi_inclusive idx))
    (Hashtbl.find_opt t.indexes (String.lowercase_ascii column))

(* ---- statistics (paper 6.5) --------------------------------------- *)

let histogram_buckets = 32

(* equi-depth histogram over the ascending non-null values; bucket
   boundaries extend past duplicates so every bound is the last of its
   run, making per-bucket NDV reasoning sound. *)
let build_histogram sorted n =
  if n = 0 then None
  else begin
    let nb = min histogram_buckets n in
    let depth = float_of_int n /. float_of_int nb in
    let bounds = ref [] and counts = ref [] and closed = ref 0 in
    let start = ref 0 in
    while !start < n do
      let target =
        int_of_float (Float.round (float_of_int (!closed + 1) *. depth))
      in
      let i = ref (max (!start + 1) (min n target)) in
      while !i < n && Dtype.compare_value sorted.(!i) sorted.(!i - 1) = 0 do
        incr i
      done;
      bounds := sorted.(!i - 1) :: !bounds;
      counts := (!i - !start) :: !counts;
      incr closed;
      start := !i
    done;
    Some
      { bounds = Array.of_list (List.rev !bounds);
        counts = Array.of_list (List.rev !counts) }
  end

let analyze t =
  let ncols = Schema.arity t.schema in
  let seen = Array.init ncols (fun _ -> Hashtbl.create 64) in
  let nulls = Array.make ncols 0 in
  let values = Array.init ncols (fun _ -> ref []) in
  let sortable =
    Array.init ncols (fun i ->
        match (Schema.column t.schema i).Schema.dtype with
        | Dtype.TOpaque _ -> false
        | Dtype.TBool | Dtype.TInt | Dtype.TFloat | Dtype.TString -> true)
  in
  let rows = ref 0 in
  scan t (fun _ row ->
      incr rows;
      Array.iteri
        (fun i v ->
          match v with
          | Dtype.Null -> nulls.(i) <- nulls.(i) + 1
          | _ ->
              (* hash the encoded form so opaque payloads count too *)
              let buf = Buffer.create 16 in
              Dtype.encode_value buf v;
              Hashtbl.replace seen.(i) (Buffer.contents buf) ();
              if sortable.(i) then values.(i) := v :: !(values.(i)))
        row);
  let table = Hashtbl.create ncols in
  List.iteri
    (fun i (c : Schema.column) ->
      let sorted = Array.of_list !(values.(i)) in
      Array.sort Dtype.compare_value sorted;
      let n = Array.length sorted in
      Hashtbl.replace table
        (String.lowercase_ascii c.Schema.name)
        { rows = !rows; distinct = Hashtbl.length seen.(i); nulls = nulls.(i);
          min_value = (if n = 0 then None else Some sorted.(0));
          max_value = (if n = 0 then None else Some sorted.(n - 1));
          histogram = build_histogram sorted n })
    (Schema.columns t.schema);
  t.stats <- Some table;
  touch_schema t

let column_stats t ~column =
  match t.stats with
  | None -> None
  | Some table -> Hashtbl.find_opt table (String.lowercase_ascii column)

let has_stats t = t.stats <> None

let stats_snapshot t =
  match t.stats with
  | None -> []
  | Some table ->
      Hashtbl.fold (fun col cs acc -> (col, cs) :: acc) table []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let set_stats t entries =
  match entries with
  | [] -> ()
  | _ :: _ ->
      let table = Hashtbl.create (List.length entries) in
      List.iter
        (fun (col, cs) -> Hashtbl.replace table (String.lowercase_ascii col) cs)
        entries;
      t.stats <- Some table;
      touch_schema t

(* ---- genomic indexes (paper 6.5) --------------------------------- *)

let create_genomic_index ?k t ~column ~registry =
  let col = String.lowercase_ascii column in
  match Schema.column_index t.schema col with
  | None -> Error (Printf.sprintf "no column %s in table %s" column t.name)
  | Some i -> (
      if Hashtbl.mem t.genomic col then
        Error (Printf.sprintf "genomic index on %s.%s already exists" t.name column)
      else
        match (Schema.column t.schema i).Schema.dtype with
        | Dtype.TBool | Dtype.TInt | Dtype.TFloat | Dtype.TString ->
            Error (Printf.sprintf "column %s is not an opaque type" column)
        | Dtype.TOpaque type_name -> (
            match Udt.find_type registry type_name with
            | None -> Error (Printf.sprintf "UDT %s is not registered" type_name)
            | Some udt -> (
                match udt.Udt.search with
                | None ->
                    Error
                      (Printf.sprintf "UDT %s does not support substring search"
                         type_name)
                | Some support ->
                    own t;
                    let gidx = Text_index.create ?k support in
                    scan t (fun rid row ->
                        match row.(i) with
                        | Dtype.Opaque (_, payload) -> Text_index.add gidx rid payload
                        | Dtype.Null | Dtype.Bool _ | Dtype.Int _ | Dtype.Float _
                        | Dtype.Str _ ->
                            ());
                    Hashtbl.add t.genomic col (i, gidx);
                    touch_schema t;
                    Ok ())))

(* A genomic index cannot be rebuilt at image-load time: backfilling
   needs the UDT registry to extract searchable text from opaque
   payloads, and the registry is only populated when an adapter
   attaches. Loads stash the persisted (column, k) specs and
   [rebuild_genomic_indexes] turns them into live indexes the moment a
   registry shows up. *)

let genomic_specs t =
  let live =
    Hashtbl.fold
      (fun col (_, gidx) acc -> (col, Text_index.k gidx) :: acc)
      t.genomic []
  in
  let pending =
    List.filter (fun (col, _) -> not (Hashtbl.mem t.genomic col))
      t.pending_genomic
  in
  List.sort compare (live @ pending)

let set_pending_genomic t specs =
  t.pending_genomic <-
    List.map (fun (col, k) -> (String.lowercase_ascii col, k)) specs

let rebuild_genomic_indexes t ~registry =
  t.pending_genomic <-
    List.filter
      (fun (col, k) ->
        if Hashtbl.mem t.genomic col then false
        else
          match create_genomic_index ~k t ~column:col ~registry with
          | Ok () -> false
          | Error _ -> true (* e.g. UDT not registered yet: stay pending *))
      t.pending_genomic

let has_genomic_index t ~column =
  Hashtbl.mem t.genomic (String.lowercase_ascii column)

let genomic_k t ~column =
  Option.map
    (fun (_, gidx) -> Text_index.k gidx)
    (Hashtbl.find_opt t.genomic (String.lowercase_ascii column))

let genomic_mean_len t ~column =
  Option.bind
    (Hashtbl.find_opt t.genomic (String.lowercase_ascii column))
    (fun (_, gidx) -> Text_index.mean_len gidx)

let genomic_search t ~column ~pattern =
  match Hashtbl.find_opt t.genomic (String.lowercase_ascii column) with
  | None -> `No_index
  | Some (i, gidx) -> (
      Obs.add c_genomic_searches 1;
      let payload_of rid =
        match get t rid with
        | Some row -> (
            match row.(i) with
            | Dtype.Opaque (_, payload) -> Some payload
            | Dtype.Null | Dtype.Bool _ | Dtype.Int _ | Dtype.Float _ | Dtype.Str _ ->
                None)
        | None -> None
      in
      match Text_index.search gidx ~pattern ~payload_of with
      | None -> `Unsupported_pattern
      | Some rids -> `Hits rids)

let genomic_seed t ~column ~pattern ~min_len =
  match Hashtbl.find_opt t.genomic (String.lowercase_ascii column) with
  | None -> `No_index
  | Some (_, gidx) -> (
      Obs.add c_genomic_searches 1;
      match Text_index.seed_candidates gidx ~pattern ~min_len with
      | None -> `Unsupported_pattern
      | Some rids -> `Hits rids)
