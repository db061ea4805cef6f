open Genalg_formats
module Lcs = Genalg_align.Lcs
module Obs = Genalg_obs.Obs

let c_insertions = Obs.counter "etl.deltas.insertion"
let c_deletions = Obs.counter "etl.deltas.deletion"
let c_modifications = Obs.counter "etl.deltas.modification"
let c_diff_cost = Obs.counter "etl.diff_cost"

let ( let* ) = Result.bind

type technique =
  | Database_trigger
  | Program_trigger
  | Log_inspection
  | Edit_sequence
  | Snapshot_differential
  | Lcs_diff
  | Tree_diff

let technique_for capability representation =
  match capability, representation with
  | Source.Active, Source.Relational -> Some Database_trigger
  | Source.Active, Source.Hierarchical -> Some Program_trigger
  | Source.Active, Source.Flat_file -> None
  | Source.Logged, _ -> Some Log_inspection
  | Source.Queryable, Source.Hierarchical -> Some Edit_sequence
  | Source.Queryable, Source.Relational -> Some Snapshot_differential
  | Source.Queryable, Source.Flat_file -> None
  | Source.Non_queryable, Source.Hierarchical -> Some Tree_diff
  | Source.Non_queryable, Source.Flat_file -> Some Lcs_diff
  | Source.Non_queryable, Source.Relational -> None

let technique_to_string = function
  | Database_trigger -> "database trigger"
  | Program_trigger -> "program trigger"
  | Log_inspection -> "log inspection"
  | Edit_sequence -> "edit sequence"
  | Snapshot_differential -> "snapshot differential"
  | Lcs_diff -> "LCS diff"
  | Tree_diff -> "tree diff"

let technique_slug = function
  | Database_trigger -> "database_trigger"
  | Program_trigger -> "program_trigger"
  | Log_inspection -> "log_inspection"
  | Edit_sequence -> "edit_sequence"
  | Snapshot_differential -> "snapshot_differential"
  | Lcs_diff -> "lcs_diff"
  | Tree_diff -> "tree_diff"

type t = {
  source : Source.t;
  technique : technique;
  mutable pushed : Delta.t list;      (* trigger techniques: queue, newest first *)
  mutable log_cursor : int;           (* log inspection *)
  mutable snapshot : Entry.t list;    (* edit sequence / snapshot differential *)
  mutable last_dump : string;         (* LCS / tree diff *)
  mutable next_id : int;
  mutable clock : float;
  mutable diff_cost : int;
}

let technique t = t.technique
let last_diff_cost t = t.diff_cost

let create source =
  match technique_for (Source.capability source) (Source.representation source) with
  | None ->
      Error
        (Printf.sprintf "no change-detection technique for this source class (%s)"
           (Source.name source))
  | Some technique ->
      let t =
        {
          source;
          technique;
          pushed = [];
          log_cursor = 0;
          snapshot = [];
          last_dump = "";
          next_id = 1;
          clock = 0.;
          diff_cost = 0;
        }
      in
      match technique with
      | Database_trigger | Program_trigger ->
          (match Source.subscribe source (fun d -> t.pushed <- d :: t.pushed) with
          | Ok () -> ()
          | Error _ -> ());
          Ok t
      | Log_inspection -> Ok t
      | Edit_sequence | Snapshot_differential ->
          t.snapshot <- (match Source.query_all source with Ok e -> e | Error _ -> []);
          Ok t
      | Lcs_diff | Tree_diff ->
          (* every poll re-parses [last_dump], so it must parse *)
          let dump = Source.dump source in
          let* _ =
            Result.map_error
              (fun msg -> "initial dump does not parse: " ^ msg)
              (Source.parse_dump (Source.representation source) dump)
          in
          t.last_dump <- dump;
          Ok t

let fresh_delta t make =
  t.clock <- t.clock +. 1.;
  let id = t.next_id in
  t.next_id <- id + 1;
  make ~id ~timestamp:t.clock

(* Keyed comparison of two entry lists: the common core of edit-sequence
   and snapshot-differential detection (and of dump-based techniques after
   re-parsing). *)
let keyed_diff t old_entries new_entries =
  let old_tbl = Hashtbl.create 64 and new_tbl = Hashtbl.create 64 in
  List.iter (fun (e : Entry.t) -> Hashtbl.replace old_tbl e.Entry.accession e) old_entries;
  List.iter (fun (e : Entry.t) -> Hashtbl.replace new_tbl e.Entry.accession e) new_entries;
  let deltas = ref [] in
  (* deletions and modifications, in old order *)
  List.iter
    (fun (old_e : Entry.t) ->
      match Hashtbl.find_opt new_tbl old_e.Entry.accession with
      | None -> deltas := fresh_delta t (fun ~id ~timestamp -> Delta.deletion ~id ~timestamp old_e) :: !deltas
      | Some new_e ->
          if not (Entry.equal old_e new_e) then
            deltas :=
              fresh_delta t (fun ~id ~timestamp ->
                  Delta.modification ~id ~timestamp ~before:old_e ~after:new_e)
              :: !deltas)
    old_entries;
  (* insertions, in new order *)
  List.iter
    (fun (new_e : Entry.t) ->
      if not (Hashtbl.mem old_tbl new_e.Entry.accession) then
        deltas := fresh_delta t (fun ~id ~timestamp -> Delta.insertion ~id ~timestamp new_e) :: !deltas)
    new_entries;
  List.rev !deltas

(* Dump techniques re-parse the last dump that parsed, so a dump that
   does not parse is an error and leaves [last_dump] where it was: the
   changes it hid are reported by the next poll whose dump parses. *)
let poll_inner t =
  match t.technique with
  | Database_trigger | Program_trigger ->
      let ds = List.rev t.pushed in
      t.pushed <- [];
      Ok ds
  | Log_inspection -> (
      match Source.read_log t.source ~since:t.log_cursor with
      | Error _ as e -> e
      | Ok ds ->
          List.iter (fun (d : Delta.t) -> t.log_cursor <- Int.max t.log_cursor d.Delta.id) ds;
          Ok ds)
  | Edit_sequence | Snapshot_differential -> (
      match Source.query_all t.source with
      | Error _ as e -> e
      | Ok current ->
          let ds = keyed_diff t t.snapshot current in
          t.snapshot <- current;
          Ok ds)
  | Lcs_diff ->
      let dump = Source.dump t.source in
      (* the raw flat-file comparison: Myers diff over lines (the paper's
         "longest common subsequence approach, used in the UNIX diff
         command") *)
      let old_lines = Array.of_list (String.split_on_char '\n' t.last_dump) in
      let new_lines = Array.of_list (String.split_on_char '\n' dump) in
      let script = Lcs.diff ~equal:String.equal old_lines new_lines in
      t.diff_cost <- Lcs.edit_distance_of script;
      if t.diff_cost = 0 then Ok []
      else
        (* identify the affected records by re-parsing both dumps *)
        let* old_entries = Source.parse_dump (Source.representation t.source) t.last_dump in
        let* new_entries = Source.parse_dump (Source.representation t.source) dump in
        let ds = keyed_diff t old_entries new_entries in
        t.last_dump <- dump;
        Ok ds
  | Tree_diff ->
      let dump = Source.dump t.source in
      let* old_entries = Source.parse_dump (Source.representation t.source) t.last_dump in
      let* new_entries = Source.parse_dump (Source.representation t.source) dump in
      (* per-record ordered-tree diff drives both the cost accounting
         and the modification detection *)
      let new_tbl = Hashtbl.create 64 in
      List.iter
        (fun (e : Entry.t) -> Hashtbl.replace new_tbl e.Entry.accession e)
        new_entries;
      let total_cost = ref 0 in
      List.iter
        (fun (old_e : Entry.t) ->
          match Hashtbl.find_opt new_tbl old_e.Entry.accession with
          | Some new_e ->
              let edits =
                Tree_diff.diff (Acedb.of_entry old_e) (Acedb.of_entry new_e)
              in
              total_cost := !total_cost + Tree_diff.cost edits
          | None ->
              total_cost := !total_cost + Acedb.size (Acedb.of_entry old_e))
        old_entries;
      t.diff_cost <- !total_cost;
      let ds = keyed_diff t old_entries new_entries in
      t.last_dump <- dump;
      Ok ds

let poll t =
  Obs.with_span
    ~attrs:[ ("source", Source.name t.source) ]
    ("etl.poll." ^ technique_slug t.technique)
    (fun () ->
      let* ds = poll_inner t in
      List.iter
        (fun (d : Delta.t) ->
          match Delta.kind d with
          | Delta.Insertion -> Obs.add c_insertions 1
          | Delta.Deletion -> Obs.add c_deletions 1
          | Delta.Modification -> Obs.add c_modifications 1)
        ds;
      (match t.technique with
      | Lcs_diff | Tree_diff -> Obs.add c_diff_cost t.diff_cost
      | Database_trigger | Program_trigger | Log_inspection | Edit_sequence
      | Snapshot_differential ->
          ());
      Delta.notify ~source:(Source.name t.source) ds;
      Ok ds)
