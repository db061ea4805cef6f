(** Source monitors: change detection for every populated cell of the
    paper's Figure 2.

    {v
                    Hierarchical        Flat file      Relational
    Active          program trigger     N/A            database trigger
    Logged          inspect log         inspect log    inspect log
    Queryable       edit sequence       N/A            snapshot differential
    Non-queryable   tree diff (acediff) LCS diff       N/A
    v}

    A monitor wraps one source, remembers whatever state its technique
    needs (log cursor, last snapshot, last dump), and each {!poll} returns
    the deltas since the previous poll. *)

type technique =
  | Database_trigger
  | Program_trigger
  | Log_inspection
  | Edit_sequence          (** structured snapshot comparison *)
  | Snapshot_differential  (** keyed relational snapshot join *)
  | Lcs_diff               (** Myers/LCS over flat-file dump lines *)
  | Tree_diff              (** ordered-tree diff over hierarchical dumps *)

val technique_for :
  Source.capability -> Source.representation -> technique option
(** [None] for the grid's N/A cells. *)

val technique_to_string : technique -> string

val technique_slug : technique -> string
(** Lower-snake-case name used in instrument names: each {!poll} runs
    under an [etl.poll.<slug>] span carrying a [source] attribute. *)

type t

val create : Source.t -> (t, string) result
(** Attach to a source. Fails on N/A cells, and for the dump techniques
    when the initial dump does not parse. For [Active] sources this
    subscribes a callback; for snapshot techniques it records the initial
    state, so only subsequent changes are reported. *)

val technique : t -> technique

val poll : t -> (Delta.t list, string) result
(** Changes since the last poll that succeeded (or creation), in
    occurrence order. Deltas are renumbered by the monitor for snapshot
    techniques (the source's own ids are unknowable there). A dump that
    does not parse is an [Error]; the monitor keeps the last dump that
    parsed, so the changes are reported by the next poll that succeeds.

    Observability: runs under an [etl.poll.<technique_slug>] span; each
    returned delta bumps [etl.deltas.insertion] / [etl.deltas.deletion] /
    [etl.deltas.modification], and dump-comparison techniques add their
    raw edit-script size to the [etl.diff_cost] counter. A poll that
    fails counts nothing. *)

val last_diff_cost : t -> int
(** Size of the most recent raw edit script (LCS line edits or tree-edit
    cost); 0 for trigger/log techniques. Exposed for the Figure 2
    experiment. *)
