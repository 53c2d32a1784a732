(** Write-ahead logging simulation with epoch framing and recovery.

    Real database systems pay a per-statement price that an embedded
    in-memory engine does not: statement text reaches the server,
    is parsed, and the effects are journaled before commit.  The
    paper's Figure 9 (loading time) is dominated by exactly this cost —
    running one INSERT statement per tuple is "over one order of
    magnitude slower" than bulk-loading the XML file.

    This module reproduces the journaling part honestly: every logged
    statement is framed (length header), checksummed byte-by-byte and
    appended to an in-memory log, so logging cost scales with statement
    text size plus a per-record constant, like a real WAL append.

    Beyond the cost model, the log is now also the relational half of
    the engine's durability story ({!Xmlac_core.Engine}): mutating
    operations are bracketed by {!begin_epoch}/{!commit_epoch} markers,
    and {!recover} implements truncate-to-last-commit — it drops the
    torn final record of an interrupted append plus everything logged
    inside an epoch that never committed, restoring the record count,
    byte count and checksum to the values of the surviving prefix.
    Records logged outside any epoch (bulk load) are treated as
    committed on append.

    Appends check {!Xmlac_util.Fault.killed}: after a simulated crash
    the log refuses further writes loudly (raising [Failure]) until the
    crash is recovered, so a test cannot silently write past a kill.
    Fault points: ["wal.append"] before an append touches the log,
    ["wal.append.torn"] in the middle of one (the entry is in the log
    but its frame is incomplete — a torn record), ["wal.begin"] and
    ["wal.commit"] before the respective markers. *)

type t

type entry =
  | Begin of int  (** Epoch-open marker. *)
  | Commit of int  (** Epoch-commit marker. *)
  | Record of string  (** A journaled statement. *)

val create : unit -> t

val log : t -> string -> unit
(** Appends one record.
    @raise Failure after a simulated crash ({!Xmlac_util.Fault.killed})
    until recovery clears it. *)

val begin_epoch : t -> int -> unit
(** Opens epoch [n].  @raise Invalid_argument if an epoch is open. *)

val commit_epoch : t -> int -> unit
(** Commits epoch [n].  @raise Invalid_argument unless epoch [n] is the
    open epoch. *)

val open_epoch : t -> int option
(** The currently open (uncommitted) epoch, if any. *)

val last_committed : t -> int option
(** Highest committed epoch number seen, if any. *)

val records : t -> int
val bytes_logged : t -> int

val checksum : t -> int32
(** Rolling checksum over everything logged; exposed so tests can
    detect lost or reordered records.  Epoch markers participate. *)

val entries : t -> entry list
(** The retained log, oldest first.  Old committed entries may have
    been dropped by rotation ({!rotated}); the tail needed for
    {!recover} is always retained. *)

val rotated : t -> int
(** Entries dropped by memory-bounding rotation (checkpointing); they
    were all committed when dropped. *)

val replay : t -> (string -> unit) -> int
(** Applies the callback to every {e committed} retained record, oldest
    first — records of an open epoch and torn records are skipped, as
    {!recover} would drop them.  Returns how many were replayed.  Does
    not modify the log.  Implemented over the same committed-prefix
    cursor as {!fold_epochs} and {!recover}, so the three never
    disagree about what is committed. *)

val fold_epochs :
  ?from:int -> t -> ('a -> epoch:int -> records:string list -> 'a) -> 'a -> 'a
(** The incremental epoch cursor:
    committed retained epochs oldest-first, each with its record batch
    in log order.  An epoch is visited only once its commit marker is
    inside the committed prefix — a torn or open tail can never
    surface, even partially.  [~from] seeks: epochs numbered [<= from]
    are skipped (default: visit every retained epoch).  Records logged
    outside any epoch (bulk load) belong to the base image and are not
    visited.  Does not modify the log. *)

val epoch_records : t -> int -> string list option
(** Seek-by-epoch over {!fold_epochs}: committed epoch [n]'s records in
    log order, or [None] when [n] is uncommitted, torn or rotated
    away. *)

val epoch_checksum : t -> int -> int32 option
(** {!adler32} over committed epoch [n]'s records (seeded with [1l]),
    or [None] as in {!epoch_records}.  The per-epoch ledger
    [xmlacctl explain --request] prints. *)

val adler32 : int32 -> string -> int32
(** The log's rolling checksum primitive (Adler-32), exposed so frames
    shipped to replicas are summed with the same arithmetic the log
    itself uses. *)

val recover : t -> int
(** Truncate-to-last-commit: drops torn entries and everything logged
    in an epoch that never committed, restores {!records},
    {!bytes_logged} and {!checksum} to the surviving prefix's values
    and closes the open epoch.  Returns the number of entries
    dropped. *)

val reset : t -> unit
(** Clears records, bytes, checksum, entries and epoch state
    together. *)
