(** Write-ahead logging simulation: the per-statement journaling cost.

    Real database systems pay a per-statement price that an embedded
    in-memory engine does not: statement text reaches the server,
    is parsed, and the effects are journaled before commit.  The
    paper's Figure 9 (loading time) is dominated by exactly this cost —
    running one INSERT statement per tuple is "over one order of
    magnitude slower" than bulk-loading the XML file.

    This module reproduces the journaling part honestly: every logged
    statement is framed (fixed header plus length), checksummed
    byte-by-byte and appended to an in-memory log, so logging cost
    scales with statement text size plus a per-record constant, like a
    real WAL append.  Only the counters are kept; the byte image is
    recycled once it reaches 16 MB.

    Appends check {!Xmlac_util.Fault.killed}: after a simulated crash
    the log refuses further writes loudly (raising [Failure]) until
    {!Xmlac_util.Fault.recover} clears the crash, so a test cannot
    silently write past a kill.  Fault point: ["wal.append"], before an
    append touches the log. *)

type t

val create : unit -> t

val log : t -> string -> unit
(** Appends one record.
    @raise Failure after a simulated crash ({!Xmlac_util.Fault.killed})
    until recovery clears it. *)

val records : t -> int
val bytes_logged : t -> int
(** Payload bytes appended, framing excluded. *)

val checksum : t -> int32
(** Rolling checksum over every header and payload logged; exposed so
    tests can detect lost or reordered records. *)

val adler32 : int32 -> string -> int32
(** The log's rolling checksum primitive (Adler-32), exposed so frames
    shipped to replicas are summed with the same arithmetic the log
    itself uses. *)
