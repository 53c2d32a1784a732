(** The replication wire format: one committed epoch per frame.

    A frame carries the epoch's logical operation
    ({!Xmlac_core.Engine.op}) serialized to bytes, the stream
    epoch number, an Adler-32 over the payload (same arithmetic as the
    WAL's, {!Xmlac_reldb.Wal.adler32}) and the leader's post-epoch
    state digest ({!Xmlac_core.Engine.state_checksum}), which a
    follower recomputes after applying the epoch. *)

type t

val make : epoch:int -> state_sum:int32 -> Xmlac_core.Engine.op -> t

val epoch : t -> int
val state_sum : t -> int32

val intact : t -> bool
(** Whether the payload still matches the declared checksum — the
    follower's receive-side integrity gate. *)

val op : t -> (Xmlac_core.Engine.op, string) result
(** Decode the operation; [Error] on a checksum mismatch or a payload
    the decoder cannot reconstruct (both are treated as torn frames
    and re-shipped). *)

val tear : t -> t
(** Truncate the payload while keeping the declared checksum — the
    chaos transport's deterministic torn-frame corruption.  {!intact}
    is [false] on the result. *)
