(** Sets of small non-negative ints, stored as a plain bit vector.

    The multi-subject engine's role sets: per-node role bitmaps (which
    roles may access this node) and the per-rule role coverage the
    policy optimizer compares before each containment test.  Members
    are ints in 0 .. 2{^20}-1; a set costs one machine word per
    [Sys.int_size] ids up to its largest member.

    Values are immutable: every operation returns a fresh bitmap and
    never aliases mutable state with its inputs, so bitmaps can be
    shared by copy-on-write trees and snapshots without defensive
    copies. *)

type t

val empty : t
val is_empty : t -> bool

val of_list : int list -> t
(** Duplicates are collapsed; order is irrelevant.
    @raise Invalid_argument on a member outside 0 .. 2{^20}-1. *)

val add : int -> t -> t
(** @raise Invalid_argument on a member outside 0 .. 2{^20}-1. *)

val remove : int -> t -> t
(** @raise Invalid_argument on a member outside 0 .. 2{^20}-1. *)

val mem : int -> t -> bool

val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t

val equal : t -> t -> bool

val subset : t -> t -> bool
(** [subset a b] is whether every member of [a] is in [b]. *)

val cardinal : t -> int

val iter : (int -> unit) -> t -> unit
(** Ascending order. *)

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
(** Ascending order. *)

val to_list : t -> int list
(** Ascending. *)

val choose : t -> int option
(** Smallest member, if any. *)

val hash_below : int -> t -> int
(** [hash_below n t] hashes the members of [t] below [n] without
    allocating: 0 exactly when there is none, and otherwise a value
    that depends on those members alone (for [n <= Sys.int_size],
    their bit word itself).  The state digest's per-node role
    term. *)

val word : t -> int -> int
(** [word t k] has member [k * Sys.int_size + b] at bit [b]; 0 past
    the last word.  What the snapshot's grant column copies. *)

val memory_bytes : t -> int
(** Bytes of the bit vector's words, without the block header — what
    the multirole bench reports as bitmap bytes/node. *)

val to_string : t -> string
(** Printable, self-validating wire form — safe inside SQL string
    literals and WAL records. *)

val of_string : string -> t
(** Inverse of {!to_string}, re-validating shape, ordering and bounds.
    @raise Failure on any malformed input; the message contains
    ["corrupt"] so the serving layer classifies it as storage
    corruption. *)

val pp : Format.formatter -> t -> unit
