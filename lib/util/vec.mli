(** Growable arrays.

    Used for column storage in the relational engine and for building
    node/tuple collections without intermediate lists.  Amortized O(1)
    append; O(1) random access. *)

type 'a t

val create : ?capacity:int -> dummy:'a -> unit -> 'a t
(** [create ~dummy ()] makes an empty vector. [dummy] fills unused
    slots; it is never observable through the API. *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val get : 'a t -> int -> 'a
(** O(1); raises [Invalid_argument] when out of bounds. *)

val set : 'a t -> int -> 'a -> unit

val push : 'a t -> 'a -> unit

val pop : 'a t -> 'a option
(** Removes and returns the last element. *)

val clear : 'a t -> unit

val iter : ('a -> unit) -> 'a t -> unit
val iteri : (int -> 'a -> unit) -> 'a t -> unit
val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
val exists : ('a -> bool) -> 'a t -> bool
val map_to_list : ('a -> 'b) -> 'a t -> 'b list
val to_list : 'a t -> 'a list
val of_list : dummy:'a -> 'a list -> 'a t

val filter_in_place : ('a -> bool) -> 'a t -> unit
(** Keeps only elements satisfying the predicate, preserving order. *)
