(** Named roles and their inheritance DAG — the subject dimension of a
    multi-subject policy.

    Declaration order is load-bearing: a role's position is its {e bit
    index} in every per-node accessibility bitmap
    ({!Xmlac_util.Bitset}), so it must be stable across parsing,
    printing and annotation.  A role {e inherits} the rules of its
    parents (transitively); it may also override the policy's default
    semantics [ds] and conflict resolution [cr] for itself and its
    descendants. *)

type decl = {
  name : string;
  inherits : string list;  (** Parent roles, as declared. *)
  ds : Rule.effect option;  (** Per-role default-semantics override. *)
  cr : Rule.effect option;  (** Per-role conflict-resolution override. *)
}

val role :
  ?inherits:string list ->
  ?ds:Rule.effect ->
  ?cr:Rule.effect ->
  string ->
  decl
(** Declaration constructor; validation happens in {!make}. *)

type t
(** A validated role DAG: no duplicate names, no unknown parents, no
    inheritance cycles. *)

val default_role : string
(** ["default"] — the name of the implicit single role of a policy
    without subject declarations. *)

val solo : t
(** The one-role DAG every single-subject policy carries: just
    {!default_role}, no inheritance, no overrides. *)

val make : decl list -> (t, string) result
(** Validates and freezes a declaration list.  Fails on an empty list,
    a duplicate role name, an [inherits] reference to an undeclared
    role, or an inheritance cycle — the error message names the
    offender (and spells out the cycle path). *)

val make_exn : decl list -> t
(** @raise Invalid_argument on what {!make} rejects. *)

val count : t -> int
val decls : t -> decl list
(** In declaration (= bit) order. *)

val names : t -> string list
(** In declaration (= bit) order. *)

val index : t -> string -> int option
(** A role's bit index. *)

val mem : t -> string -> bool
val decl : t -> string -> decl option

val closure : t -> string -> string list
(** The role's inheritance closure — itself first, then ancestors in
    breadth-first order, deduplicated.  A rule qualified with any role
    in the closure applies to this role.
    @raise Invalid_argument on an unknown role. *)

val is_solo : t -> bool
(** Whether this is exactly the implicit single-subject DAG. *)

val resolved_ds : t -> string -> Rule.effect option
(** The role's effective [ds] override: its own, else the nearest
    ancestor's (breadth-first), else [None] (use the policy global). *)

val resolved_cr : t -> string -> Rule.effect option
(** Like {!resolved_ds}, for the conflict resolution. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
