(** Derived structural information about a DTD.

    The re-annotation algorithm of Section 5.3 replaces descendant axes
    inside rule predicates "with relative paths using only the child
    axis.  With the schema information these replacements are finite."
    This module provides exactly that: enumeration of the label paths
    realizable under a (non-recursive) DTD, plus reachability and a
    recursion check. *)

type t

val build : Dtd.t -> t
(** Precomputes parent/child maps and reachability. O(types^2). *)

val dtd : t -> Dtd.t

val is_recursive : t -> bool
(** True when some element type can (transitively) contain itself.
    Path enumerations below raise [Invalid_argument] on recursive
    schemas. *)

val parents : t -> string -> string list
(** Element types in which the given type may occur as a child. *)

val reachable : t -> src:string -> dst:string -> bool
(** Whether a downward path of length >= 1 exists from [src] to
    [dst]. *)

val root_paths : t -> string list list
(** All label paths from the root type down to every type, each path
    including both endpoints ([[["hospital"]; ["hospital"; "dept"]; ...]]).
    Enumerated once, at {!build}; the order is fixed, so an index into
    the list names a path. *)

val path_index : t -> Tree.node -> int option
(** The index in {!root_paths} of the node's label path
    ({!Tree.label_path}); [None] when the node sits off the schema's
    paths, or the DTD is recursive. *)

val covers : t -> Tree.node -> bool
(** [covers t n]: given that [n]'s parent (if any) sits at a label
    path of {!root_paths}, whether every node of [n]'s subtree does
    too — that is, whether each parent-child edge from [n]'s parent
    down is a DTD child edge ([n] itself must be the DTD root when it
    has no parent).  Occurrence constraints are not checked.
    [covers t (Tree.root doc)] says the whole document lies on the
    schema's paths, which is what the schema-level overlap tests
    assume of the documents they reason about. *)

val paths_to : t -> string -> string list list
(** Root paths ending at the given type. *)

val paths_between : t -> src:string -> dst:string -> string list list
(** All child-axis label paths [src; ...; dst] of length >= 2 (i.e.,
    [dst] a proper descendant of [src]).  Used to expand
    [.//experimental] under [patient] into
    [treatment/experimental]-style chains. *)

val max_depth : t -> int
(** Length of the longest root path (number of nodes). *)
