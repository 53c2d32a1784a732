(** XML DTDs in the style of the paper's Figure 1.

    An element type declares either text content ([#PCDATA]), empty
    content, a {e sequence} of child particles, or a {e choice} among
    child particles.  Particles carry the usual occurrence indicators
    [?], [*], [+].  This matches the node-and-edge labeled graph
    representation the paper uses for schemas (straight edges =
    sequence, dashed edges = choice).

    The re-annotation machinery (Section 5.3) requires the schema to be
    non-recursive so that descendant-axis expansion terminates; see
    {!Schema_graph.is_recursive}. *)

type occurrence = One | Optional | Star | Plus

val occurrence_to_string : occurrence -> string

type particle = { elem : string; occ : occurrence }

type content =
  | Pcdata  (** Text-only leaf. *)
  | Empty  (** No content at all. *)
  | Seq of particle list  (** All particles, subject to occurrences. *)
  | Choice of particle list  (** Exactly one branch (or none if every
                                 branch is optional). *)

type t

val make : root:string -> (string * content) list -> t
(** [make ~root decls] builds a DTD. Raises [Invalid_argument] when a
    particle references an undeclared element type, on duplicate
    declarations, or when [root] is undeclared. *)

val root : t -> string
val element_types : t -> string list
(** Declared element types, in declaration order. *)

val content : t -> string -> content
(** @raise Not_found for undeclared types. *)

val child_types : t -> string -> string list
(** Element types that may appear as children, in declaration order. *)

(** {1 Concrete syntax}

    A subset of real DTD syntax, e.g.:
    {[
      <!ELEMENT hospital (dept+)>
      <!ELEMENT treatment (regular? | experimental?)>
      <!ELEMENT med (#PCDATA)>
      <!ELEMENT note EMPTY>
    ]}
    The first declared element is the root. Nested groups are not
    supported (the paper's schemas do not use them). *)

val parse : string -> (t, string) result
val parse_exn : string -> t
val to_string : t -> string

(** {1 Validation} *)

type violation = {
  node_id : int;
  elem : string;
  reason : string;
}

val pp_violation : Format.formatter -> violation -> unit

val validate : t -> Tree.t -> violation list
(** Checks every node of the document against its declared content
    model: undeclared element names, wrong root, text in non-PCDATA
    elements, missing/extra/over-multiplied children, and mixed choice
    branches.  The document tree is unordered (Section 2.1), so
    sequence order is not enforced, only multiplicities. *)

val is_valid : t -> Tree.t -> bool
