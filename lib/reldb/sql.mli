(** SQL abstract syntax and rendering.

    Covers exactly what the paper's pipeline emits: conjunctive
    SELECT-PROJECT-JOIN queries over aliased tables (the ShreX
    translation of XPath), combined with UNION / EXCEPT / INTERSECT
    (the Annotation-Queries algorithm of Figure 5), plus the INSERT,
    UPDATE and DELETE statements used for loading, annotation and
    document updates. *)

type col = { alias : string; column : string }
(** A qualified column reference [alias.column]. *)

type scalar = Col of col | Const of Value.t

type pred =
  | Cmp of { lhs : scalar; op : Value.cmp; rhs : scalar }
  | Is_null of col
  | Not_null of col

type table_ref = { table : string; as_alias : string }

type select = {
  proj : col list;  (** Projected columns. *)
  from : table_ref list;
  where : pred list;  (** Conjunction. *)
}

type query =
  | Select of select
  | Union of query * query
  | Except of query * query
  | Intersect of query * query

type stmt =
  | Insert of { table : string; values : Value.t list }
  | Update of { table : string; set : (string * Value.t) list; where : pred list }
  | Delete of { table : string; where : pred list }

val col : string -> string -> col
val eq : scalar -> scalar -> pred

val query_to_string : query -> string
val stmt_to_string : stmt -> string

val balanced_union : query list -> query option
(** Combines the queries with UNION into a balanced binary tree
    ([None] on the empty list).  This is the n-ary union constructor
    used by the ShreX translation and the annotation-plan lowering:
    recursion depth stays logarithmic in the branch count instead of
    linear as with a left-leaning fold. *)

val flatten_union : query -> query list
(** The maximal run of top-level UNION operands, left to right;
    [[q]] when [q] is not a union. *)

val size : query -> int
(** Number of query-algebra nodes (SELECTs plus set operations) — the
    static cost measure reported by the plan-rewrite ablation. *)

val depth : query -> int
(** Height of the set-operation tree (1 for a bare SELECT). *)
