(** Relational schemas.

    The ShreX-style mapping gives every element type a table
    [ET(id, pid, v?, s)] — see Section 5.2 and Table 4 of the paper:
    [id] is the universal identifier (primary key), [pid] the parent's
    id (foreign key into the parent type's table), [v] the node value
    for PCDATA types, [s] the accessibility sign. *)

type col_type = TInt | TStr

val col_type_to_string : col_type -> string
(** SQL type names: INTEGER, TEXT. *)

type column = { col_name : string; col_type : col_type }

type table = {
  table_name : string;
  columns : column list;  (** In declaration order; must include [id]. *)
}

val table : string -> (string * col_type) list -> table
(** Raises [Invalid_argument] when no [id] column is declared or on a
    duplicate column name. *)

val column_index : table -> string -> int
(** Position of a column. @raise Not_found for unknown columns. *)

val has_column : table -> string -> bool

val arity : table -> int

val create_table_sql : table -> string
(** [CREATE TABLE t (id INTEGER PRIMARY KEY, ...)] text, for dumps. *)

type t = table list
(** A database schema: tables in creation order. *)
