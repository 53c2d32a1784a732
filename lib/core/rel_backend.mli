(** Relational backend: every operation goes through SQL over the
    shredded database — the PostgreSQL / MonetDB-SQL role.

    Annotation updates follow the paper's Annotate algorithm
    (Figure 6) literally: the annotation query's id set is intersected
    with each table's ids, and each hit becomes an
    [UPDATE t SET s = ... WHERE id = ...] statement through the
    executor. *)

val make : Xmlac_shrex.Mapping.t -> Xmlac_reldb.Database.t -> Backend.t
(** The database must already contain the shredded document
    ({!Xmlac_shrex.Shred.load}). The backend's name reflects the
    database's storage engine: ["row-sql"] or ["column-sql"]. *)

val load :
  Xmlac_shrex.Mapping.t ->
  Policy.t ->
  Xmlac_reldb.Table.engine ->
  Xmlac_xml.Tree.t ->
  Xmlac_reldb.Database.t * Backend.t
(** Shreds the document into a fresh database of the given storage
    engine, every tuple at the policy's default sign and role bitmap,
    and wraps it — a relational store to annotate beside an
    {!Engine}, which holds the native store only.  Fresh subtrees the
    engine grafts go in through {!Xmlac_shrex.Shred.insert_subtree} on
    the returned database. *)
