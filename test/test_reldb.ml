(* Tests for the relational engine: values, schemas, tables under both
   storage engines, SQL rendering/parsing, and the executor. *)

module Value = Xmlac_reldb.Value
module Schema = Xmlac_reldb.Schema
module Table = Xmlac_reldb.Table
module Db = Xmlac_reldb.Database
module Sql = Xmlac_reldb.Sql
module Sql_text = Xmlac_reldb.Sql_text
module Executor = Xmlac_reldb.Executor

let both_engines f () =
  f Table.Row;
  f Table.Column

(* ------------------------------------------------------------------ *)
(* Value *)

let test_value_compare_order () =
  Alcotest.(check bool) "null smallest" true
    (Value.compare Value.Null (Value.Int (-5)) < 0);
  Alcotest.(check bool) "int before str" true
    (Value.compare (Value.Int 3) (Value.Str "a") < 0);
  Alcotest.(check int) "int eq" 0 (Value.compare (Value.Int 3) (Value.Int 3))

let test_value_cmp_null () =
  List.iter
    (fun op ->
      Alcotest.(check bool) "null incomparable" false
        (Value.cmp_holds op Value.Null (Value.Int 1));
      Alcotest.(check bool) "null incomparable" false
        (Value.cmp_holds op (Value.Str "x") Value.Null))
    [ Value.Eq; Value.Neq; Value.Lt; Value.Le; Value.Gt; Value.Ge ]

let test_value_cmp_numeric_strings () =
  Alcotest.(check bool) "numeric compare" true
    (Value.cmp_holds Value.Gt (Value.Str "1600") (Value.Str "700"));
  Alcotest.(check bool) "lex compare" true
    (Value.cmp_holds Value.Lt (Value.Str "abc") (Value.Str "abd"));
  Alcotest.(check bool) "int vs numeric str" true
    (Value.cmp_holds Value.Eq (Value.Int 7) (Value.Str "7"))

let test_value_literal () =
  Alcotest.(check string) "null" "NULL" (Value.to_literal Value.Null);
  Alcotest.(check string) "int" "42" (Value.to_literal (Value.Int 42));
  Alcotest.(check string) "quoting" "'it''s'" (Value.to_literal (Value.Str "it's"))

(* ------------------------------------------------------------------ *)
(* Schema *)

let patient_schema =
  Schema.table "patient"
    [ ("id", Schema.TInt); ("pid", Schema.TInt); ("s", Schema.TStr) ]

let med_schema =
  Schema.table "med"
    [ ("id", Schema.TInt); ("pid", Schema.TInt); ("v", Schema.TStr);
      ("s", Schema.TStr) ]

let test_schema_requires_id () =
  Alcotest.check_raises "no id"
    (Invalid_argument "Schema.table t: missing id column") (fun () ->
      ignore (Schema.table "t" [ ("pid", Schema.TInt) ]))

let test_schema_rejects_duplicates () =
  Alcotest.check_raises "dup"
    (Invalid_argument "Schema.table t: duplicate column") (fun () ->
      ignore (Schema.table "t" [ ("id", Schema.TInt); ("id", Schema.TInt) ]))

let test_schema_column_index () =
  Alcotest.(check int) "v at 2" 2 (Schema.column_index med_schema "v");
  Alcotest.(check bool) "has v" true (Schema.has_column med_schema "v");
  Alcotest.(check bool) "no v" false (Schema.has_column patient_schema "v")

let test_schema_ddl () =
  Alcotest.(check string) "ddl"
    "CREATE TABLE patient (id INTEGER PRIMARY KEY, pid INTEGER, s TEXT);"
    (Schema.create_table_sql patient_schema)

(* ------------------------------------------------------------------ *)
(* Table (parameterized over both engines) *)

let mk_table engine =
  let t = Table.create engine med_schema in
  List.iter
    (fun (id, pid, v) ->
      Table.insert t
        [| Value.Int id; Value.Int pid; Value.Str v; Value.Str "-" |])
    [ (1, 10, "a"); (2, 10, "b"); (3, 11, "c") ];
  t

let test_table_insert_get engine =
  let t = mk_table engine in
  Alcotest.(check int) "count" 3 (Table.live_count t);
  match Table.find_by_id t 2 with
  | None -> Alcotest.fail "id 2 missing"
  | Some row ->
      Alcotest.(check bool) "value" true
        (Table.get t ~row ~column:2 = Value.Str "b")

let test_table_pid_index engine =
  let t = mk_table engine in
  Alcotest.(check int) "pid 10" 2 (List.length (Table.rows_by_pid t 10));
  Alcotest.(check int) "pid 11" 1 (List.length (Table.rows_by_pid t 11));
  Alcotest.(check int) "pid 12" 0 (List.length (Table.rows_by_pid t 12))

let test_table_update engine =
  let t = mk_table engine in
  (match Table.find_by_id t 1 with
  | Some row -> Table.update t ~row ~column:3 (Value.Str "+")
  | None -> Alcotest.fail "missing");
  match Table.find_by_id t 1 with
  | Some row ->
      Alcotest.(check bool) "updated" true
        (Table.get t ~row ~column:3 = Value.Str "+")
  | None -> Alcotest.fail "missing after update"

let test_table_update_id_rejected engine =
  let t = mk_table engine in
  match Table.find_by_id t 1 with
  | Some row ->
      Alcotest.check_raises "immutable id"
        (Invalid_argument "Table.update: id/pid columns are immutable")
        (fun () -> Table.update t ~row ~column:0 (Value.Int 99))
  | None -> Alcotest.fail "missing"

let test_table_delete engine =
  let t = mk_table engine in
  Alcotest.(check bool) "deleted" true (Table.delete_by_id t 2);
  Alcotest.(check bool) "gone" true (Table.find_by_id t 2 = None);
  Alcotest.(check int) "count" 2 (Table.live_count t);
  Alcotest.(check bool) "idempotent" false (Table.delete_by_id t 2);
  Alcotest.(check (list int)) "ids" [ 1; 3 ] (Table.ids t);
  (* pid index must not resurrect the tombstoned row. *)
  Alcotest.(check int) "pid 10 after delete" 1
    (List.length (Table.rows_by_pid t 10))

let test_table_duplicate_id engine =
  let t = mk_table engine in
  try
    Table.insert t [| Value.Int 1; Value.Int 9; Value.Str "x"; Value.Str "-" |];
    Alcotest.fail "duplicate id accepted"
  with Invalid_argument _ -> ()

let test_table_arity engine =
  let t = mk_table engine in
  try
    Table.insert t [| Value.Int 9 |];
    Alcotest.fail "arity mismatch accepted"
  with Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* SQL rendering and script parsing *)

let test_sql_select_render () =
  let q =
    Sql.Select
      {
        proj = [ Sql.col "pat1" "id" ];
        from =
          [ { Sql.table = "patients"; as_alias = "pats1" };
            { Sql.table = "patient"; as_alias = "pat1" } ];
        where =
          [ Sql.eq (Sql.Col (Sql.col "pats1" "id")) (Sql.Col (Sql.col "pat1" "pid")) ];
      }
  in
  Alcotest.(check string) "paper's Q1"
    "SELECT pat1.id FROM patients pats1, patient pat1 WHERE pats1.id = pat1.pid"
    (Sql.query_to_string q)

let test_sql_set_ops_render () =
  let s name =
    Sql.Select
      { proj = [ Sql.col name "id" ]; from = [ { Sql.table = name; as_alias = name } ]; where = [] }
  in
  Alcotest.(check string) "union except"
    "((SELECT a.id FROM a a UNION SELECT b.id FROM b b) EXCEPT SELECT c.id FROM c c)"
    (Sql.query_to_string (Sql.Except (Sql.Union (s "a", s "b"), s "c")))

let test_sql_stmt_render () =
  Alcotest.(check string) "insert"
    "INSERT INTO med VALUES (6, 5, 'enoxaparin', '-');"
    (Sql.stmt_to_string
       (Sql.Insert
          { table = "med";
            values = [ Value.Int 6; Value.Int 5; Value.Str "enoxaparin"; Value.Str "-" ] }));
  Alcotest.(check string) "update"
    "UPDATE med SET s = '+' WHERE med.id = 6;"
    (Sql.stmt_to_string
       (Sql.Update
          { table = "med";
            set = [ ("s", Value.Str "+") ];
            where = [ Sql.eq (Sql.Col (Sql.col "med" "id")) (Sql.Const (Value.Int 6)) ] }))

let test_sql_is_null_render () =
  Alcotest.(check string) "is null"
    "SELECT h.id FROM hospital h WHERE h.pid IS NULL"
    (Sql.query_to_string
       (Sql.Select
          { proj = [ Sql.col "h" "id" ];
            from = [ { Sql.table = "hospital"; as_alias = "h" } ];
            where = [ Sql.Is_null (Sql.col "h" "pid") ] }))

let test_script_round_trip () =
  let stmts =
    [
      Sql.Insert { table = "a"; values = [ Value.Int 1; Value.Null; Value.Str "x'y" ] };
      Sql.Insert { table = "b"; values = [ Value.Int 2; Value.Int 1; Value.Str "z" ] };
    ]
  in
  let text = Sql_text.render_script stmts in
  Alcotest.(check int) "size agrees" (String.length text)
    (Sql_text.script_size stmts);
  match Sql_text.parse_script text with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok stmts' ->
      Alcotest.(check string) "round trip" text (Sql_text.render_script stmts')

let test_script_rejects () =
  (match Sql_text.parse_script "DELETE FROM a;" with
  | Ok _ -> Alcotest.fail "accepted non-insert"
  | Error _ -> ());
  match Sql_text.parse_script "INSERT INTO a VALUES (1" with
  | Ok _ -> Alcotest.fail "accepted unterminated"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Executor *)

(* Two-level parent/child fixture mirroring the shredded layout. *)
let mk_db engine =
  let db = Db.create engine in
  let parent =
    Db.create_table db
      (Schema.table "parent" [ ("id", Schema.TInt); ("pid", Schema.TInt); ("s", Schema.TStr) ])
  in
  let child =
    Db.create_table db
      (Schema.table "child"
         [ ("id", Schema.TInt); ("pid", Schema.TInt); ("v", Schema.TStr); ("s", Schema.TStr) ])
  in
  Table.insert parent [| Value.Int 1; Value.Null; Value.Str "-" |];
  Table.insert parent [| Value.Int 2; Value.Null; Value.Str "-" |];
  List.iter
    (fun (id, pid, v) ->
      Table.insert child [| Value.Int id; Value.Int pid; Value.Str v; Value.Str "-" |])
    [ (10, 1, "x"); (11, 1, "y"); (12, 2, "x") ];
  db

let select_child_ids ?(where = []) () =
  Sql.Select
    {
      proj = [ Sql.col "c" "id" ];
      from = [ { Sql.table = "child"; as_alias = "c" } ];
      where;
    }

let join_query =
  Sql.Select
    {
      proj = [ Sql.col "c" "id" ];
      from =
        [ { Sql.table = "parent"; as_alias = "p" };
          { Sql.table = "child"; as_alias = "c" } ];
      where =
        [ Sql.eq (Sql.Col (Sql.col "c" "pid")) (Sql.Col (Sql.col "p" "id"));
          Sql.eq (Sql.Col (Sql.col "p" "id")) (Sql.Const (Value.Int 1)) ];
    }

let test_exec_scan engine =
  let db = mk_db engine in
  Alcotest.(check (list int)) "all children" [ 10; 11; 12 ]
    (Executor.query_ids db (select_child_ids ()))

let test_exec_filter engine =
  let db = mk_db engine in
  let where =
    [ Sql.Cmp
        { lhs = Sql.Col (Sql.col "c" "v"); op = Value.Eq;
          rhs = Sql.Const (Value.Str "x") } ]
  in
  Alcotest.(check (list int)) "v = x" [ 10; 12 ]
    (Executor.query_ids db (select_child_ids ~where ()))

let test_exec_join engine =
  let db = mk_db engine in
  Alcotest.(check (list int)) "children of parent 1" [ 10; 11 ]
    (Executor.query_ids db join_query)

let test_exec_set_ops engine =
  let db = mk_db engine in
  let a = select_child_ids () in
  let b = join_query in
  Alcotest.(check (list int)) "union" [ 10; 11; 12 ]
    (Executor.query_ids db (Sql.Union (a, b)));
  Alcotest.(check (list int)) "except" [ 12 ]
    (Executor.query_ids db (Sql.Except (a, b)));
  Alcotest.(check (list int)) "intersect" [ 10; 11 ]
    (Executor.query_ids db (Sql.Intersect (a, b)))

let test_exec_is_null engine =
  let db = mk_db engine in
  let q =
    Sql.Select
      {
        proj = [ Sql.col "p" "id" ];
        from = [ { Sql.table = "parent"; as_alias = "p" } ];
        where = [ Sql.Is_null (Sql.col "p" "pid") ];
      }
  in
  Alcotest.(check (list int)) "roots" [ 1; 2 ] (Executor.query_ids db q);
  let q' =
    Sql.Select
      {
        proj = [ Sql.col "c" "id" ];
        from = [ { Sql.table = "child"; as_alias = "c" } ];
        where = [ Sql.Not_null (Sql.col "c" "pid") ];
      }
  in
  Alcotest.(check int) "not null" 3 (List.length (Executor.query_ids db q'))

let test_exec_update_stmt engine =
  let db = mk_db engine in
  let n =
    Executor.run_stmt db
      (Sql.Update
         {
           table = "child";
           set = [ ("s", Value.Str "+") ];
           where =
             [ Sql.eq (Sql.Col (Sql.col "child" "id")) (Sql.Const (Value.Int 11)) ];
         })
  in
  Alcotest.(check int) "one row" 1 n;
  let q =
    select_child_ids
      ~where:
        [ Sql.Cmp
            { lhs = Sql.Col (Sql.col "c" "s"); op = Value.Eq;
              rhs = Sql.Const (Value.Str "+") } ]
      ()
  in
  Alcotest.(check (list int)) "annotated" [ 11 ] (Executor.query_ids db q)

let test_exec_delete_stmt engine =
  let db = mk_db engine in
  let n =
    Executor.run_stmt db
      (Sql.Delete
         {
           table = "child";
           where =
             [ Sql.Cmp
                 { lhs = Sql.Col (Sql.col "child" "v"); op = Value.Eq;
                   rhs = Sql.Const (Value.Str "x") } ];
         })
  in
  Alcotest.(check int) "two rows" 2 n;
  Alcotest.(check (list int)) "left" [ 11 ]
    (Executor.query_ids db (select_child_ids ()))

let test_exec_cross_engine_agreement () =
  (* Same statements, same answers, regardless of storage engine. *)
  let run engine =
    let db = mk_db engine in
    ( Executor.query_ids db join_query,
      Executor.query_ids db (Sql.Except (select_child_ids (), join_query)) )
  in
  Alcotest.(check bool) "row = column" true (run Table.Row = run Table.Column)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  let tce name f = Alcotest.test_case name `Quick (both_engines f) in
  Alcotest.run ~and_exit:false "reldb"
    [
      ( "value",
        [
          tc "compare order" test_value_compare_order;
          tc "null comparisons" test_value_cmp_null;
          tc "numeric strings" test_value_cmp_numeric_strings;
          tc "literals" test_value_literal;
        ] );
      ( "schema",
        [
          tc "requires id" test_schema_requires_id;
          tc "rejects duplicates" test_schema_rejects_duplicates;
          tc "column index" test_schema_column_index;
          tc "ddl" test_schema_ddl;
        ] );
      ( "table",
        [
          tce "insert/get" test_table_insert_get;
          tce "pid index" test_table_pid_index;
          tce "update" test_table_update;
          tce "id immutable" test_table_update_id_rejected;
          tce "delete/tombstones" test_table_delete;
          tce "duplicate id" test_table_duplicate_id;
          tce "arity" test_table_arity;
        ] );
      ( "sql",
        [
          tc "select rendering (paper Q1)" test_sql_select_render;
          tc "set ops rendering" test_sql_set_ops_render;
          tc "stmt rendering" test_sql_stmt_render;
          tc "is null rendering" test_sql_is_null_render;
          tc "script round trip" test_script_round_trip;
          tc "script rejects" test_script_rejects;
        ] );
      ( "executor",
        [
          tce "scan" test_exec_scan;
          tce "filter" test_exec_filter;
          tce "index join" test_exec_join;
          tce "set operations" test_exec_set_ops;
          tce "is null" test_exec_is_null;
          tce "update statement" test_exec_update_stmt;
          tce "delete statement" test_exec_delete_stmt;
          tc "cross-engine agreement" test_exec_cross_engine_agreement;
        ] );
    ]

(* ------------------------------------------------------------------ *)
(* Existential blocks and WAL — appended suites. *)

module Wal = Xmlac_reldb.Wal

(* A qualifier-join next to a spine-join: the classic duplication
   shape. FROM parent p, child c1 (qualifier), child c2 (spine):
   result ids must be each child of a parent that has some "x" child,
   once each. *)
let exists_block_query =
  Sql.Select
    {
      proj = [ Sql.col "c2" "id" ];
      from =
        [ { Sql.table = "parent"; as_alias = "p" };
          { Sql.table = "child"; as_alias = "c1" };
          { Sql.table = "child"; as_alias = "c2" } ];
      where =
        [ Sql.eq (Sql.Col (Sql.col "c1" "pid")) (Sql.Col (Sql.col "p" "id"));
          Sql.Cmp
            { lhs = Sql.Col (Sql.col "c1" "v"); op = Value.Eq;
              rhs = Sql.Const (Value.Str "x") };
          Sql.eq (Sql.Col (Sql.col "c2" "pid")) (Sql.Col (Sql.col "p" "id")) ];
    }

let test_exists_block engine =
  let db = mk_db engine in
  (* Both parents have an "x" child, so every child qualifies. *)
  Alcotest.(check (list int)) "all children, no duplicates" [ 10; 11; 12 ]
    (Executor.query_ids db exists_block_query)

let test_exists_block_selective engine =
  let db = mk_db engine in
  (* Remove parent 2's only "x" child: its children must disappear. *)
  let _ =
    Executor.run_stmt db
      (Sql.Delete
         {
           table = "child";
           where =
             [ Sql.eq (Sql.Col (Sql.col "child" "id")) (Sql.Const (Value.Int 12)) ];
         })
  in
  Alcotest.(check (list int)) "only parent 1's children" [ 10; 11 ]
    (Executor.query_ids db exists_block_query)

(* Chained qualifier joins (c1 referenced by a deeper qualifier join)
   form one block and must not multiply results. *)
let test_exists_block_chained engine =
  let db = Db.create engine in
  let a = Db.create_table db (Schema.table "a" [ ("id", Schema.TInt); ("pid", Schema.TInt) ]) in
  let b = Db.create_table db (Schema.table "b" [ ("id", Schema.TInt); ("pid", Schema.TInt) ]) in
  let c = Db.create_table db (Schema.table "c" [ ("id", Schema.TInt); ("pid", Schema.TInt) ]) in
  Table.insert a [| Value.Int 1; Value.Null |];
  for i = 10 to 19 do
    Table.insert b [| Value.Int i; Value.Int 1 |];
    Table.insert c [| Value.Int (i + 100); Value.Int i |]
  done;
  (* SELECT a.id FROM a, b, c WHERE b.pid = a.id AND c.pid = b.id:
     b and c form a qualifier block; a appears once. *)
  let q =
    Sql.Select
      {
        proj = [ Sql.col "a" "id" ];
        from =
          [ { Sql.table = "a"; as_alias = "a" };
            { Sql.table = "b"; as_alias = "b" };
            { Sql.table = "c"; as_alias = "c" } ];
        where =
          [ Sql.eq (Sql.Col (Sql.col "b" "pid")) (Sql.Col (Sql.col "a" "id"));
            Sql.eq (Sql.Col (Sql.col "c" "pid")) (Sql.Col (Sql.col "b" "id")) ];
      }
  in
  let rows = Executor.run_query db q in
  Alcotest.(check int) "one witness row" 1 (List.length rows)

let test_wal_counters () =
  let wal = Wal.create () in
  Wal.log wal "hello";
  Wal.log wal "world!";
  Alcotest.(check int) "records" 2 (Wal.records wal);
  Alcotest.(check int) "bytes" 11 (Wal.bytes_logged wal);
  let sum = Wal.checksum wal in
  Wal.log wal "more";
  Alcotest.(check bool) "checksum evolves" true (Wal.checksum wal <> sum)

let test_wal_order_sensitive () =
  let a = Wal.create () and b = Wal.create () in
  Wal.log a "x"; Wal.log a "y";
  Wal.log b "y"; Wal.log b "x";
  Alcotest.(check bool) "order matters" true (Wal.checksum a <> Wal.checksum b)

let test_wal_journaling_row_vs_column () =
  (* A row-engine database journals one record per INSERT; a
     column-engine database journals one per column value. *)
  let journaled engine =
    let db = mk_db engine in
    let wal = Wal.create () in
    Db.set_wal db (Some wal);
    let _ =
      Executor.run_stmt db
        (Sql.Insert
           { table = "child";
             values = [ Value.Int 99; Value.Int 1; Value.Str "z"; Value.Str "-" ] })
    in
    Wal.records wal
  in
  Alcotest.(check int) "row: 1 record" 1 (journaled Table.Row);
  Alcotest.(check int) "column: 4 records" 4 (journaled Table.Column)

let test_wal_update_journaled () =
  let db = mk_db Table.Row in
  let wal = Wal.create () in
  Db.set_wal db (Some wal);
  let _ =
    Executor.run_stmt db
      (Sql.Update { table = "child"; set = [ ("s", Value.Str "+") ]; where = [] })
  in
  Alcotest.(check int) "update journaled" 1 (Wal.records wal)

let test_wal_checksum_catches_loss_and_reorder () =
  (* Two logs that saw the same multiset of records but in different
     orders, or one missing a record, disagree on the checksum — the
     cross-check the engine uses to detect lost/reordered journaling. *)
  let play records =
    let w = Wal.create () in
    List.iter (Wal.log w) records;
    (Wal.checksum w, Wal.records w)
  in
  let full, nfull = play [ "alpha"; "beta"; "gamma" ] in
  let reordered, nre = play [ "beta"; "alpha"; "gamma" ] in
  let lost, _ = play [ "alpha"; "gamma" ] in
  Alcotest.(check int) "same count" nfull nre;
  Alcotest.(check bool) "reorder detected" true (full <> reordered);
  Alcotest.(check bool) "loss detected" true (full <> lost)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  let tce name f = Alcotest.test_case name `Quick (both_engines f) in
  Alcotest.run "reldb-extra"
    [
      ( "existential blocks",
        [
          tce "semijoin dedup" test_exists_block;
          tce "selective" test_exists_block_selective;
          tce "chained qualifier block" test_exists_block_chained;
        ] );
      ( "wal",
        [
          tc "counters" test_wal_counters;
          tc "order sensitive" test_wal_order_sensitive;
          tc "row vs column journaling" test_wal_journaling_row_vs_column;
          tc "updates journaled" test_wal_update_journaled;
          tc "checksum catches loss and reorder"
            test_wal_checksum_catches_loss_and_reorder;
        ] );
    ]
