module Tree = Xmlac_xml.Tree
module Db = Xmlac_reldb.Database
module Table = Xmlac_reldb.Table
module Value = Xmlac_reldb.Value
module Sql = Xmlac_reldb.Sql
module Executor = Xmlac_reldb.Executor
module Shred = Xmlac_shrex.Shred
module Translate = Xmlac_shrex.Translate

module Bitset = Xmlac_util.Bitset

let sign_value s = Value.Str (Tree.sign_to_string s)

(* Figure 6 resolves the table of every tuple in the annotation
   query's answer ("we iterate over all tables ... computes the
   intersection") and then issues per-tuple UPDATE statements.  We
   implement the table resolution with primary-index probes — one
   lookup per table per id, worst case — which matches the paper's
   intent while keeping the cost proportional to the id set rather
   than to the database size (essential for partial re-annotation). *)
let set_sign_ids mapping db ids sign =
  let updated = ref 0 in
  List.iter
    (fun id ->
      match Shred.node_table mapping db id with
      | None -> ()
      | Some table ->
          let name = Table.name table in
          let n =
            Executor.run_stmt db
              (Sql.Update
                 {
                   table = name;
                   set = [ ("s", sign_value sign) ];
                   where =
                     [ Sql.eq
                         (Sql.Col (Sql.col name "id"))
                         (Sql.Const (Value.Int id)) ];
                 })
          in
          updated := !updated + n)
    ids;
  !updated

(* Bitmap writes go through the executor like every other UPDATE, so
   the statement WAL (when attached) captures them for free — the
   printable wire form of [Bitset.to_string] embeds in a string
   literal unescaped. *)
let write_bits db table id bits =
  let name = Table.name table in
  Executor.run_stmt db
    (Sql.Update
       {
         table = name;
         set = [ ("b", Value.Str (Bitset.to_string bits)) ];
         where =
           [ Sql.eq (Sql.Col (Sql.col name "id")) (Sql.Const (Value.Int id)) ];
       })

let read_bits table id =
  match Table.find_by_id table id with
  | None -> None
  | Some row -> (
      let column = Xmlac_reldb.Schema.column_index (Table.schema table) "b" in
      match Table.get table ~row ~column with
      | Value.Str s -> Some (Bitset.of_string s)
      | _ -> None)

let make mapping db : Backend.t =
  let engine = Db.engine db in
  let eval_plan p = Executor.query_ids db (Plan.to_sql mapping p) in
  let sign_of id =
    match Shred.node_table mapping db id with
    | None -> None
    | Some table -> (
        match Table.find_by_id table id with
        | None -> None
        | Some row -> (
            let column =
              Xmlac_reldb.Schema.column_index (Table.schema table) "s"
            in
            match Table.get table ~row ~column with
            | Value.Str s -> Tree.sign_of_string s
            | _ -> None))
  in
  let bits_of id =
    match Shred.node_table mapping db id with
    | None -> None
    | Some table -> read_bits table id
  in
  let live_ids () =
    List.sort Stdlib.compare (List.concat_map Table.ids (Db.tables db))
  in
  {
    Backend.name = Table.engine_to_string engine ^ "-sql";
    eval_ids = (fun e -> Translate.eval_ids mapping db e);
    eval_plan;
    eval_plans = (fun ps -> List.map eval_plan ps);
    set_sign_ids = (fun ids sign -> set_sign_ids mapping db ids sign);
    reset_signs =
      (fun ~default ->
        let v = sign_value default in
        List.iter
          (fun table ->
            ignore
              (Executor.run_stmt db
                 (Sql.Update
                    { table = Table.name table; set = [ ("s", v) ]; where = [] })))
          (Db.tables db));
    sign_of;
    set_bits_batch =
      (fun edits ~default ->
        (* The batched stamp: one row read and one serialized UPDATE
           per touched node, however many roles the epoch flips on
           it. *)
        let applied = ref 0 in
        List.iter
          (fun (id, role_edits) ->
            if role_edits <> [] then
              match Shred.node_table mapping db id with
              | None -> ()
              | Some table ->
                  let base =
                    match read_bits table id with
                    | Some b -> b
                    | None -> default
                  in
                  let bits =
                    List.fold_left
                      (fun b (role, value) ->
                        if value then Bitset.add role b
                        else Bitset.remove role b)
                      base role_edits
                  in
                  let rows = write_bits db table id bits in
                  applied := !applied + (rows * List.length role_edits))
          edits;
        !applied);
    reset_bits =
      (fun ~default ->
        let v = Value.Str (Bitset.to_string default) in
        List.iter
          (fun table ->
            ignore
              (Executor.run_stmt db
                 (Sql.Update
                    { table = Table.name table; set = [ ("b", v) ]; where = [] })))
          (Db.tables db));
    bits_of;
    delete_update =
      (fun e ->
        let ids = Translate.eval_ids mapping db e in
        ignore (Shred.delete_subtrees mapping db ids);
        List.length ids);
    has_node = (fun id -> Shred.node_table mapping db id <> None);
    live_ids;
    node_count = (fun () -> Db.total_tuples db);
  }

let load mapping policy engine doc =
  let db = Db.create engine in
  ignore
    (Shred.load mapping
       ~default_sign:(Rule.effect_to_string (Policy.ds policy))
       ~default_bits:(Policy.default_bits policy) db doc);
  (db, make mapping db)
