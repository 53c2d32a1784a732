module Tree = Xmlac_xml.Tree
module Fault = Xmlac_util.Fault
module Bitset = Xmlac_util.Bitset

type t = {
  name : string;
  eval_ids : Xmlac_xpath.Ast.expr -> int list;
  eval_plan : Plan.t -> int list;
  eval_plans : Plan.t list -> int list list;
  set_sign_ids : int list -> Tree.sign -> int;
  reset_signs : default:Tree.sign -> unit;
  sign_of : int -> Tree.sign option;
  restore_sign : int -> Tree.sign option -> unit;
  set_bits_ids : int list -> role:int -> value:bool -> default:Bitset.t -> int;
  set_bits_batch : (int * (int * bool) list) list -> default:Bitset.t -> int;
  reset_bits : default:Bitset.t -> unit;
  bits_of : int -> Bitset.t option;
  restore_bits : int -> Bitset.t option -> unit;
  delete_update : Xmlac_xpath.Ast.expr -> int;
  has_node : int -> bool;
  live_ids : unit -> int list;
  iter_live : (int -> Tree.sign option -> Bitset.t option -> unit) -> unit;
  node_count : unit -> int;
}

let effective_sign t ~default id =
  match t.sign_of id with Some s -> s | None -> default

let accessible_ids t ~default =
  List.filter (fun id -> effective_sign t ~default id = Tree.Plus) (t.live_ids ())

let effective_bits t ~default id =
  match t.bits_of id with Some b -> b | None -> default

let accessible_ids_role t ~default ~role =
  List.filter
    (fun id -> Bitset.mem role (effective_bits t ~default id))
    (t.live_ids ())

(* Fault wrapper: sign and bitmap stamping loop node by node with a
   fault point between writes, so a counted trigger kills the simulated
   process with a genuinely partial multi-row update — the paper's
   inconsistent-materialization hazard made reproducible. *)
let with_faults ~prefix b =
  let pt op = Fault.point (prefix ^ "." ^ op) in
  {
    b with
    eval_ids =
      (fun e ->
        (* The read path's injection site: requests and the
           reannotator's scope evaluations cross it, so transient
           triggers can fail a query without touching any state. *)
        pt "eval";
        b.eval_ids e);
    eval_plans =
      (fun ps ->
        (* One crossing per plan, then one batch, so the wrapped
           store keeps its shared evaluation. *)
        List.iter (fun _ -> pt "eval") ps;
        b.eval_plans ps);
    set_sign_ids =
      (fun ids sign ->
        List.fold_left
          (fun acc id ->
            pt "set_sign";
            acc + b.set_sign_ids [ id ] sign)
          0 ids);
    reset_signs =
      (fun ~default ->
        pt "reset_signs";
        b.reset_signs ~default);
    set_bits_ids =
      (fun ids ~role ~value ~default ->
        List.fold_left
          (fun acc id ->
            pt "set_bits";
            acc + b.set_bits_ids [ id ] ~role ~value ~default)
          0 ids);
    set_bits_batch =
      (fun edits ~default ->
        (* One crossing per node, not per (node, role): the batch's
           whole point is one serialization per touched node, and the
           fault granularity follows the write granularity. *)
        List.fold_left
          (fun acc edit ->
            pt "set_bits";
            acc + b.set_bits_batch [ edit ] ~default)
          0 edits);
    reset_bits =
      (fun ~default ->
        pt "reset_bits";
        b.reset_bits ~default);
    delete_update =
      (fun e ->
        pt "delete";
        b.delete_update e);
  }

(* The two annotation representations journal separately: a sign epoch
   only touches signs, a multi-role epoch only bitmaps, and rollback
   must restore exactly what the epoch overwrote. *)
type entry = Sign of int * Tree.sign option | Bits of int * Bitset.t option

type journal = {
  mutable active : bool;
  mutable entries : entry list; (* newest first *)
  mutable restore : (int -> Tree.sign option -> unit) option;
  mutable restore_bits : (int -> Bitset.t option -> unit) option;
}

let journal () =
  { active = false; entries = []; restore = None; restore_bits = None }

let journal_begin j =
  j.active <- true;
  j.entries <- []

let journal_stop j =
  j.active <- false;
  j.entries <- []

let journal_entries j = List.length j.entries

let journaled j b =
  j.restore <- Some b.restore_sign;
  j.restore_bits <- Some b.restore_bits;
  let record id =
    if j.active && b.has_node id then
      j.entries <- Sign (id, b.sign_of id) :: j.entries
  in
  let record_bits id =
    if j.active && b.has_node id then
      j.entries <- Bits (id, b.bits_of id) :: j.entries
  in
  {
    b with
    set_sign_ids =
      (fun ids sign ->
        List.fold_left
          (fun acc id ->
            record id;
            acc + b.set_sign_ids [ id ] sign)
          0 ids);
    reset_signs =
      (fun ~default ->
        if j.active then List.iter record (b.live_ids ());
        b.reset_signs ~default);
    set_bits_ids =
      (fun ids ~role ~value ~default ->
        List.fold_left
          (fun acc id ->
            record_bits id;
            acc + b.set_bits_ids [ id ] ~role ~value ~default)
          0 ids);
    set_bits_batch =
      (fun edits ~default ->
        (* One pre-image per touched node covers every role edit the
           batch applies to it. *)
        List.fold_left
          (fun acc ((id, _) as edit) ->
            record_bits id;
            acc + b.set_bits_batch [ edit ] ~default)
          0 edits);
    reset_bits =
      (fun ~default ->
        if j.active then List.iter record_bits (b.live_ids ());
        b.reset_bits ~default);
  }

let rollback j =
  let restore_entry e =
    match (e, j.restore, j.restore_bits) with
    | Sign (id, s), Some restore, _ -> restore id s
    | Bits (id, b), _, Some restore -> restore id b
    | _ -> ()
  in
  match (j.restore, j.restore_bits) with
  | None, None ->
      journal_stop j;
      0
  | _ ->
      let n = List.length j.entries in
      (* Newest first: an id journaled twice is finally restored to its
         oldest (pre-epoch) value. *)
      List.iter restore_entry j.entries;
      journal_stop j;
      n
