module Tree = Xmlac_xml.Tree
module Imap = Map.Make (Int)

type t = {
  default : Tree.sign;
  read : Tree.node -> Tree.sign option;
      (** The annotation this map indexes — the node's sign slot for the
          classic single-subject map, one role's bitmap slice for a
          per-role map. *)
  mutable map : Tree.sign Imap.t;  (** Sign-change points only. *)
  mutable node_count : int;
}

let effective t (n : Tree.node) =
  match t.read n with Some s -> s | None -> t.default

(* Set or clear the entry at [n] given its parent's effective sign:
   an entry exists exactly where the effective sign flips. *)
let refresh_entry t inherited (n : Tree.node) =
  let eff = effective t n in
  if eff <> inherited then t.map <- Imap.add n.Tree.id eff t.map
  else t.map <- Imap.remove n.Tree.id t.map

(* Resolved through the document index: a COW node's raw [parent]
   pointer can reference a displaced record whose annotation slots are
   stale, and [effective] reads those slots. *)
let parent_effective t doc (n : Tree.node) =
  match Tree.parent_live doc n with
  | Some p -> effective t p
  | None -> t.default

let sign_slot (n : Tree.node) = n.Tree.sign

let build_with doc ~default ~read =
  let t = { default; read; map = Imap.empty; node_count = Tree.size doc } in
  (* Preorder walk carrying the parent's effective sign: record an
     entry exactly where the effective sign flips.  Effective follows
     the store's model — the node's explicit annotation, or the
     default. *)
  let rec go inherited (n : Tree.node) =
    let eff = effective t n in
    if eff <> inherited then t.map <- Imap.add n.Tree.id eff t.map;
    List.iter (go eff) n.Tree.children
  in
  go default (Tree.root doc);
  t

let build doc ~default = build_with doc ~default ~read:sign_slot

(* One role's view of the bitmap slots: a node with a materialized
   bitmap is explicitly Plus/Minus on the role's bit; an unannotated
   node inherits the role's default like an unsigned node does. *)
let build_role doc ~role ~default =
  build_with doc ~default ~read:(fun n ->
      match n.Tree.bits with
      | None -> None
      | Some b ->
          Some (if Xmlac_util.Bitset.mem role b then Tree.Plus else Tree.Minus))

(* Entries are keyed by node id and [lookup] walks the parent chain of
   the node it is handed — so a frozen copy answers for any tree whose
   ids and parent chains match the one it was built from, in
   particular the COW view a snapshot captures.  The entry map is a
   persistent [Map], so freezing shares it by reference in O(1);
   maintenance on either side rebinds its own [map] field and never
   disturbs the other. *)
let freeze t =
  { default = t.default; read = t.read; map = t.map;
    node_count = t.node_count }

let lookup t (n : Tree.node) =
  Xmlac_util.Deadline.checkpoint ();
  let rec up (m : Tree.node) =
    match Imap.find_opt m.Tree.id t.map with
    | Some s -> s
    | None -> (
        match Tree.parent m with Some p -> up p | None -> t.default)
  in
  up n

(* The same walk over positions of another encoding of the document:
   [id] names the node at a position, [parent] steps up (negative past
   the root). *)
let lookup_at t ~id ~parent pos =
  Xmlac_util.Deadline.checkpoint ();
  let rec up p =
    if p < 0 then t.default
    else
      match Imap.find_opt (id p) t.map with
      | Some s -> s
      | None -> up (parent p)
  in
  up pos

let default t = t.default
let entries t = Imap.cardinal t.map
let node_count t = t.node_count

let compression_ratio t =
  if t.node_count = 0 then 0.0
  else float_of_int (entries t) /. float_of_int t.node_count

(* A sign write at [n] changes eff(n) only, and an entry at [m] depends
   only on eff(m) vs eff(parent m) — so the write moves change points
   at [n] and at [n]'s children, nowhere else.  Children of a current
   record are current records, so their inherited sign is eff(n)
   directly; only the entry node's own parent needs index
   resolution. *)
let apply_changes t doc ~changed =
  let touched = Hashtbl.create 16 in
  let refresh inherited (n : Tree.node) =
    if not (Hashtbl.mem touched n.Tree.id) then begin
      Hashtbl.replace touched n.Tree.id ();
      refresh_entry t inherited n
    end
  in
  List.iter
    (fun id ->
      match Tree.find doc id with
      | None -> t.map <- Imap.remove id t.map  (* deleted *)
      | Some n ->
          refresh (parent_effective t doc n) n;
          List.iter (refresh (effective t n)) n.Tree.children)
    changed;
  t.node_count <- Tree.size doc;
  Hashtbl.length touched

let rebuild_subtree t doc ~root =
  match Tree.find doc root with
  | None -> 0
  | Some r ->
      let count = ref 0 in
      let rec go inherited (n : Tree.node) =
        incr count;
        refresh_entry t inherited n;
        List.iter (go (effective t n)) n.Tree.children
      in
      go (parent_effective t doc r) r;
      t.node_count <- Tree.size doc;
      !count

let purge t doc =
  let dead =
    Imap.fold
      (fun id _ acc ->
        match Tree.find doc id with None -> id :: acc | Some _ -> acc)
      t.map []
  in
  List.iter (fun id -> t.map <- Imap.remove id t.map) dead;
  t.node_count <- Tree.size doc;
  List.length dead

let equal a b =
  a.default = b.default && Imap.equal (fun (x : Tree.sign) y -> x = y) a.map b.map

let pp ppf t =
  Format.fprintf ppf "cam: %d entr%s over %d nodes (ratio %.3f, default %s)"
    (entries t)
    (if entries t = 1 then "y" else "ies")
    t.node_count (compression_ratio t)
    (Tree.sign_to_string t.default)
