module Tree = Xmlac_xml.Tree

type t = {
  default : Tree.sign;
  read : Tree.node -> Tree.sign option;
      (** The annotation this map indexes — the node's sign slot for the
          classic single-subject map, one role's bitmap slice for a
          per-role map. *)
  mutable map : Bytes.t;
      (** Sign-change points only, one byte per node id: [none] where
          there is no entry; ids past the end have none. *)
  mutable entries : int;
  mutable node_count : int;
}

let none = '\000'
let code = function Tree.Plus -> '+' | Tree.Minus -> '-'

let find t id =
  if id >= Bytes.length t.map then None
  else
    match Bytes.get t.map id with
    | '+' -> Some Tree.Plus
    | '-' -> Some Tree.Minus
    | _ -> None

(* Sets the byte at [id], growing the map by doubling and keeping
   [entries] current. *)
let store t id c =
  let len = Bytes.length t.map in
  if id >= len && c <> none then begin
    let m = Bytes.make (max (id + 1) (2 * len)) none in
    Bytes.blit t.map 0 m 0 len;
    t.map <- m
  end;
  if id < Bytes.length t.map then begin
    let old = Bytes.get t.map id in
    if (old = none) <> (c = none) then
      t.entries <- (if c = none then t.entries - 1 else t.entries + 1);
    Bytes.set t.map id c
  end

let effective t (n : Tree.node) =
  match t.read n with Some s -> s | None -> t.default

(* Set or clear the entry at [n] given its parent's effective sign:
   an entry exists exactly where the effective sign flips. *)
let refresh_entry t inherited (n : Tree.node) =
  let eff = effective t n in
  store t n.Tree.id (if eff <> inherited then code eff else none)

(* Resolved through the document index: a COW node's raw [parent]
   pointer can reference a displaced record whose annotation slots are
   stale, and [effective] reads those slots. *)
let parent_effective t doc (n : Tree.node) =
  match Tree.parent_live doc n with
  | Some p -> effective t p
  | None -> t.default

let sign_slot (n : Tree.node) = n.Tree.sign

let build_with doc ~default ~read =
  let t =
    { default; read; map = Bytes.make (Tree.size doc) none; entries = 0;
      node_count = Tree.size doc }
  in
  (* Preorder walk carrying the parent's effective sign: record an
     entry exactly where the effective sign flips.  Effective follows
     the store's model — the node's explicit annotation, or the
     default. *)
  let rec go inherited (n : Tree.node) =
    let eff = effective t n in
    if eff <> inherited then store t n.Tree.id (code eff);
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

let lookup t (n : Tree.node) =
  Xmlac_util.Deadline.checkpoint ();
  let rec up (m : Tree.node) =
    match find t m.Tree.id with
    | Some s -> s
    | None -> (
        match Tree.parent m with Some p -> up p | None -> t.default)
  in
  up n

let default t = t.default
let entries t = t.entries
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
      | None -> store t id none  (* deleted *)
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
  let dead = ref 0 in
  Bytes.iteri
    (fun id c ->
      if c <> none && Tree.find doc id = None then begin
        store t id none;
        incr dead
      end)
    t.map;
  t.node_count <- Tree.size doc;
  !dead

let equal a b =
  let rec same id =
    id >= max (Bytes.length a.map) (Bytes.length b.map)
    || (find a id = find b id && same (id + 1))
  in
  a.default = b.default && same 0

let pp ppf t =
  Format.fprintf ppf "cam: %d entr%s over %d nodes (ratio %.3f, default %s)"
    (entries t)
    (if entries t = 1 then "y" else "ies")
    t.node_count (compression_ratio t)
    (Tree.sign_to_string t.default)
