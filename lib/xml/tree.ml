type sign = Plus | Minus

let sign_to_string = function Plus -> "+" | Minus -> "-"

let sign_of_string = function
  | "+" -> Some Plus
  | "-" -> Some Minus
  | _ -> None

module Bitset = Xmlac_util.Bitset
module Imap = Map.Make (Int)

(* Copy-on-write generations.  A record carries the generation that
   created it ([gen]); the tree carries the generation currently being
   written.  A record born in the current generation is private — no
   frozen view can reference it — and is mutated in place, exactly as
   the pre-COW tree did; a record born earlier is shared with frozen
   views and must be path-copied ([privatize]) before the first write
   of the generation touches it.  A tree that is never frozen stays in
   generation 0 forever and every mutation takes the in-place path. *)

type node = {
  id : int;
  mutable name : string;
  mutable value : string option;
  mutable parent : node option;
  mutable children : node list;
  mutable sign : sign option;
  mutable bits : Bitset.t option;
  mutable gen : int;
  fam : int;
}

(* Per-generation write accounting, reset at every freeze: the ids
   written (the epoch's change set — a path copy alone writes nothing)
   and the coarse change-kind flag downstream carry decisions key
   on. *)
type delta = {
  mutable changed : unit Imap.t;
  mutable structural : bool;
}

type freeze_stats = {
  frozen_gen : int;
  changed : int list;
  structural : bool;
}

type t = {
  mutable next_id : int;
  mutable index : node Imap.t;
  mutable root_node : node;
  mutable node_count : int;
  mutable gen : int;
  mutable frozen_view : bool;
  fam : int;
  mutable shape : int;
  mutable shapes : int;  (* high-water mark of [shape] *)
  mutable delta : delta;
  mutable base : t option;  (* the last freeze's view, on a live tree *)
}

let family_counter = ref 0

let new_family () =
  incr family_counter;
  !family_counter

let empty_delta () =
  {
    changed = Imap.empty;
    structural = false;
  }

let touch t id = t.delta.changed <- Imap.add id () t.delta.changed

(* The four writes that can move an answer set (add, value, delete,
   graft) mark the delta structural and move [shape] to a value the
   tree has never had: [abort] sets [shape] back, and an index built
   on discarded writes must never describe the tree again. *)
let restructured t =
  t.delta.structural <- true;
  t.shapes <- t.shapes + 1;
  t.shape <- t.shapes

let check_live name t =
  if t.frozen_view then invalid_arg (name ^ ": tree is a frozen snapshot view")

let fresh_node t ~name ~value ~parent =
  let id = t.next_id in
  t.next_id <- id + 1;
  let n =
    { id; name; value; parent; children = []; sign = None; bits = None;
      gen = t.gen; fam = t.fam }
  in
  t.index <- Imap.add id n t.index;
  t.node_count <- t.node_count + 1;
  touch t id;
  n

(* The root a document holds until its own is made. *)
let placeholder =
  { id = -1; name = ""; value = None; parent = None; children = []; sign = None;
    bits = None; gen = 0; fam = 0 }

let create ~root_name =
  let t =
    { next_id = 0; index = Imap.empty; root_node = placeholder; node_count = 0;
      gen = 0; frozen_view = false; fam = new_family (); shape = 0;
      shapes = 0; delta = empty_delta (); base = None }
  in
  let root = fresh_node t ~name:root_name ~value:None ~parent:None in
  t.root_node <- root;
  t

let root t = t.root_node
let generation t = t.gen
let frozen t = t.frozen_view
let family t = t.fam
let shape t = t.shape

let mem t (n : node) = n.fam = t.fam && Imap.mem n.id t.index

(* A held node reference can be a displaced record — a pre-privatize
   copy from an older generation — so every entry point resolves to
   the node's current record by id before acting. *)
let resolve name t (n : node) =
  if n.fam <> t.fam then invalid_arg name;
  match Imap.find_opt n.id t.index with
  | Some c -> c
  | None -> invalid_arg name

(* Path-copy: make the node's current record private to the current
   generation.  The parent chain is privatized first (resolved by id —
   a shared record's parent pointer can itself be displaced), then the
   current parent's child slot is repointed.  Children are left shared;
   they are privatized if and when something writes them. *)
let rec privatize t (n : node) =
  if n.gen = t.gen then n
  else begin
    let parent' =
      match n.parent with
      | None -> None
      | Some p -> (
          match Imap.find_opt p.id t.index with
          | Some pc -> Some (privatize t pc)
          | None -> assert false)
    in
    let fresh = { n with gen = t.gen; parent = parent' } in
    (match parent' with
    | Some p ->
        p.children <-
          List.map (fun c -> if c.id = n.id then fresh else c) p.children
    | None -> t.root_node <- fresh);
    t.index <- Imap.add n.id fresh t.index;
    fresh
  end

let add_child t parent ?value name =
  check_live "Tree.add_child" t;
  let parent = resolve "Tree.add_child: foreign parent" t parent in
  if parent.value <> None then
    invalid_arg "Tree.add_child: parent holds a text value";
  let parent = privatize t parent in
  let n = fresh_node t ~name ~value ~parent:(Some parent) in
  parent.children <- parent.children @ [ n ];
  restructured t;
  n

let set_value t node v =
  check_live "Tree.set_value" t;
  let node = resolve "Tree.set_value: foreign node" t node in
  if node.children <> [] then
    invalid_arg "Tree.set_value: node has element children";
  if node.value <> v then begin
    let node = privatize t node in
    node.value <- v;
    (* Values feed query predicates, so a value write invalidates
       structure-derived carry the same way an insert does. *)
    restructured t;
    touch t node.id
  end

(* One closure per walk: [List.iter (iter_subtree f)] would allocate
   one per node. *)
let iter_subtree f n =
  let rec go n =
    f n;
    List.iter go n.children
  in
  go n

let delete t node =
  check_live "Tree.delete" t;
  let node = resolve "Tree.delete: foreign node" t node in
  match node.parent with
  | None -> invalid_arg "Tree.delete: cannot delete the root"
  | Some p ->
      let p =
        match Imap.find_opt p.id t.index with
        | Some pc -> privatize t pc
        | None -> assert false
      in
      p.children <- List.filter (fun c -> c.id <> node.id) p.children;
      iter_subtree
        (fun n ->
          t.index <- Imap.remove n.id t.index;
          t.node_count <- t.node_count - 1;
          touch t n.id)
        node;
      restructured t;
      (* Only a private record may be detached in place; a shared one
         is still the spine of older frozen views. *)
      if node.gen = t.gen then node.parent <- None

(* A graft starts unannotated: whatever signs or bitmaps the fragment
   carries belong to another document, and the repair that follows
   stamps only the nodes some triggered scope reaches. *)
let rec copy_into t parent src =
  let n = fresh_node t ~name:src.name ~value:src.value ~parent:(Some parent) in
  parent.children <- parent.children @ [ n ];
  List.iter (fun c -> ignore (copy_into t n c)) src.children;
  n

let graft t parent fragment =
  check_live "Tree.graft" t;
  let parent = resolve "Tree.graft: foreign parent" t parent in
  if parent.value <> None then
    invalid_arg "Tree.graft: parent holds a text value";
  let parent = privatize t parent in
  restructured t;
  copy_into t parent fragment.root_node

let find t id = Imap.find_opt id t.index

let size t = t.node_count

let parent n = n.parent
let children n = n.children

let parent_live t n =
  match n.parent with
  | None -> None
  | Some p -> Imap.find_opt p.id t.index

let descendants n =
  let acc = ref [] in
  let rec go m = List.iter (fun c -> acc := c :: !acc; go c) m.children in
  go n;
  List.rev !acc

let descendant_or_self n = n :: descendants n

(* Nearest ancestor first, root last. *)
let ancestors n =
  let rec go acc m =
    match m.parent with None -> List.rev acc | Some p -> go (p :: acc) p
  in
  go [] n

let depth n = List.length (ancestors n)

let label_path n =
  let rec go acc m =
    let acc = m.name :: acc in
    match m.parent with None -> acc | Some p -> go acc p
  in
  go [] n

let iter f t = iter_subtree f t.root_node
let iter_by_id f t = Imap.iter (fun _ n -> f n) t.index

let fold f acc t =
  let acc = ref acc in
  iter (fun n -> acc := f !acc n) t;
  !acc

let nodes t = descendant_or_self t.root_node

let count p t = fold (fun acc n -> if p n then acc + 1 else acc) 0 t

let set_sign t n s =
  check_live "Tree.set_sign" t;
  let n = resolve "Tree.set_sign: foreign node" t n in
  if n.sign <> s then begin
    let n = privatize t n in
    n.sign <- s;
    touch t n.id
  end

let set_bits t n b =
  check_live "Tree.set_bits" t;
  let n = resolve "Tree.set_bits: foreign node" t n in
  if not (Option.equal Bitset.equal n.bits b) then begin
    let n = privatize t n in
    n.bits <- b;
    touch t n.id
  end

(* Collect ids first, then write: privatization repoints child slots,
   so mutating while traversing the very lists being repointed is
   asking for trouble. *)
let clear_signs t =
  check_live "Tree.clear_signs" t;
  let ids = fold (fun acc n -> if n.sign <> None then n.id :: acc else acc) [] t in
  List.iter
    (fun id ->
      match Imap.find_opt id t.index with
      | Some n ->
          let n = privatize t n in
          n.sign <- None;
          touch t id
      | None -> ())
    ids

let clear_bits t =
  check_live "Tree.clear_bits" t;
  let ids = fold (fun acc n -> if n.bits <> None then n.id :: acc else acc) [] t in
  List.iter
    (fun id ->
      match Imap.find_opt id t.index with
      | Some n ->
          let n = privatize t n in
          n.bits <- None;
          touch t id
      | None -> ())
    ids

let signed t s =
  fold (fun acc n -> if n.sign = Some s then n :: acc else acc) [] t
  |> List.rev

let freeze t =
  if t.frozen_view then invalid_arg "Tree.freeze: already a frozen view";
  let d = t.delta in
  let stats =
    {
      frozen_gen = t.gen;
      changed = List.rev (Imap.fold (fun id () acc -> id :: acc) d.changed []);
      structural = d.structural;
    }
  in
  (* The view shares the index map (persistent), the record spine and
     the counters by value; the live tree moves to the next generation
     with a clean slate, so its next write to any shared record copies
     first. *)
  let view =
    { t with frozen_view = true; delta = empty_delta (); base = None }
  in
  t.gen <- t.gen + 1;
  t.delta <- empty_delta ();
  t.base <- Some view;
  (view, stats)

(* Copy-on-write never writes a record the last freeze shares, so its
   view is the exact image before every write since: taking back its
   index, root and counters discards them all.  The generation stays,
   so the next write path-copies from the view's records afresh. *)
let abort t =
  check_live "Tree.abort" t;
  match t.base with
  | None -> invalid_arg "Tree.abort: tree was never frozen"
  | Some v ->
      let discarded = Imap.cardinal t.delta.changed in
      t.next_id <- v.next_id;
      t.index <- v.index;
      t.root_node <- v.root_node;
      t.node_count <- v.node_count;
      t.shape <- v.shape;
      t.delta <- empty_delta ();
      discarded

let fold_changed f t acc =
  Imap.fold (fun id () acc -> f id acc) t.delta.changed acc

let copy t =
  let t' =
    { next_id = t.next_id; index = Imap.empty; root_node = placeholder;
      node_count = 0; gen = 0; frozen_view = false; fam = new_family ();
      shape = 0; shapes = 0; delta = empty_delta (); base = None }
  in
  let rec dup parent src =
    let n =
      { id = src.id; name = src.name; value = src.value; parent;
        children = []; sign = src.sign; bits = src.bits; gen = 0; fam = t'.fam }
    in
    t'.index <- Imap.add n.id n t'.index;
    t'.node_count <- t'.node_count + 1;
    n.children <- List.map (fun c -> dup (Some n) c) src.children;
    n
  in
  t'.root_node <- dup None t.root_node;
  t'

let rec equal_nodes ~signs a b =
  String.equal a.name b.name
  && a.value = b.value
  && (not signs
     || (a.sign = b.sign && Option.equal Bitset.equal a.bits b.bits))
  && List.length a.children = List.length b.children
  && List.for_all2 (equal_nodes ~signs) a.children b.children

let equal_structure a b = equal_nodes ~signs:false a.root_node b.root_node
let equal_annotated a b = equal_nodes ~signs:true a.root_node b.root_node

let pp ppf t =
  let rec go indent n =
    Format.fprintf ppf "%s%s#%d" indent n.name n.id;
    (match n.sign with
    | Some s -> Format.fprintf ppf " (%s)" (sign_to_string s)
    | None -> ());
    (match n.value with
    | Some v -> Format.fprintf ppf " = %S" v
    | None -> ());
    Format.pp_print_newline ppf ();
    List.iter (go (indent ^ "  ")) n.children
  in
  go "" t.root_node
