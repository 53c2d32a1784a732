open Ast
module Tree = Xmlac_xml.Tree

(* The pre/size encoding of a document (Grust's XPath accelerator, the
   MonetDB/XQuery layout the paper's native store stands in for).
   Nodes are numbered by preorder rank; the subtree of rank [r] is the
   rank interval (r, r + size r], so a node's descendants are one
   contiguous range and its children are found by size skips: the
   first child is [r + 1], the next sibling of [c] is [c + size c + 1].

   Node sets are ascending rank arrays.  A descendant step prunes its
   context to the outermost intervals (a nested context adds nothing
   its enclosing one does not) and merges the step's name postings
   against them, the staircase join; a wildcard takes whole ranges.  A
   child step walks each context's children.  Qualifiers search the
   postings inside the context's interval and stop at the first
   witness. *)

(* The arrays are storage with a capacity: the ranks [0, len) and, per
   interned name, the first [counts.(c)] slots of [postings.(c)] are
   the index; the rest is room a later {!patch} into this index may
   fill.  No two indexes share an array, so patching into one never
   moves another's answers. *)
type t = {
  mutable len : int;  (* nodes indexed *)
  mutable ids : int array;  (* rank -> node id *)
  mutable cells : int array;
      (* rank -> its number of proper descendants and its interned
         name, in one word: [size lsl name_bits lor name] *)
  mutable value : string option array;  (* rank -> leaf value *)
  mutable codes : (string, int) Hashtbl.t;
      (* name -> interned name; never written once an index holds it,
         so indexes of one lineage share it *)
  mutable postings : int array array;  (* interned name -> its ranks, ascending *)
  mutable counts : int array;  (* interned name -> its number of ranks *)
  mutable flags : Bytes.t;  (* a patch's scratch: a byte per changed id *)
  mutable top : int;
      (* An id no smaller than any indexed, below every id the tree
         hands out after this state: the largest when built. *)
  mutable fam : int;  (* the indexed tree's family ... *)
  mutable shape : int;  (* ... and its shape *)
}

(* Size and name share a word: a child step reads both of a rank, and
   a patch copies one array fewer. *)
let name_bits = 24
let name_mask = (1 lsl name_bits) - 1
let cell ~size ~name = (size lsl name_bits) lor name
let size t r = t.cells.(r) lsr name_bits
let name t r = t.cells.(r) land name_mask

let new_code codes s =
  let c = Hashtbl.length codes in
  if c > name_mask then invalid_arg "Index: more than 2^24 distinct names";
  Hashtbl.add codes s c;
  c

(* Names are interned through a table, but a document repeats the
   same name sequences (every [person] subtree opens with the same
   children), so the name that followed a code last time is tried
   first: [follows.(c)] holds it with its code (-1 while unknown). *)
let build doc =
  let n = Tree.size doc in
  let ids = Array.make n 0 and cells = Array.make n 0 in
  let value = Array.make n None and codes = Hashtbl.create 64 in
  let follows = ref (Array.make 64 ("", -1)) and prev = ref 0 in
  let intern s =
    let c =
      match Hashtbl.find_opt codes s with
      | Some c -> c
      | None ->
          let c = new_code codes s in
          let f = !follows in
          if c >= Array.length f then begin
            follows := Array.make (2 * c) ("", -1);
            Array.blit f 0 !follows 0 (Array.length f)
          end;
          c
    in
    !follows.(!prev) <- (s, c);
    c
  in
  let next = ref 0 in
  let rec go (node : Tree.node) =
    let r = !next in
    incr next;
    ids.(r) <- node.Tree.id;
    (match node.Tree.value with None -> () | v -> value.(r) <- v);
    let s = node.Tree.name in
    let c =
      match !follows.(!prev) with
      | p, c when c >= 0 && (p == s || String.equal p s) -> c
      | _ -> intern s
    in
    prev := c;
    List.iter go node.Tree.children;
    cells.(r) <- cell ~size:(!next - r - 1) ~name:c
  in
  go (Tree.root doc);
  let counts = Array.make (Hashtbl.length codes) 0 in
  Array.iter
    (fun x ->
      let c = x land name_mask in
      counts.(c) <- counts.(c) + 1)
    cells;
  let postings = Array.map (fun k -> Array.make k 0) counts in
  Array.fill counts 0 (Array.length counts) 0;
  Array.iteri
    (fun r x ->
      let c = x land name_mask in
      postings.(c).(counts.(c)) <- r;
      counts.(c) <- counts.(c) + 1)
    cells;
  { len = n; ids; cells; value; codes; postings; counts; flags = Bytes.empty;
    top = Array.fold_left Int.max (-1) ids; fam = Tree.family doc;
    shape = Tree.shape doc }

let describes t doc = t.fam = Tree.family doc && t.shape = Tree.shape doc
let length t = t.len
let id t r = t.ids.(r)

(* Ids are handed out in document order and only grafts break it, so
   the ids of ascending ranks usually ascend already and one scan
   spares the sort. *)
let ids t ranks =
  let a = Array.map (fun r -> t.ids.(r)) ranks in
  let k = ref 1 in
  while !k < Array.length a && a.(!k - 1) < a.(!k) do
    incr k
  done;
  if !k < Array.length a then Array.stable_sort Int.compare a;
  a

(* --- patching --------------------------------------------------------- *)

(* [ids] (each flagged) as one byte per id over their range, in
   [scratch] when it has the room: [lo], the range's length and the
   bytes, so that a scan of the ranks tests an id in O(1). *)
let flag_ids ?(scratch = Bytes.empty) flagged =
  let lo, hi =
    List.fold_left
      (fun (lo, hi) (id, _) -> (Int.min lo id, Int.max hi id))
      (max_int, min_int) flagged
  in
  if flagged = [] then (0, 0, scratch)
  else begin
    let span = hi - lo + 1 in
    let flags =
      if Bytes.length scratch >= span then scratch else Bytes.create (span + (span / 8))
    in
    Bytes.fill flags 0 span '\000';
    List.iter
      (fun (id, f) ->
        let i = id - lo in
        Bytes.set flags i (Char.unsafe_chr (Char.code (Bytes.get flags i) lor f)))
      flagged;
    (lo, span, flags)
  end

let flag_of (lo, span, flags) id =
  let i = id - lo in
  if i >= 0 && i < span then Char.code (Bytes.unsafe_get flags i) else 0

(* Births are numbered above every id of an earlier state of the tree
   ([top]), and nodes that live on keep their order, so one scan of
   the new ranks finds each survivor's old rank further along the old
   ones. *)
let carry ~from t (a : int array) ~written ~fresh =
  if Array.length a <> from.len then
    invalid_arg "Index.carry: the array is not over the source's ranks";
  let flags = flag_ids (List.map (fun id -> (id, 1)) written) in
  let m = t.len in
  let out = if from == t then Array.copy a else Array.make m 0 in
  let n = from.len and o = ref 0 in
  for r = 0 to m - 1 do
    let id = t.ids.(r) in
    if flag_of flags id <> 0 then out.(r) <- fresh id
    else if from != t then begin
      if id > from.top then invalid_arg "Index.carry: an unwritten birth";
      while !o < n && from.ids.(!o) <> id do
        incr o
      done;
      if !o = n then invalid_arg "Index.carry: not an earlier state of the tree";
      out.(r) <- a.(!o);
      incr o
    end
  done;
  out

(* One move of a structural epoch, in the old index's ranks: [Cut r]
   removed the subtree at [r]; [Graft (p, roots, k)] appended [roots],
   [k] nodes in all, as the last children of [p], right after [p]'s
   interval. *)
type splice = Cut of int | Graft of int * Tree.node list * int

(* The old rank a splice lands before, and how far it moves the old
   ranks from there on. *)
let at t = function Cut r -> r | Graft (p, _, _) -> p + size t p + 1
let shift t = function Cut r -> -size t r - 1 | Graft (_, _, k) -> k

(* At one position a graft goes before a cut (it closes an interval
   the cut follows), and of two grafts the deeper parent's first. *)
let before t a b =
  match Int.compare (at t a) (at t b) with
  | 0 -> (
      match (a, b) with
      | Graft (p, _, _), Graft (q, _, _) -> Int.compare q p
      | Graft _, Cut _ -> -1
      | Cut _, Graft _ -> 1
      | Cut _, Cut _ -> 0)
  | c -> c

(* The new rank of the surviving old rank [o]. *)
let moved t splices o =
  List.fold_left (fun r s -> if at t s <= o then r + shift t s else r) o splices

(* The proper ancestors of rank [r], found by size skips down from the
   root. *)
let ancestors t r =
  let rec down a acc =
    let c = ref (a + 1) in
    while !c + size t !c < r do
      c := !c + size t !c + 1
    done;
    if !c = r then a :: acc else down !c (a :: acc)
  in
  if r = 0 then [] else down 0 []

let rec count (node : Tree.node) =
  List.fold_left (fun k c -> k + count c) 1 node.Tree.children

(* The flags of a changed id. *)
let gone = 1 and written = 2 and grafted_under = 4

(* [a] if it holds [m] slots, else a fresh array: with room to spare
   when [a] is storage a patch reuses ([spare]), so that a buffer
   patched back and forth between two shapes stops growing after its
   first patch, and exact otherwise. *)
let room ~spare a m fill =
  if Array.length a >= m then a
  else Array.make (if spare then m + (m / 8) + 16 else m) fill

(* Every id the tree holds and the index does not was born since, so
   it is above [top]; a born node whose parent is indexed roots a
   grafted subtree.  An indexed id the tree no longer holds was
   deleted.  The changed ids are flagged by id, and one scan of the
   old ranks finds them in rank order, skipping each cut subtree
   whole.  The survivors keep their order, so the new arrays are the
   old ones cut and spliced, written into [into]'s storage. *)
let patch ?into old doc =
  if Tree.family doc <> old.fam then invalid_arg "Index.patch: another tree";
  let spare = Option.is_some into in
  let into =
    match into with
    | Some i when i == old -> invalid_arg "Index.patch: into is the source"
    | Some i -> i
    | None ->
        { len = 0; ids = [||]; cells = [||]; value = [||]; codes = old.codes;
          postings = [||]; counts = [||]; flags = Bytes.empty; top = -1;
          fam = old.fam; shape = -1 }
  in
  let n = old.len and top = old.top in
  let births = ref [] in
  let flagged =
    Tree.fold_changed
      (fun id acc ->
        match Tree.find doc id with
        | Some node when id > top -> (
            births := id :: !births;
            match Tree.parent node with
            | Some p when p.Tree.id <= top -> (p.Tree.id, grafted_under) :: acc
            | _ -> acc)
        | Some _ -> (id, written) :: acc
        | None -> if id <= top then (id, gone) :: acc else acc)
      doc []
  in
  let ((_, _, scratch) as flags) = flag_ids ~scratch:into.flags flagged in
  into.flags <- scratch;
  let splices = ref [] and revalued = ref [] and r = ref 0 in
  while !r < n do
    let x = !r in
    let f = flag_of flags old.ids.(x) in
    if f land gone <> 0 then begin
      splices := Cut x :: !splices;
      r := x + size old x + 1
    end
    else begin
      if f <> 0 then begin
        match Tree.find doc old.ids.(x) with
        | None -> invalid_arg "Index.patch: the index is not the tree's"
        | Some node ->
            if f land grafted_under <> 0 then begin
              let roots =
                List.filter (fun (c : Tree.node) -> c.Tree.id > top) node.Tree.children
              in
              splices :=
                Graft (x, roots, List.fold_left (fun k c -> k + count c) 0 roots)
                :: !splices
            end;
            if not (Option.equal String.equal node.Tree.value old.value.(x)) then
              revalued := (x, node.Tree.value) :: !revalued
      end;
      incr r
    end
  done;
  let splices = List.sort (before old) !splices in
  let m = List.fold_left (fun m s -> m + shift old s) n splices in
  if m <> Tree.size doc then invalid_arg "Index.patch: the index is not the tree's";
  (* From here [into]'s arrays are overwritten: until it is whole it
     describes no shape. *)
  into.shape <- -1;
  let ids = room ~spare into.ids m 0 and cells = room ~spare into.cells m 0 in
  let value = room ~spare into.value m None in
  let codes = ref old.codes in
  (* A new name is interned into a copy: readers share the old table. *)
  let intern s =
    match Hashtbl.find_opt !codes s with
    | Some c -> c
    | None ->
        if !codes == old.codes then codes := Hashtbl.copy old.codes;
        new_code !codes s
  in
  let born = ref [] and w = ref 0 and o = ref 0 in
  (* The surviving old ranks [!o, upto).  The int copies are a loop,
     not [Array.blit]: on an array in the major heap a blit goes
     through the write barrier element by element, while a store into
     a statically typed [int array] is a plain move. *)
  let keep upto =
    let d = !w - !o in
    for x = !o to upto - 1 do
      ids.(x + d) <- old.ids.(x);
      cells.(x + d) <- old.cells.(x)
    done;
    Array.blit old.value !o value !w (upto - !o);
    w := upto + d;
    o := upto
  in
  let rec emit (node : Tree.node) =
    let x = !w in
    incr w;
    ids.(x) <- node.Tree.id;
    let c = intern node.Tree.name in
    value.(x) <- node.Tree.value;
    born := x :: !born;
    List.iter emit node.Tree.children;
    cells.(x) <- cell ~size:(!w - x - 1) ~name:c
  in
  List.iter
    (fun s ->
      keep (at old s);
      match s with
      | Cut x -> o := x + size old x + 1
      | Graft (_, roots, _) -> List.iter emit roots)
    splices;
  keep n;
  (* A splice resizes its parent's ancestors (and a graft its parent);
     they precede it, so they survive. *)
  let grow x d =
    let y = moved old splices x in
    cells.(y) <- cells.(y) + (d lsl name_bits)
  in
  List.iter
    (fun s ->
      match s with
      | Cut x -> List.iter (fun a -> grow a (shift old s)) (ancestors old x)
      | Graft (p, _, k) -> List.iter (fun a -> grow a k) (p :: ancestors old p))
    splices;
  List.iter (fun (x, v) -> value.(moved old splices x) <- v) !revalued;
  (* Postings: the survivors' ranks moved along the splices, merged
     with the born ones (ascending, per name). *)
  let codes = !codes in
  let k_names = Hashtbl.length codes in
  let fresh = Array.make k_names [] in
  List.iter
    (fun x ->
      let c = cells.(x) land name_mask in
      fresh.(c) <- x :: fresh.(c))
    !born;
  let cut = Array.make k_names 0 in
  List.iter
    (function
      | Cut x ->
          for y = x to x + size old x do
            cut.(name old y) <- cut.(name old y) + 1
          done
      | Graft _ -> ())
    splices;
  let postings =
    if Array.length into.postings >= k_names then into.postings
    else Array.init k_names (fun c -> if c < Array.length into.postings then into.postings.(c) else [||])
  in
  let counts = room ~spare into.counts k_names 0 in
  let sp = Array.of_list splices in
  for c = 0 to k_names - 1 do
    (* [old]'s storage may hold stale counts past its own names. *)
    let k = if c < Hashtbl.length old.codes then old.counts.(c) else 0 in
    let p = if k > 0 then old.postings.(c) else [||] in
    let total = k - cut.(c) + List.length fresh.(c) in
    let out = room ~spare postings.(c) total 0 in
    postings.(c) <- out;
    counts.(c) <- total;
    let j = ref 0 and ins = ref fresh.(c) in
    let put x =
      out.(!j) <- x;
      incr j
    in
    let s = ref 0 and delta = ref 0 and cut_end = ref (-1) in
    for i = 0 to k - 1 do
      let x = p.(i) in
      while !s < Array.length sp && at old sp.(!s) <= x do
        (match sp.(!s) with
        | Cut y -> cut_end := y + size old y
        | Graft _ -> ());
        delta := !delta + shift old sp.(!s);
        incr s
      done;
      if x > !cut_end then begin
        let y = x + !delta in
        while match !ins with z :: _ -> z < y | [] -> false do
          put (List.hd !ins);
          ins := List.tl !ins
        done;
        put y
      end
    done;
    List.iter put !ins
  done;
  into.len <- m;
  into.ids <- ids;
  into.cells <- cells;
  into.value <- value;
  into.codes <- codes;
  into.postings <- postings;
  into.counts <- counts;
  into.top <- List.fold_left Int.max top !births;
  into.fam <- old.fam;
  into.shape <- Tree.shape doc;
  into

let names t =
  let a = Array.make (Hashtbl.length t.codes) "" in
  Hashtbl.iter (fun s c -> a.(c) <- s) t.codes;
  a

let equal a b =
  let na = names a and nb = names b in
  let postings t s =
    match Hashtbl.find_opt t.codes s with
    | Some c -> Array.sub t.postings.(c) 0 t.counts.(c)
    | None -> [||]
  in
  let same_postings t =
    Hashtbl.fold (fun s _ ok -> ok && postings a s = postings b s) t.codes true
  in
  let prefix t a = Array.sub a 0 t.len in
  a.fam = b.fam && a.shape = b.shape && a.len = b.len
  && prefix a a.ids = prefix b b.ids
  && prefix a a.value = prefix b b.value
  && Array.for_all2
       (fun x y ->
         x lsr name_bits = y lsr name_bits
         && String.equal na.(x land name_mask) nb.(y land name_mask))
       (prefix a a.cells) (prefix b b.cells)
  && same_postings a && same_postings b

(* --- compiled expressions --------------------------------------------- *)

(* Name tests resolved to interned names once per query: [any] is the
   wildcard, [absent] a name the document does not hold. *)
let any = -1
let absent = -2

type cstep = { axis : axis; code : int; quals : cqual list }

and cqual =
  | Exists of cstep list * accept
  | And of cqual * cqual

(* What a qualifier path's end node must satisfy.  A comparison's
   constant is read as a number once per query, not once per node. *)
and accept = Always | Compare of cmp * string * float option

let rec compile_path t p = List.map (compile_step t) p

and compile_step t (s : step) =
  let code =
    match s.test with
    | Wildcard -> any
    | Name l -> Option.value ~default:absent (Hashtbl.find_opt t.codes l)
  in
  { axis = s.axis; code; quals = List.map (compile_qual t) s.quals }

and compile_qual t = function
  | Ast.Exists p -> Exists (compile_path t p, Always)
  | Ast.Value (p, op, d) ->
      Exists (compile_path t p, Compare (op, d, float_of_string_opt d))
  | Ast.And (a, b) -> And (compile_qual t a, compile_qual t b)

(* --- evaluation ------------------------------------------------------- *)

(* The last rank of [r]'s subtree; the virtual document node, rank -1,
   spans the whole document. *)
let last t r = if r < 0 then t.len - 1 else r + size t r

(* First index of [p]'s first [upto] at or after [from] holding a rank
   >= [v]. *)
let lower_bound (p : int array) ~upto ~from (v : int) =
  let lo = ref from and hi = ref upto in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if p.(mid) < v then lo := mid + 1 else hi := mid
  done;
  !lo

let name_ok t code r = code = any || name t r = code

let accepts t r = function
  | Always -> true
  | Compare (op, d, num) -> (
      match t.value.(r) with
      | Some v -> cmp_holds_parsed op v d ~num
      | None -> false)

let rec quals_ok t r = function
  | [] -> true
  | q :: qs -> qual_ok t r q && quals_ok t r qs

and qual_ok t r = function
  | Exists (p, accept) -> exists t r p accept
  | And (a, b) -> qual_ok t r a && qual_ok t r b

(* Does some node reachable from [r] via [p] pass [accept]?  Stops at
   the first witness. *)
and exists t r p accept =
  match p with
  | [] -> accepts t r accept
  | s :: _ when s.code = absent -> false
  | s :: rest -> (
      let hi = last t r in
      match s.axis with
      | Child -> children_exist t s rest accept (r + 1) hi
      | Descendant when s.code = any -> range_exists t s rest accept (r + 1) hi
      | Descendant ->
          let p = t.postings.(s.code) and k = t.counts.(s.code) in
          postings_exist t s rest accept p k (lower_bound p ~upto:k ~from:0 (r + 1)) hi)

and witness t s rest accept c =
  name_ok t s.code c && quals_ok t c s.quals && exists t c rest accept

and children_exist t s rest accept c hi =
  c <= hi
  && (witness t s rest accept c
     || children_exist t s rest accept (c + size t c + 1) hi)

and range_exists t s rest accept c hi =
  c <= hi && (witness t s rest accept c || range_exists t s rest accept (c + 1) hi)

and postings_exist t s rest accept p k i hi =
  i < k
  && p.(i) <= hi
  && (witness t s rest accept p.(i) || postings_exist t s rest accept p k (i + 1) hi)

(* The ranks a step selects are gathered in a buffer of the domain's
   that grows to the largest answer once and is reused, so a step
   allocates its result and nothing else: no doubling copies, which
   for a large answer would each be a major-heap block. *)
let scratch = Domain.DLS.new_key (fun () -> ref (Array.make 256 0))

(* One step over an ascending context, giving an ascending result. *)
let select_step t (context : int array) s =
  let buf = Domain.DLS.get scratch in
  let used = ref 0 in
  let push x =
    if !used = Array.length !buf then begin
      let a = Array.make (2 * !used) 0 in
      Array.blit !buf 0 a 0 !used;
      buf := a
    end;
    Array.unsafe_set !buf !used x;
    incr used
  in
  let code = s.code and quals = s.quals in
  let nested = ref false and reach = ref (-2) in
  (if code <> absent then
     match s.axis with
     | Child ->
         for i = 0 to Array.length context - 1 do
           let r = context.(i) in
           if r <= !reach then nested := true;
           let hi = last t r in
           if hi > !reach then reach := hi;
           let c = ref (r + 1) in
           while !c <= hi do
             let x = !c in
             if name_ok t code x && quals_ok t x quals then push x;
             c := x + size t x + 1
           done
         done
     | Descendant ->
         let cursor = ref 0 in
         for i = 0 to Array.length context - 1 do
           let r = context.(i) in
           (* Staircase pruning: a context inside the last kept
              interval selects nothing new. *)
           if r > !reach then begin
             let hi = last t r in
             reach := hi;
             if code = any then
               for x = r + 1 to hi do
                 if quals_ok t x quals then push x
               done
             else begin
               let p = t.postings.(code) and k = t.counts.(code) in
               let j = ref (lower_bound p ~upto:k ~from:!cursor (r + 1)) in
               while !j < k && p.(!j) <= hi do
                 let x = p.(!j) in
                 if quals_ok t x quals then push x;
                 incr j
               done;
               cursor := !j
             end
           end
         done);
  let result = Array.sub !buf 0 !used in
  (* The children of nested contexts interleave.  Each node has one
     parent, so they are distinct already and only need sorting. *)
  if !nested then Array.sort Int.compare result;
  result

let eval t (e : expr) =
  match e.steps with
  | [] -> [| 0 |]
  | steps ->
      List.fold_left
        (fun context s -> select_step t context (compile_step t s))
        [| -1 |] steps
