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

type t = {
  ids : int array;  (* rank -> node id *)
  size : int array;  (* rank -> number of proper descendants *)
  name : int array;  (* rank -> interned name *)
  value : string option array;  (* rank -> leaf value *)
  codes : (string, int) Hashtbl.t;  (* name -> interned name *)
  postings : int array array;  (* interned name -> its ranks, ascending *)
  fam : int;  (* the indexed tree's family ... *)
  shape : int;  (* ... and its shape at build *)
}

(* Names are interned through a table, but a document repeats the
   same name sequences (every [person] subtree opens with the same
   children), so the name that followed a code last time is tried
   first: [follows.(c)] holds it with its code (-1 while unknown). *)
let build doc =
  let n = Tree.size doc in
  let ids = Array.make n 0 and size = Array.make n 0 in
  let name = Array.make n 0 in
  let value = Array.make n None and codes = Hashtbl.create 64 in
  let follows = ref (Array.make 64 ("", -1)) and prev = ref 0 in
  let intern s =
    let c =
      match Hashtbl.find_opt codes s with
      | Some c -> c
      | None ->
          let c = Hashtbl.length codes in
          Hashtbl.add codes s c;
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
    name.(r) <- c;
    prev := c;
    List.iter go node.Tree.children;
    size.(r) <- !next - r - 1
  in
  go (Tree.root doc);
  let counts = Array.make (Hashtbl.length codes) 0 in
  Array.iter (fun c -> counts.(c) <- counts.(c) + 1) name;
  let postings = Array.map (fun k -> Array.make k 0) counts in
  Array.fill counts 0 (Array.length counts) 0;
  Array.iteri
    (fun r c ->
      postings.(c).(counts.(c)) <- r;
      counts.(c) <- counts.(c) + 1)
    name;
  { ids; size; name; value; codes; postings; fam = Tree.family doc;
    shape = Tree.shape doc }

let describes t doc = t.fam = Tree.family doc && t.shape = Tree.shape doc
let length t = Array.length t.ids
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
let last t r = if r < 0 then Array.length t.ids - 1 else r + t.size.(r)

(* First index of [p] at or after [from] holding a rank >= [v]. *)
let lower_bound (p : int array) ~from (v : int) =
  let lo = ref from and hi = ref (Array.length p) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if p.(mid) < v then lo := mid + 1 else hi := mid
  done;
  !lo

let name_ok t code r = code = any || t.name.(r) = code

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
          let p = t.postings.(s.code) in
          postings_exist t s rest accept p (lower_bound p ~from:0 (r + 1)) hi)

and witness t s rest accept c =
  name_ok t s.code c && quals_ok t c s.quals && exists t c rest accept

and children_exist t s rest accept c hi =
  c <= hi
  && (witness t s rest accept c
     || children_exist t s rest accept (c + t.size.(c) + 1) hi)

and range_exists t s rest accept c hi =
  c <= hi && (witness t s rest accept c || range_exists t s rest accept (c + 1) hi)

and postings_exist t s rest accept p i hi =
  i < Array.length p
  && p.(i) <= hi
  && (witness t s rest accept p.(i) || postings_exist t s rest accept p (i + 1) hi)

(* A growable rank buffer; unlike [Vec], it hands its contents over as
   a plain [int array]. *)
type buf = { mutable a : int array; mutable len : int }

let push b x =
  if b.len = Array.length b.a then begin
    let a = Array.make (Int.max 16 (2 * b.len)) 0 in
    Array.blit b.a 0 a 0 b.len;
    b.a <- a
  end;
  b.a.(b.len) <- x;
  b.len <- b.len + 1

(* One step over an ascending context, giving an ascending result. *)
let select_step t (context : int array) s =
  let out = { a = [||]; len = 0 } in
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
             if name_ok t code x && quals_ok t x quals then push out x;
             c := x + t.size.(x) + 1
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
                 if quals_ok t x quals then push out x
               done
             else begin
               let p = t.postings.(code) in
               let j = ref (lower_bound p ~from:!cursor (r + 1)) in
               while !j < Array.length p && p.(!j) <= hi do
                 let x = p.(!j) in
                 if quals_ok t x quals then push out x;
                 incr j
               done;
               cursor := !j
             end
           end
         done);
  let result = Array.sub out.a 0 out.len in
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
