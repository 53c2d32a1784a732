module Tree = Xmlac_xml.Tree
module Ast = Xmlac_xpath.Ast
module Index = Xmlac_xpath.Index
module Schema_match = Xmlac_xpath.Schema_match
module Metrics = Xmlac_util.Metrics
module Fault = Xmlac_util.Fault
module Deadline = Xmlac_util.Deadline

module Sg = Xmlac_xml.Schema_graph
module Imap = Map.Make (Int)

(* The decisions a memo holds, one per subject that asked: a list
   that only grows, published by compare-and-set ([decide]). *)
type decided =
  | Nil
  | Decided of {
      subject : string option;
      decision : Requester.decision;
      next : decided;
    }

(* One query's memo on one lane.  On the materialized lane it keeps
   the ids of the query's answers, ascending, because carry-forward
   must show the epoch wrote none of them, and [blocked]: how many of
   the answers each subject may not access, by the subject's grant
   bit, counted once by the miss that evaluated the query.  A subject
   the memo holds no decision for is decided from its count ([fill])
   without evaluating again.  A rewrite-lane memo read no annotation
   and keeps no answers ([None]), so [answers] also names the lane;
   its decisions are each their subject's own evaluation.  The query,
   as text and parsed, feeds the structural carry test.  [stamp]
   orders eviction: stamps only grow along a chain.  [mask] is the
   root-path mask the carry tests ([carry_forward]), [[||]] until a
   capture fills it in; only the writer reads or writes it.

   A memo is carried only when the epoch wrote none of its answers and,
   structurally, could not have moved them, so a subject's decision —
   a function of the answers and their grant words alone — is the same
   in every snapshot that holds the memo.  That is why [decided] is
   shared by them all: a decision a reader of one snapshot adds answers
   the readers of every other. *)
type memo = {
  query : string;
  expr : Ast.expr;
  answers : int array option;
  blocked : int array;
  decided : decided Atomic.t;
  stamp : int;
  mutable mask : int array;
}

let memo_capacity = 1024

(* One snapshot's memo table, as one immutable value: a capture hands
   its predecessor's table on and removes only what the epoch
   invalidated, and a pinned snapshot keeps the table it had.  The
   memos are found by query text in [memos], a two-level array of
   buckets indexed by the text's hash, each bucket a list holding both
   lanes' memos of its texts, and by stamp ([order], oldest first: the
   eviction order).  A change copies the top array and the leaves it
   writes, small enough for the minor heap, and never writes a
   published array, so unwritten leaves stay shared.  A hit reads one
   bucket, where a map by text would compare a string at every level
   of a tree of 1,024 keys. *)
type table = {
  memos : memo list array array;
  order : memo Imap.t;
  size : int;
  next : int;
}

let fan = 32  (* buckets per leaf, and [leaves] leaves: 2,048 buckets *)
let leaves = 64
let no_memos = Array.make leaves (Array.make fan [])
let empty_table next = { memos = no_memos; order = Imap.empty; size = 0; next }
let bucket query = Hashtbl.hash query land ((fan * leaves) - 1)

let bucket_of tb query =
  let b = bucket query in
  tb.memos.(b / fan).(b mod fan)

let rec find_in ~rewrite query = function
  | [] -> raise Not_found
  | m :: ms ->
      if Option.is_none m.answers = rewrite && String.equal m.query query then m
      else find_in ~rewrite query ms

(* The memo of [query] on one lane.  Allocates nothing. *)
let find_memo ~rewrite tb query = find_in ~rewrite query (bucket_of tb query)

let new_memo query expr answers blocked =
  { query; expr; answers; blocked; decided = Atomic.make Nil; stamp = 0; mask = [||] }

(* [tb] without the memos of [drop], with [add] (stamped [tb.next])
   when given. *)
let amend ?add tb drop =
  if drop = [] && add = None then tb
  else begin
    let memos = Array.copy tb.memos in
    let update m f =
      let b = bucket m.query in
      let i = b / fan in
      if memos.(i) == tb.memos.(i) then memos.(i) <- Array.copy memos.(i);
      memos.(i).(b mod fan) <- f memos.(i).(b mod fan)
    in
    let order =
      List.fold_left
        (fun order m ->
          update m (List.filter (fun o -> o != m));
          Imap.remove m.stamp order)
        tb.order drop
    and size = tb.size - List.length drop in
    match add with
    | None -> { tb with memos; order; size }
    | Some m ->
        update m (List.cons m);
        { memos; order = Imap.add m.stamp m order; size = size + 1; next = tb.next + 1 }
  end

let same_subject a b =
  match (a, b) with
  | None, None -> true
  | Some a, Some b -> String.equal a b
  | _ -> false

(* The subject's decision in a memo's list.  A hit allocates
   nothing. *)
let rec decision_of subject = function
  | Nil -> raise Not_found
  | Decided d ->
      if same_subject d.subject subject then d.decision
      else decision_of subject d.next

(* Adds [subject]'s decision to [m]'s list, unless a racer added one
   first: both computed the same decision. *)
let rec decide m subject d =
  let seen = Atomic.get m.decided in
  match decision_of subject seen with
  | d -> d
  | exception Not_found ->
      if
        Atomic.compare_and_set m.decided seen
          (Decided { subject; decision = d; next = seen })
      then d
      else decide m subject d

let footprint_capacity = 8 * memo_capacity

(* A snapshot's index slot.  [Handed] holds an index of the engine's
   writer (built at creation or patched after the epoch's structural
   write) that no reader has taken yet: the writer may still take it
   back and write it ([take_back_index]).  [Read] holds one a reader
   has evaluated on, built or taken over — never written again, and
   the demand the writer's next repair follows. *)
type index_slot = Unbuilt | Handed of Index.t | Read of Index.t

(* The state digest: a sum mod 2^63 of one term per node (incremental
   hashing, Bellare & Micciancio, EUROCRYPT 1997), so an epoch moves
   it by the terms of the ids it wrote.  A node's term reads its id,
   whether the anonymous subject is granted it and which declared
   roles are; a node granted to nobody, like an absent one, adds 0, so
   the sum is a function of the accessible sets alone.  [scale] is
   what the term and the grant column read off the policy, computed
   once per chain. *)
type scale = {
  anonymous : bool;  (* the policy's default sign is [Plus] *)
  default_bits : Xmlac_util.Bitset.t;
  roles : int;  (* declared roles: the bits below it count *)
}

let scale_of policy =
  {
    anonymous = Policy.ds policy = Tree.Plus;
    default_bits = Policy.default_bits policy;
    roles = Policy.role_count policy;
  }

(* A bijection of the 63-bit ints: xor-shifts and odd multipliers. *)
let mix x =
  let x = (x lxor (x lsr 31)) * 0x1f58476d1ce4e5b9 in
  let x = (x lxor (x lsr 29)) * 0x14d049bb133111eb in
  x lxor (x lsr 32)

(* A node's effective sign and bitmap, else the policy's defaults: the
   one reading the digest's term and the grant column share. *)
let plus s (n : Tree.node) =
  match n.Tree.sign with Some sign -> sign = Tree.Plus | None -> s.anonymous

let bits s (n : Tree.node) =
  match n.Tree.bits with Some b -> b | None -> s.default_bits

(* Allocates nothing. *)
let term s (n : Tree.node) =
  let anonymous = plus s n
  and roles = Xmlac_util.Bitset.hash_below s.roles (bits s n) in
  if anonymous || roles <> 0 then
    mix (mix ((n.Tree.id lsl 1) lor Bool.to_int anonymous) + roles)
  else 0

let term_of s doc id =
  match Tree.find doc id with Some n -> term s n | None -> 0

(* What a written id moves the sum by, from [before] to [after]. *)
let moved s ~before ~after id sum =
  sum + term_of s after id - term_of s before id

let sum_of s doc =
  let sum = ref 0 in
  Tree.iter_by_id (fun n -> sum := !sum + term s n) doc;
  !sum

(* The base case, counted: [snapshot.digest_folds]. *)
let fold_sum metrics s doc =
  Metrics.incr metrics "snapshot.digest_folds";
  sum_of s doc

(* The shipped form: the 63-bit sum xor-folded to 32 bits. *)
let to_int32 sum = Int32.of_int (sum lxor (sum lsr 32))

let fold_digest policy doc = to_int32 (sum_of (scale_of policy) doc)

(* The grant column: a node's effective grant as [roles / w + 1]
   words, role [i] at bit [i] (as in its bitmap) and the anonymous
   subject at bit [roles].  Word [k] of [n]'s grant masks off bitmap
   members at or above [roles], which could pose as the anonymous
   bit. *)
let w = Sys.int_size

let grant_word s n k =
  let b = Xmlac_util.Bitset.word (bits s n) k and top = s.roles - (k * w) in
  if top >= w then b
  else
    let b = b land ((1 lsl top) - 1) in
    if plus s n then b lor (1 lsl top) else b

(* [Tree.iter] walks the same preorder as [Index.build], and a
   sign-only epoch (which may hand the index on) moves no node. *)
let walk_grants s doc =
  let g = Array.init ((s.roles / w) + 1) (fun _ -> Array.make (Tree.size doc) 0) in
  let next = ref 0 in
  Tree.iter
    (fun node ->
      for k = 0 to Array.length g - 1 do
        g.(k).(!next) <- grant_word s node k
      done;
      incr next)
    doc;
  g

(* [g] moved from [from]'s ranks to [idx]'s, each written id still in
   [view] taking its grant there. *)
let carry_grants s ~from idx g view ~written =
  Array.mapi
    (fun k col ->
      Index.carry ~from idx col ~written ~fresh:(fun id ->
          grant_word s (Option.get (Tree.find view id)) k))
    g

let grant_walk policy doc = walk_grants (scale_of policy) doc
let grant_carry policy = carry_grants (scale_of policy)

type t = {
  epoch : int;
  doc : Tree.t;  (* frozen COW view *)
  gen : int;  (* the generation the view froze *)
  index : index_slot Atomic.t;
      (* The view's pre/size index, handed over at capture or built by
         the first miss that needs it and published by compare-and-set,
         so concurrent first misses agree on one index without taking
         [lock].  The slot itself is shared along a run of
         non-structural epochs, whose views all have the same nodes,
         names and values. *)
  grants : int array array option Atomic.t;
      (* Word [k] of rank [r]'s grant at [.(k).(r)]: carried from
         [prev]'s at capture or walked and published like [index], never
         shared, since a write epoch moves the grants it wrote. *)
  annotated : bool;  (* signs had a committed annotation epoch at capture *)
  bits_annotated : bool;  (* ... and likewise the role bitmaps *)
  policy : Policy.t;
  scale : scale;  (* [policy]'s digest inputs, shared along a chain *)
  digest : int;  (* the view's state digest sum *)
  table : table Atomic.t;
      (* The memo table, bounded at [memo_capacity].  The epoch is
         fixed for the snapshot's lifetime, so entries never go stale.
         A hit reads it without a lock; a reader replaces it under
         [lock]. *)
  footprints : (string, Schema_match.footprint) Hashtbl.t;
      (* Recent queries' footprints by text, handed on along a
         continuous chain and used only by [capture]'s writer: a new
         memo finds its query's there when another memo computed it.
         Emptied at [footprint_capacity]. *)
  metrics : Metrics.t;
  lock : Mutex.t;
      (* Serializes the readers that add to [table]; the rest is
         frozen.  The pin count is guarded by the owning registry's
         lock instead, so pin/publish/reclaim are atomic with respect
         to each other. *)
  mutable pins : int;
}

let with_lock lock f =
  Mutex.lock lock;
  match f () with
  | v ->
      Mutex.unlock lock;
      v
  | exception e ->
      Mutex.unlock lock;
      raise e

(* Must run under [t.lock].  Adds [m] and returns it, or returns the
   memo a racing reader added for the same query and lane first. *)
let remember t m =
  let tb = Atomic.get t.table in
  match find_memo ~rewrite:(Option.is_none m.answers) tb m.query with
  | held -> held
  | exception Not_found ->
      let evicted =
        if tb.size < memo_capacity then [] else [ snd (Imap.min_binding tb.order) ]
      in
      let m = { m with stamp = tb.next } in
      Atomic.set t.table (amend ~add:m tb evicted);
      m

(* Root-path masks: path [p] of the schema's [paths] root paths at bit
   [p mod w] of word [p / w], and one more bit, [always] at [paths],
   that every structural update's mask holds. *)
let set_bit mask p = mask.(p / w) <- mask.(p / w) lor (1 lsl (p mod w))
let has_bit mask p = mask.(p / w) land (1 lsl (p mod w)) <> 0

let rec meet_from k a b =
  k < Array.length a && (a.(k) land b.(k) <> 0 || meet_from (k + 1) a b)

let meet a b = meet_from 0 a b

(* Whether two ascending id arrays share an id: each id of the shorter
   is binary-searched in the longer. *)
let share (a : int array) (b : int array) =
  let small, large =
    if Array.length a <= Array.length b then (a, b) else (b, a)
  in
  let rec mem x lo hi =
    lo < hi
    &&
    let mid = (lo + hi) / 2 in
    let v = large.(mid) in
    v = x || if v < x then mem x (mid + 1) hi else mem x lo mid
  in
  Array.exists (fun x -> mem x 0 (Array.length large)) small

(* Memoized decisions survive into the next snapshot when the epoch
   provably cannot have moved them.  One rule covers every epoch.  A
   materialized-lane entry carries when

   - the epoch is non-structural, or the entry's schema footprint and
     the update's are both non-empty and disjoint — the test the
     [Overlap] trigger applies to rules (paper §5.3), so an insert or
     delete there cannot add, remove or requalify an answer;
   - and the epoch wrote no answer, so every answer's own annotation —
     all the check read — is unchanged.  The change set lists every
     birth, every deleted node and every sign or bitmap write.

   A rewrite-lane entry read the policy's scopes, which any structural
   change may move, so it carries across non-structural epochs only.
   A structural epoch captured without [footprint] (recovery) drops
   every entry.

   The new snapshot starts from its predecessor's table and removes
   what the rule drops, in one pass that tests each memo's [mask]
   against two of the epoch's.  On the schema's paths every answer of
   a query sits at a root path of its footprint, so a written id can
   only be the answer of a memo holding the id's root path, which a
   binary search on the answers confirms.  Without [footprint] (the
   document may be off the schema's paths, or the caller has not said)
   or when a written node sits off the schema, every memo's answers
   are searched for every written id instead.

   All of it is gated on provenance, which [capture] checks: otherwise
   the tree-level change set does not describe the gap between the two
   snapshots and the new snapshot simply starts cold. *)
let carry_forward ~prev ~stats ~footprint t =
  let tb = Atomic.get prev.table in
  let structural = stats.Tree.structural and changed = stats.Tree.changed in
  let update =
    match footprint with Some f when structural -> Some f | _ -> None
  in
  let dropped = ref [] in
  let by_footprint = ref 0 and by_written = ref 0 and examined = ref 0 in
  let drop counter m =
    incr counter;
    dropped := m :: !dropped
  in
  (* Whether the epoch wrote one of [m]'s answers, read off every
     written id. *)
  let written_any =
    let all = lazy (Array.of_list changed) in
    fun m ->
      incr examined;
      match m.answers with
      | Some a when share (Lazy.force all) a -> drop by_written m
      | _ -> ()
  in
  (* The written ids that were in [prev]'s view (a birth is in no
     answer), grouped by root path as ascending arrays; [None] when one
     sits off the schema. *)
  let groups sg =
    let push id = function None -> Some [ id ] | Some ids -> Some (id :: ids) in
    let add g id =
      match (g, Tree.find prev.doc id) with
      | None, _ -> None
      | g, None -> g
      | Some g, Some n ->
          Option.map (fun p -> Imap.update p (push id) g) (Sg.path_index sg n)
    in
    List.fold_left add (Some Imap.empty) changed
    |> Option.map (Imap.map (fun ids -> Array.of_list (List.rev ids)))
  in
  (* The rule above, on the masks.  A memo's mask is filled in by the
     first capture that tests it: [always] for a rewrite-lane memo or
     an empty footprint, else its footprint's root paths. *)
  let masked sg groups =
    let paths = List.length (Sg.root_paths sg) in
    let mask () = Array.make ((paths / w) + 1) 0 in
    let footprint_of m =
      match Hashtbl.find_opt t.footprints m.query with
      | Some fp -> fp
      | None ->
          let fp =
            Schema_match.footprint sg
              (Xmlac_xpath.Expand.expand ~schema:sg m.expr)
          in
          if Hashtbl.length t.footprints >= footprint_capacity then
            Hashtbl.reset t.footprints;
          Hashtbl.replace t.footprints m.query fp;
          fp
    in
    let mask_of m =
      if Array.length m.mask = 0 then begin
        let mask = mask () in
        (match Option.map (fun _ -> footprint_of m) m.answers with
        | Some fp when not (Schema_match.footprint_is_empty fp) ->
            Array.iter (set_bit mask) (Schema_match.footprint_paths fp)
        | _ -> set_bit mask paths);
        m.mask <- mask
      end;
      m.mask
    in
    let umask = mask () and gmask = mask () in
    Option.iter
      (fun (_, ufp) ->
        set_bit umask paths;
        Array.iter (set_bit umask) (Schema_match.footprint_paths ufp))
      update;
    Option.iter (Imap.iter (fun p _ -> set_bit gmask p)) groups;
    Imap.iter
      (fun _ m ->
        let mask = mask_of m in
        if meet mask umask then begin
          incr examined;
          drop by_footprint m
        end
        else
          match (groups, m.answers) with
          | None, _ -> written_any m
          | Some groups, Some a when meet mask gmask ->
              incr examined;
              (* Only the written ids on the memo's own root paths can
                 be its answers. *)
              if Imap.exists (fun p ids -> has_bit mask p && share a ids) groups
              then drop by_written m
          | Some _, _ -> ())
      tb.order
  in
  let drops_all =
    structural
    && Option.fold update ~none:true ~some:(fun (_, ufp) ->
           Schema_match.footprint_is_empty ufp)
  in
  let kept =
    if (not structural) && changed = [] then tb
    else if drops_all then begin
      by_footprint := tb.size;
      empty_table tb.next
    end
    else begin
      (match footprint with
      | Some (sg, _) -> masked sg (groups sg)
      | None -> Imap.iter (fun _ m -> written_any m) tb.order);
      amend tb !dropped
    end
  in
  Atomic.set t.table kept;
  let count name n = if n > 0 then Metrics.add t.metrics name n in
  count "snapshot.cache.carried" kept.size;
  count "snapshot.cache.examined" !examined;
  count "snapshot.cache.dropped.footprint" !by_footprint;
  count "snapshot.cache.dropped.written" !by_written

let capture ?(annotated = true) ?(bits_annotated = true) ?prev ?footprint
    ?index ?cam:_ ~epoch ~policy ~metrics doc =
  Metrics.time metrics "snapshot.capture" @@ fun () ->
  let view, stats = Tree.freeze doc in
  Metrics.incr metrics "snapshot.captures";
  (* Whether the view is the very next generation of [p]'s tree. *)
  let follows p =
    Tree.family p.doc = Tree.family view && stats.Tree.frozen_gen = p.gen + 1
  in
  let index =
    match (index, prev) with
    | Some i, _ when Index.describes i view -> Atomic.make (Handed i)
    (* A sign-only epoch leaves the encoding where it was, so the next
       view takes over its predecessor's index slot, built or not. *)
    | _, Some p when follows p && not stats.Tree.structural ->
        Metrics.incr metrics "snapshot.index_shared";
        p.index
    | _ -> Atomic.make Unbuilt
  in
  let carry =
    match prev with
    | Some p when follows p && p.policy == policy -> Some p
    | _ -> None
  in
  (* The digest and the grants move by the ids the epoch wrote.  When
     it wrote more than a quarter of the view (an annotation pass), one
     walk costs less than a lookup or two per written id. *)
  let few =
    List.compare_length_with stats.Tree.changed (Tree.size view / 4) <= 0
  in
  let scale, digest =
    match carry with
    | Some p when few ->
        ( p.scale,
          List.fold_left
            (fun sum id -> moved p.scale ~before:p.doc ~after:view id sum)
            p.digest stats.Tree.changed )
    | Some p -> (p.scale, fold_sum metrics p.scale view)
    | None ->
        let s = scale_of policy in
        (s, fold_sum metrics s view)
  in
  (* Carried when a reader built [prev]'s grants and both indexes are
     known. *)
  let grants =
    let built = function Handed i | Read i -> Some i | Unbuilt -> None in
    match carry with
    | Some p when few -> (
        match (Atomic.get p.grants, built (Atomic.get p.index),
               built (Atomic.get index)) with
        | Some g, Some from, Some idx ->
            Metrics.incr metrics "snapshot.grant_carries";
            Some (carry_grants scale ~from idx g view ~written:stats.Tree.changed)
        | _ -> None)
    | _ -> None
  in
  let t =
    {
      epoch;
      doc = view;
      gen = stats.Tree.frozen_gen;
      index;
      grants = Atomic.make grants;
      annotated;
      bits_annotated;
      policy;
      scale;
      digest;
      table = Atomic.make (empty_table 0);
      footprints =
        (match carry with
        | Some p -> p.footprints
        | None -> Hashtbl.create 64);
      metrics;
      lock = Mutex.create ();
      pins = 0;
    }
  in
  Option.iter (fun prev -> carry_forward ~prev ~stats ~footprint t) carry;
  t

let epoch t = t.epoch
let document t = t.doc

(* [live] still holds the writes since [t]'s freeze as its change set
   while [t] is its last freeze. *)
let digest ?live t =
  to_int32
    (match live with
    | None -> t.digest
    | Some doc
      when Tree.family doc = Tree.family t.doc
           && Tree.generation doc = t.gen + 1
           && not (Tree.frozen doc) ->
        Tree.fold_changed (moved t.scale ~before:t.doc ~after:doc) doc t.digest
    | Some doc -> fold_sum t.metrics t.scale doc)

(* A losing racer drops its own build and takes the published one.  A
   handed index is used only once the slot says [Read]: until then the
   writer may take it back ([take_back_index]) and write it. *)
let rec index t =
  match Atomic.get t.index with
  | Read i -> i
  | Handed i as slot ->
      if Atomic.compare_and_set t.index slot (Read i) then i else index t
  | Unbuilt ->
      let i = Index.build t.doc in
      if Atomic.compare_and_set t.index Unbuilt (Read i) then begin
        Metrics.incr t.metrics "snapshot.index_builds";
        i
      end
      else index t

let read_index t =
  match Atomic.get t.index with Read i -> Some i | Unbuilt | Handed _ -> None

let take_back_index t i =
  match Atomic.get t.index with
  | Handed j as slot when j == i -> Atomic.compare_and_set t.index slot Unbuilt
  | Unbuilt | Handed _ | Read _ -> false

let annotated t = t.annotated
let bits_annotated t = t.bits_annotated
let pins t = t.pins
let cached_decisions t = (Atomic.get t.table).size

(* Whether a request reads the rewrite lane; [resolve_lane] adds the
   reason. *)
let rewrite_lane ?subject ?(lane = Rewrite.Auto) t =
  match lane with
  | Rewrite.Materialized -> false
  | Rewrite.Rewrite -> true
  | Rewrite.Auto -> (
      match subject with
      | None -> not t.annotated
      | Some _ -> not t.bits_annotated)

let resolve_lane ?subject ?lane t =
  let rewrite = rewrite_lane ?subject ?lane t in
  ( (if rewrite then Rewrite.Rewrite else Rewrite.Materialized),
    match lane with
    | Some (Rewrite.Materialized | Rewrite.Rewrite) -> "forced"
    | _ -> if rewrite then "never-annotated store" else "annotated store" )

let cam t = Cam.build t.doc ~default:(Policy.ds t.policy)

(* The view's grant column, walked when [capture] carried none and
   published like [index]. *)
let rec grants t =
  match Atomic.get t.grants with
  | Some g -> g
  | None ->
      if Atomic.compare_and_set t.grants None (Some (walk_grants t.scale t.doc))
      then Metrics.incr t.metrics "snapshot.grant_builds";
      grants t

(* The subject's bit in the grant column. *)
let subject_bit ?subject t =
  match subject with
  | None -> t.scale.roles
  | Some role -> (
      match Subject.index (Policy.subjects t.policy) role with
      | Some i -> i
      | None -> invalid_arg ("Snapshot.request: unknown role " ^ role))

(* One bit of the node's grant: the value a CAM lookup rebuilds by
   walking up to the nearest sign change. *)
let accessible ?subject t =
  let bit = subject_bit ?subject t in
  let col = (grants t).(bit / w) and mask = 1 lsl (bit mod w) in
  fun r ->
    Deadline.checkpoint ();
    col.(r) land mask <> 0

(* A materialized memo's decision for the subject at [bit], read off
   its count.  A grant shares the answer list of any grant the memo
   already holds. *)
let fill (m : memo) bit =
  match m.blocked.(bit) with
  | 0 ->
      let rec granted = function
        | Decided { decision = Requester.Granted _ as d; _ } -> d
        | Decided d -> granted d.next
        | Nil -> Requester.Granted (Array.to_list (Option.get m.answers))
      in
      granted (Atomic.get m.decided)
  | blocked -> Requester.Denied { blocked }

(* The bits of grant word [k] that name a subject: the roles' and the
   anonymous subject's. *)
let subjects_in s k =
  let top = s.roles + 1 - (k * w) in
  if top >= w then -1 else (1 lsl top) - 1

(* Counts bit [b + i] of [counts] for each bit [i] set in [z]. *)
let rec count_bits counts z b =
  if z <> 0 then begin
    if z land 1 <> 0 then counts.(b) <- counts.(b) + 1;
    count_bits counts (z lsr 1) (b + 1)
  end

(* The materialized lane over the frozen state: evaluate on the view's
   index, then check each answer rank's grant, for every subject at
   once: the memo's [blocked]. *)
let materialized t query expr =
  let idx = index t and g = grants t in
  let ranks = Index.eval idx expr in
  Metrics.add t.metrics "snapshot.answers_checked" (Array.length ranks);
  let blocked = Array.make (t.scale.roles + 1) 0 in
  Array.iter
    (fun r ->
      Deadline.checkpoint ();
      for k = 0 to Array.length g - 1 do
        count_bits blocked (lnot g.(k).(r) land subjects_in t.scale k) (k * w)
      done)
    ranks;
  new_memo query expr (Some (Index.ids idx ranks)) blocked

(* The rewrite lane over the frozen state: compile the request against
   the frozen policy and evaluate the granted/residue pair on the
   view's index — no CAM, no sign, no bitmap, so a never-annotated
   frozen document still answers the true policy decision. *)
let rewritten_decision ?subject t expr =
  let compiled = Rewrite.compile ?subject t.policy expr in
  let answer = Rewrite.eval_scopes (Plan.index_scope (index t)) compiled in
  if answer.Rewrite.blocked > 0 then
    Requester.Denied { blocked = answer.Rewrite.blocked }
  else
    Requester.decide ~ids:answer.Rewrite.granted_ids
      ~accessible:(fun _ -> true)

(* A memoized text parsed when its memo was made. *)
let memoized t query =
  List.exists (fun m -> String.equal m.query query) (bucket_of (Atomic.get t.table) query)

(* A miss: the query evaluated once.  [held] is the query's rewrite-lane
   memo when it holds other subjects' decisions, each compiled for its
   own subject. *)
let evaluate ?subject ~rewrite ~misses ~fault ?held ?expr t query =
  Metrics.incr t.metrics misses;
  let expr =
    match (held, expr) with
    | Some m, _ -> m.expr
    | None, Some e -> e
    | None, None -> Requester.parse_or_fail query
  in
  (* The read path's injection site: lets the serve layer inject
     transient faults into live and pinned reads (retry tests, the
     chaos soak) without touching the stores. *)
  Fault.point fault;
  let remember m = with_lock t.lock (fun () -> remember t m) in
  if rewrite then begin
    Metrics.incr t.metrics "lane.rewrite";
    let d = rewritten_decision ?subject t expr in
    let m =
      match held with Some m -> m | None -> remember (new_memo query expr None [||])
    in
    decide m subject d
  end
  else begin
    Metrics.incr t.metrics "lane.materialized";
    let bit = subject_bit ?subject t in
    let m = materialized t query expr in
    decide (remember m) subject (fill m bit)
  end

(* A hit finds the subject's decision in the query's memo.  A fill
   finds the query memoized on the materialized lane but not the
   subject, and decides it from the memo's count.  A miss evaluates
   the query. *)
let request ?subject ?lane ?(live = false) ?expr t query =
  let rewrite = rewrite_lane ?subject ?lane t in
  let hits, fills, misses, fault =
    if live then ("cache.hits", "cache.fills", "cache.misses", "native.eval")
    else
      ( "snapshot.cache.hits",
        "snapshot.cache.fills",
        "snapshot.cache.misses",
        "snapshot.read" )
  in
  match find_memo ~rewrite (Atomic.get t.table) query with
  | m -> (
      match decision_of subject (Atomic.get m.decided) with
      | d ->
          Metrics.incr t.metrics hits;
          d
      | exception Not_found when rewrite ->
          evaluate ?subject ~rewrite ~misses ~fault ~held:m t query
      | exception Not_found ->
          let d = fill m (subject_bit ?subject t) in
          Metrics.incr t.metrics hits;
          Metrics.incr t.metrics fills;
          decide m subject d)
  | exception Not_found ->
      evaluate ?subject ~rewrite ~misses ~fault ?expr t query

(* --- registry ------------------------------------------------------ *)

type registry = {
  mutable current_snap : t option;
  mutable retired_snaps : t list;  (* pinned old snapshots, newest first *)
  mutable published_count : int;
  mutable reclaimed_count : int;
  mutable max_retired_count : int;
  reg_metrics : Metrics.t;
  reg_lock : Mutex.t;
}

let create_registry ~metrics () =
  {
    current_snap = None;
    retired_snaps = [];
    published_count = 0;
    reclaimed_count = 0;
    max_retired_count = 0;
    reg_metrics = metrics;
    reg_lock = Mutex.create ();
  }

let publish reg snap =
  (* Crash here = the epoch committed but its snapshot never became
     current; [Engine.recover]'s idempotent path republishes. *)
  Fault.point "snapshot.publish";
  let freed =
    with_lock reg.reg_lock (fun () ->
        let freed =
          match reg.current_snap with
          | None -> 0
          | Some old when old.pins = 0 -> 1  (* reclaimed on the spot *)
          | Some old ->
              reg.retired_snaps <- old :: reg.retired_snaps;
              0
        in
        reg.current_snap <- Some snap;
        reg.published_count <- reg.published_count + 1;
        reg.reclaimed_count <- reg.reclaimed_count + freed;
        let lag = List.length reg.retired_snaps in
        if lag > reg.max_retired_count then reg.max_retired_count <- lag;
        freed)
  in
  Metrics.incr reg.reg_metrics "snapshot.publishes";
  if freed > 0 then begin
    Metrics.add reg.reg_metrics "snapshot.reclaims" freed;
    Fault.point "snapshot.reclaim"
  end

let current reg = with_lock reg.reg_lock (fun () -> reg.current_snap)

let current_epoch reg =
  with_lock reg.reg_lock (fun () ->
      Option.map (fun s -> s.epoch) reg.current_snap)

let pin reg =
  let snap =
    with_lock reg.reg_lock (fun () ->
        match reg.current_snap with
        | None -> invalid_arg "Snapshot.pin: nothing published yet"
        | Some s ->
            s.pins <- s.pins + 1;
            s)
  in
  Metrics.incr reg.reg_metrics "snapshot.pins";
  snap

let unpin reg snap =
  let freed =
    with_lock reg.reg_lock (fun () ->
        if snap.pins <= 0 then invalid_arg "Snapshot.unpin: not pinned";
        snap.pins <- snap.pins - 1;
        let is_current =
          match reg.current_snap with Some c -> c == snap | None -> false
        in
        if snap.pins = 0 && not is_current then begin
          reg.retired_snaps <-
            List.filter (fun s -> s != snap) reg.retired_snaps;
          reg.reclaimed_count <- reg.reclaimed_count + 1;
          true
        end
        else false)
  in
  Metrics.incr reg.reg_metrics "snapshot.unpins";
  if freed then begin
    Metrics.incr reg.reg_metrics "snapshot.reclaims";
    Fault.point "snapshot.reclaim"
  end

let live reg =
  with_lock reg.reg_lock (fun () ->
      (match reg.current_snap with Some _ -> 1 | None -> 0)
      + List.length reg.retired_snaps)

let retired reg =
  with_lock reg.reg_lock (fun () -> List.length reg.retired_snaps)

let published reg = with_lock reg.reg_lock (fun () -> reg.published_count)
let reclaimed reg = with_lock reg.reg_lock (fun () -> reg.reclaimed_count)

let max_retired reg =
  with_lock reg.reg_lock (fun () -> reg.max_retired_count)

let pp_registry ppf reg =
  let cur, cur_pins, ret, pub, rec_, lag =
    with_lock reg.reg_lock (fun () ->
        ( Option.map (fun s -> s.epoch) reg.current_snap,
          (match reg.current_snap with Some s -> s.pins | None -> 0),
          List.length reg.retired_snaps,
          reg.published_count,
          reg.reclaimed_count,
          reg.max_retired_count ))
  in
  Format.fprintf ppf
    "snapshots: current epoch %s (%d pin%s), %d retired, %d published, %d \
     reclaimed, max lag %d"
    (match cur with None -> "none" | Some e -> string_of_int e)
    cur_pins
    (if cur_pins = 1 then "" else "s")
    ret pub rec_ lag
