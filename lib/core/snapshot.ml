module Tree = Xmlac_xml.Tree
module Ast = Xmlac_xpath.Ast
module Index = Xmlac_xpath.Index
module Schema_match = Xmlac_xpath.Schema_match
module Metrics = Xmlac_util.Metrics
module Fault = Xmlac_util.Fault
module Deadline = Xmlac_util.Deadline

(* A memoized decision.  On the materialized lane it keeps the sorted
   ids of the query's answers — for a granted decision the very list
   it grants — because the check reads each answer's own annotation,
   and carry-forward must show the epoch wrote none of them.  A
   rewrite-lane entry read no annotation and keeps no answers
   ([None]).  The query, as text and parsed, feeds the structural
   carry test; [footprint] keeps its schema footprint once that test
   computed it.  Only the writer (carry-forward) sets it, and a carried
   memo takes it along. *)
type memo = {
  query : string;
  expr : Ast.expr;
  answers : int list option;
  decision : Requester.decision;
  mutable footprint : Schema_match.footprint option;
}

let memo_capacity = 256

(* Footprints of recently memoized queries, by query text: a memo a
   reader created since the last structural capture finds its query's
   footprint here when another memo (another subject, or an evicted
   entry) already computed it.  Emptied when it reaches this size. *)
let footprint_capacity = 8 * memo_capacity

(* A snapshot's index slot.  [Handed] holds the index the writer built
   after the epoch's structural write; [Read] one a reader has
   evaluated on, built or taken over — the demand the writer's next
   repair follows. *)
type index_slot = Unbuilt | Handed of Index.t | Read of Index.t

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
  records : Tree.node array option Atomic.t;
      (* The view's node records by preorder rank, in [index]'s order:
         what a materialized miss reads each answer's annotation from.
         Built and published like [index], but never shared: a
         sign-only epoch's view holds new records for what it wrote. *)
  annotated : bool;  (* signs had a committed annotation epoch at capture *)
  bits_annotated : bool;  (* ... and likewise the role bitmaps *)
  policy : Policy.t;
  memos : (string, memo) Hashtbl.t;
  order : string Queue.t;
      (* The memo table, bounded at [memo_capacity] and evicted in
         insertion order; [order] holds exactly the keys of [memos].
         The epoch is fixed for the snapshot's lifetime, so entries
         never go stale.  Guarded by [lock]. *)
  mutable footprints : (string, Schema_match.footprint) Hashtbl.t;
      (* Bounded at [footprint_capacity] and handed on to the next
         snapshot of a continuous chain; only [capture], which the
         single writer runs, reads or writes it. *)
  metrics : Metrics.t;
  lock : Mutex.t;
      (* Guards [memos] and [order]; the rest is frozen.
         The pin count is guarded by the owning registry's lock
         instead, so pin/publish/reclaim are atomic with respect to
         each other. *)
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

(* Must run under [t.lock]. *)
let remember t key m =
  if not (Hashtbl.mem t.memos key) then begin
    if Hashtbl.length t.memos >= memo_capacity then
      Hashtbl.remove t.memos (Queue.take t.order);
    Queue.add key t.order
  end;
  Hashtbl.replace t.memos key m

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

   All of it is gated on provenance: the captured view must be the
   very next generation of the same tree family as [prev]'s, under
   the same (physically equal) policy — otherwise the tree-level
   change set does not describe the gap between the two snapshots and
   the new snapshot simply starts cold (correct, just slower). *)
let carry_forward ~prev ~stats ~footprint t =
  let continuous =
    Tree.family prev.doc = Tree.family t.doc
    && stats.Tree.frozen_gen = prev.gen + 1
    && prev.policy == t.policy
  in
  if continuous then begin
    let entries =
      with_lock prev.lock (fun () ->
          Queue.fold (fun acc k -> (k, Hashtbl.find prev.memos k) :: acc) []
            prev.order
          |> List.rev)
    in
    let changed = stats.Tree.changed in
    let update =
      match footprint with
      | Some (sg, exprs) when stats.Tree.structural ->
          Some (sg, Schema_match.footprint sg exprs)
      | _ -> None
    in
    t.footprints <- prev.footprints;
    let query_footprint sg m =
      match m.footprint with
      | Some fp -> fp
      | None ->
          let fp =
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
          m.footprint <- Some fp;
          fp
    in
    (* Whether the epoch's structural change provably missed [m]'s
       answer set. *)
    let missed m =
      (not stats.Tree.structural)
      ||
      match (m.answers, update) with
      | None, _ | _, None -> false
      | Some _, Some (sg, ufp) ->
          let fp = query_footprint sg m in
          not
            (Schema_match.footprint_is_empty fp
            || Schema_match.footprint_is_empty ufp
            || Schema_match.footprints_meet fp ufp)
    in
    (* Both lists ascend, so one merge shows whether they share an
       id. *)
    let rec disjoint (a : int list) (b : int list) =
      match (a, b) with
      | [], _ | _, [] -> true
      | x :: a', y :: b' ->
          if x < y then disjoint a' b
          else if y < x then disjoint a b'
          else false
    in
    let clean m =
      match m.answers with
      | None -> true
      | Some answers -> disjoint answers changed
    in
    let carried = ref 0 and by_footprint = ref 0 and by_written = ref 0 in
    let kept =
      List.filter_map
        (fun (key, m) ->
          if not (missed m) then begin
            incr by_footprint;
            None
          end
          else if clean m then begin
            incr carried;
            Some (key, m)
          end
          else begin
            incr by_written;
            None
          end)
        entries
    in
    with_lock t.lock (fun () -> List.iter (fun (key, m) -> remember t key m) kept);
    let count name n = if n > 0 then Metrics.add t.metrics name n in
    count "snapshot.cache.carried" !carried;
    count "snapshot.cache.dropped.footprint" !by_footprint;
    count "snapshot.cache.dropped.written" !by_written
  end

let capture ?(annotated = true) ?(bits_annotated = true) ?prev ?footprint
    ?index ?cam:_ ~epoch ~policy ~metrics doc =
  let view, stats = Tree.freeze doc in
  Metrics.incr metrics "snapshot.captures";
  let index =
    match (index, prev) with
    | Some i, _ when Index.describes i view -> Atomic.make (Handed i)
    (* A sign-only epoch leaves the encoding where it was, so the next
       view takes over its predecessor's index slot, built or not. *)
    | _, Some p
      when Tree.family p.doc = Tree.family view
           && stats.Tree.frozen_gen = p.gen + 1
           && not stats.Tree.structural ->
        Metrics.incr metrics "snapshot.index_shared";
        p.index
    | _ -> Atomic.make Unbuilt
  in
  let t =
    {
      epoch;
      doc = view;
      gen = stats.Tree.frozen_gen;
      index;
      records = Atomic.make None;
      annotated;
      bits_annotated;
      policy;
      memos = Hashtbl.create 64;
      order = Queue.create ();
      footprints = Hashtbl.create 64;
      metrics;
      lock = Mutex.create ();
      pins = 0;
    }
  in
  (match prev with
  | Some p -> carry_forward ~prev:p ~stats ~footprint t
  | None -> ());
  t

let epoch t = t.epoch
let document t = t.doc

(* A losing racer drops its own build and takes the published one. *)
let rec index t =
  match Atomic.get t.index with
  | Read i -> i
  | Handed i as slot ->
      ignore (Atomic.compare_and_set t.index slot (Read i));
      i
  | Unbuilt ->
      let i = Index.build t.doc in
      if Atomic.compare_and_set t.index Unbuilt (Read i) then begin
        Metrics.incr t.metrics "snapshot.index_builds";
        i
      end
      else index t

let read_index t =
  match Atomic.get t.index with Read i -> Some i | Unbuilt | Handed _ -> None

let annotated t = t.annotated
let bits_annotated t = t.bits_annotated
let pins t = t.pins
let cached_decisions t = with_lock t.lock (fun () -> Hashtbl.length t.memos)

let resolve_lane ?subject ?(lane = Rewrite.Auto) t =
  match lane with
  | Rewrite.Materialized -> (Rewrite.Materialized, "forced")
  | Rewrite.Rewrite -> (Rewrite.Rewrite, "forced")
  | Rewrite.Auto ->
      let ann =
        match subject with None -> t.annotated | Some _ -> t.bits_annotated
      in
      if ann then (Rewrite.Materialized, "annotated store")
      else (Rewrite.Rewrite, "never-annotated store")

let cam t = Cam.build t.doc ~default:(Policy.ds t.policy)

(* The view's records by rank: [Tree.iter] walks the same preorder as
   [Index.build], and a sign-only epoch (which may hand the index on)
   moves no node.  Published like [index]. *)
let records t =
  match Atomic.get t.records with
  | Some a -> a
  | None ->
      let n = Index.length (index t) in
      let a = Array.make n (Tree.root t.doc) and next = ref 0 in
      Tree.iter
        (fun node ->
          a.(!next) <- node;
          incr next)
        t.doc;
      assert (!next = n);
      if Atomic.compare_and_set t.records None (Some a) then begin
        Metrics.incr t.metrics "snapshot.record_builds";
        a
      end
      else Option.get (Atomic.get t.records)

(* A node's effective sign (or role bit) is its own annotation, else
   the default: the value a CAM lookup rebuilds by walking up to the
   nearest sign change, read off the record directly. *)
let accessible ?subject t =
  let plus =
    match subject with
    | None ->
        let default = Policy.ds t.policy in
        fun (n : Tree.node) -> Option.value n.Tree.sign ~default = Tree.Plus
    | Some role ->
        let bit =
          match Subject.index (Policy.subjects t.policy) role with
          | Some i -> i
          | None -> invalid_arg ("Snapshot.request: unknown role " ^ role)
        in
        let default = Policy.resolved_ds t.policy role = Tree.Plus in
        fun n ->
          match n.Tree.bits with
          | Some b -> Xmlac_util.Bitset.mem bit b
          | None -> default
  in
  let recs = records t in
  fun r ->
    Deadline.checkpoint ();
    plus recs.(r)

(* The materialized lane over the frozen state: evaluate on the view's
   index, then check each answer rank's own record. *)
let materialized_decision ?subject t expr =
  let accessible = accessible ?subject t in
  let idx = index t in
  let ranks = Index.eval idx expr in
  Metrics.add t.metrics "snapshot.answers_checked" (Array.length ranks);
  let answers = Array.to_list (Index.ids idx ranks) in
  let d =
    match Requester.count_blocked ranks ~accessible with
    | 0 -> Requester.Granted answers
    | blocked -> Requester.Denied { blocked }
  in
  (Some answers, d)

(* The rewrite lane over the frozen state: compile the request against
   the frozen policy and evaluate the granted/residue pair on the
   view's index — no CAM, no sign, no bitmap, so a never-annotated
   frozen document still answers the true policy decision. *)
let rewritten_decision ?subject t expr =
  let compiled = Rewrite.compile ?subject t.policy expr in
  let answer = Rewrite.eval_scopes (Plan.index_scope (index t)) compiled in
  let d =
    if answer.Rewrite.blocked > 0 then
      Requester.Denied { blocked = answer.Rewrite.blocked }
    else
      Requester.decide ~ids:answer.Rewrite.granted_ids
        ~accessible:(fun _ -> true)
  in
  (None, d)

let request ?subject ?lane ?(live = false) t query =
  let lane, _reason = resolve_lane ?subject ?lane t in
  let lane_tag = match lane with Rewrite.Rewrite -> "R" | _ -> "M" in
  let key =
    match subject with
    | None -> lane_tag ^ "\x00" ^ query
    | Some role -> lane_tag ^ "@" ^ role ^ "\x00" ^ query
  in
  let hits, misses, fault =
    if live then ("cache.hits", "cache.misses", "native.eval")
    else ("snapshot.cache.hits", "snapshot.cache.misses", "snapshot.read")
  in
  match with_lock t.lock (fun () -> Hashtbl.find_opt t.memos key) with
  | Some m ->
      Metrics.incr t.metrics hits;
      m.decision
  | None ->
      Metrics.incr t.metrics misses;
      let expr = Requester.parse_or_fail query in
      (* The read path's injection site: lets the serve layer inject
         transient faults into live and pinned reads (retry tests, the
         chaos soak) without touching the stores. *)
      Fault.point fault;
      let answers, decision =
        match lane with
        | Rewrite.Rewrite ->
            Metrics.incr t.metrics "lane.rewrite";
            rewritten_decision ?subject t expr
        | _ ->
            Metrics.incr t.metrics "lane.materialized";
            materialized_decision ?subject t expr
      in
      let m = { query; expr; answers; decision; footprint = None } in
      with_lock t.lock (fun () -> remember t key m);
      decision

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
