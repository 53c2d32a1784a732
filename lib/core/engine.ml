module Tree = Xmlac_xml.Tree
module Sg = Xmlac_xml.Schema_graph
module Metrics = Xmlac_util.Metrics
module Fault = Xmlac_util.Fault

type backend_kind = Native

let all_backend_kinds = [ Native ]

(* One mutating operation: what an open sign epoch is attempting (so
   recovery can finish or abandon it after a simulated crash) and what
   a committed epoch ships to replicas. *)
type op =
  | Op_noop
  | Op_annotate
  | Op_annotate_subjects
  | Op_update of string
  | Op_insert of { at : string; fragment : Tree.t }

type open_op = {
  num : int;  (** The epoch number being attempted. *)
  op : op;
  saved_annotated : bool;
  saved_bits_annotated : bool;
  mutable prepared : Reannotator.prepared option;
      (** Pre-mutation repair state (signs, and bitmaps where they are
          materialized), stashed just before the structural apply —
          recovery's roll-forward input. *)
  mutable applied : bool;  (** Whether the structural mutation completed. *)
}

type direction = [ `None | `Back | `Forward ]

type recovery = {
  recovered_epoch : int option;
  direction : direction;
  signs_rolled_back : int;
}

type t = {
  policy : Policy.t;
  report : Optimizer.report option;
  mapping : Xmlac_shrex.Mapping.t;
  sg : Sg.t;
  depend : Depend.t;
  plan : Plan.t;
  doc : Tree.t;
  (* The native store over [doc], fault-wrapped and journaled, and its
     undo journal. *)
  backend : Backend.t;
  journal : Backend.journal;
  metrics : Metrics.t;
  (* [annotated] and [bits_annotated] record committed sign and bitmap
     annotation epochs, which decide the auto lane. *)
  mutable annotated : bool;
  mutable bits_annotated : bool;
  (* Sign epochs: [sign_epoch] is the last committed epoch (monotone,
     never reused downward); [open_op] is the uncommitted one a crash
     may have left behind. *)
  mutable sign_epoch : int;
  mutable open_op : open_op option;
  (* MVCC: every committed sign epoch is published as an immutable
     snapshot; readers pin one and never block on the writer. *)
  snapshots : Snapshot.registry;
  (* Replication: a read-only replica refuses caller mutations; only
     [apply_replica] (which sets [applying] for its extent) may open
     epochs on it.  Promotion flips [read_only] back off. *)
  mutable read_only : bool;
  mutable applying : bool;
  (* Whether every node of the native document sits at a label path of
     the schema ([Sg.covers]).  The schema-level overlap test that lets
     a snapshot memo survive a structural epoch assumes it; nothing
     validates inserts, so an off-schema one clears it for good. *)
  mutable on_schema : bool;
}

(* Freeze the committed materialization as of [sign_epoch] and install
   it as the current snapshot.  Called only between epochs (after
   [commit_op], at creation, after recovery) — never inside an open
   epoch — so a reader can never pin partial state. *)
let publish_snapshot ?footprint t =
  let snap =
    (* The annotation flags decide the snapshot's auto lane.  [prev]
       (the outgoing snapshot) feeds carry-forward: still-valid memos
       migrate and its maps are patched.  [footprint] is a structural
       epoch's trigger input, passed only while the document lies on
       the schema's paths, the premise of the [Overlap] test.  The
       capture itself is an O(changed) [Tree.freeze], not a copy. *)
    Snapshot.capture ?prev:(Snapshot.current t.snapshots)
      ?footprint:
        (match footprint with
        | Some exprs when t.on_schema -> Some (t.sg, exprs)
        | _ -> None)
      ~epoch:t.sign_epoch ~policy:t.policy ~annotated:t.annotated
      ~bits_annotated:t.bits_annotated ~metrics:t.metrics t.doc
  in
  Snapshot.publish t.snapshots snap

let schema_covers sg doc =
  (not (Sg.is_recursive sg)) && Sg.covers sg (Tree.root doc)

let create ?(optimize = true) ~dtd ~policy doc =
  let mapping = Xmlac_shrex.Mapping.of_dtd dtd in
  let sg = Xmlac_shrex.Mapping.schema_graph mapping in
  let report, policy =
    if optimize then
      let r = Optimizer.optimize policy in
      (Some r, r.Optimizer.result)
    else (None, policy)
  in
  let native_doc = Tree.copy doc in
  let journal = Backend.journal () in
  let metrics = Metrics.create () in
  let t =
  {
    policy;
    report;
    mapping;
    sg;
    (* The complete trigger: the sign and bitmap repairs both match
       annotating from scratch. *)
    depend = Depend.build ~mode:(Depend.Overlap sg) policy;
    plan = Plan.rewrite ~schema:sg (Plan.of_policy policy);
    doc = native_doc;
    backend =
      Backend.with_faults
        (Backend.journaled journal (Xml_backend.make native_doc));
    journal;
    metrics;
    annotated = false;
    bits_annotated = false;
    sign_epoch = 0;
    open_op = None;
    snapshots = Snapshot.create_registry ~metrics ();
    read_only = false;
    applying = false;
    on_schema = schema_covers sg native_doc;
  }
  in
  (* Epoch 0 (the load-time materialization) is a committed epoch like
     any other: publish it so readers can pin before the first
     mutation. *)
  publish_snapshot t;
  t

let policy t = t.policy
let optimizer_report t = t.report
let mapping t = t.mapping
let schema_graph t = t.sg
let depend t = t.depend
let plan t = t.plan
let metrics t = t.metrics
let epoch t = t.sign_epoch
let sign_epoch t = t.sign_epoch
let open_epoch t = Option.map (fun o -> o.num) t.open_op
let snapshots t = t.snapshots

let current_snapshot t =
  match Snapshot.current t.snapshots with
  | Some s -> s
  | None -> assert false (* published at creation, never emptied *)

let pin_snapshot t = Snapshot.pin t.snapshots
let unpin_snapshot t snap = Snapshot.unpin t.snapshots snap

let cam t = Snapshot.cam (current_snapshot t)
let backend t Native = t.backend
let wal _ Native = None

let explain ?(with_doc = true) t =
  Plan.explain ~schema:t.sg ~mapping:t.mapping
    ?doc:(if with_doc then Some t.doc else None)
    (Plan.of_policy t.policy)

let document t = t.doc

let role_index t role =
  match Subject.index (Policy.subjects t.policy) role with
  | Some i -> i
  | None ->
      invalid_arg
        (Printf.sprintf "Engine: unknown role %S (declared: %s)" role
           (String.concat ", " (Policy.roles t.policy)))

(* --- sign epochs --------------------------------------------------- *)

(* Every mutating operation runs inside a sign epoch: [begin_op] arms
   the undo journal, and only [commit_op] advances [sign_epoch].  A
   crash (Fault.Crash escaping the operation) leaves [open_op] set;
   {!recover} resolves it. *)
let begin_op t op =
  if t.read_only && not t.applying then
    invalid_arg
      "Engine: read-only replica refuses direct mutation (epochs arrive via \
       apply_replica; promote to make it writable)";
  (match t.open_op with
  | Some o ->
      invalid_arg
        (Printf.sprintf
           "Engine: epoch %d is open and uncommitted (crashed?); run recover \
            before mutating again"
           o.num)
  | None -> ());
  (* The last point before the epoch opens: a fault here leaves
     nothing to recover, so the serving layer simply retries. *)
  Fault.point "epoch.begin";
  let o =
    {
      num = t.sign_epoch + 1;
      op;
      saved_annotated = t.annotated;
      saved_bits_annotated = t.bits_annotated;
      prepared = None;
      applied = false;
    }
  in
  t.open_op <- Some o;
  Backend.journal_begin t.journal;
  o

(* Close the open epoch's journal under its number. *)
let close_op t o =
  Backend.journal_stop t.journal;
  t.sign_epoch <- o.num;
  t.open_op <- None

let commit_op ?footprint t o =
  (* The last point inside the epoch: the operation's writes are all
     done, and a crash here leaves them for recovery to resolve. *)
  Fault.point "epoch.commit";
  close_op t o;
  Metrics.incr t.metrics "epoch.commits";
  (* The epoch is durable; freeze it for readers.  A crash past this
     point (the snapshot.publish fault) leaves the registry one epoch
     behind — recovery's idempotent path republishes. *)
  publish_snapshot ?footprint t

let annotate t =
  let o = begin_op t Op_annotate in
  let stats = Annotator.annotate_with_plan t.backend t.plan in
  t.annotated <- true;
  commit_op t o;
  stats

let annotate_all t = [ (Native, annotate t) ]

let annotate_subjects t =
  let o = begin_op t Op_annotate_subjects in
  let stats =
    Metrics.time t.metrics "annotate.subjects" (fun () ->
        Annotator.annotate_subjects ~schema:t.sg t.backend t.policy)
  in
  t.bits_annotated <- true;
  commit_op t o;
  stats

let annotate_subjects_all t = [ (Native, annotate_subjects t) ]

(* The role's per-node sign, read off the bitmap layer: explicit where
   a bitmap is materialized, the role's resolved default elsewhere
   ([effective_bits] falls back to the policy's default bitmap, whose
   bit for [idx] encodes exactly that default). *)
let role_sign t b idx id =
  if
    Xmlac_util.Bitset.mem idx
      (Backend.effective_bits b ~default:(Policy.default_bits t.policy) id)
  then Tree.Plus
  else Tree.Minus

(* --- lane selection ------------------------------------------------ *)

(* The snapshot's resolver: a request reads the current snapshot, whose
   flags are the last published epoch's, not the live ones. *)
let resolve_lane ?subject ?lane t =
  Snapshot.resolve_lane ?subject ?lane (current_snapshot t)

let request ?subject ?lane t Native query =
  (* Validate the role up front so every path reports it alike. *)
  Option.iter (fun role -> ignore (role_index t role)) subject;
  (* Answered from the last committed epoch's snapshot, memoized
     there; a read never sees an open epoch. *)
  Snapshot.request ?subject ?lane ~live:true (current_snapshot t) query

(* The paper's requester: per-node sign (or per-role bit) reads
   through the backend. *)
let request_direct ?subject t Native query =
  let b = t.backend and expr = Requester.parse_or_fail query in
  match subject with
  | None -> Requester.request b ~default:(Policy.ds t.policy) expr
  | Some role ->
      Requester.request_via ~sign:(role_sign t b (role_index t role)) b expr

(* A structural operation's trigger input and its mutation of the
   store, returning the count of subtree roots it deleted or grafted.
   Parses eagerly, so a malformed expression raises before any epoch
   opens. *)
let structural t op =
  match op with
  | Op_update query ->
      let expr = Xmlac_xpath.Parser.parse_exn query in
      ([ expr ], fun () -> t.backend.Backend.delete_update expr)
  | Op_insert { at; fragment } ->
      let at_expr = Xmlac_xpath.Parser.parse_exn at in
      (* The trigger treats the insertion points — the grafted roots
         and everything below them — as the update. *)
      let frag_root = (Tree.root fragment).Tree.name in
      let root_path =
        Xmlac_xpath.Ast.
          { steps = at_expr.steps @ [ step Child (Name frag_root) ] }
      in
      let touched =
        [ root_path;
          Xmlac_xpath.Ast.
            { steps = root_path.steps @ [ step Descendant Wildcard ] } ]
      in
      ( touched,
        fun () ->
          Fault.point "native.insert";
          let roots =
            Xmlac_xmldb.Update.insert_nodes t.doc ~at:at_expr ~fragment
          in
          (* Nothing validates an insert against the DTD; a graft off
             the schema's paths ends the structural carry for good. *)
          if not (List.for_all (Sg.covers t.sg) roots) then
            t.on_schema <- false;
          List.length roots )
  | Op_noop | Op_annotate | Op_annotate_subjects ->
      invalid_arg "Engine: not a structural operation"

(* Apply a structural operation and repair the signs — and the role
   bitmaps, once an [annotate_subjects] epoch has materialized them:
   take the stashed pre-mutation repair state (or compute it while the
   store is untouched), apply the mutation unless it already
   completed, and run the repair's post-mutation phase.  Recovery's
   roll-forward resumes from what the crashed attempt recorded; its
   partial sign and bitmap writes were rolled back, so the repair
   recomputes them from the inputs the uninterrupted operation
   used. *)
let restructure t o (touched, apply) =
  let prepared =
    match o.prepared with
    | Some p -> p
    | None ->
        let p =
          Reannotator.prepare ~schema:t.sg ~bits:t.bits_annotated t.backend
            t.depend ~touched
        in
        o.prepared <- Some p;
        p
  in
  let deleted_roots =
    if o.applied then 0
    else begin
      let n = apply () in
      o.applied <- true;
      n
    end
  in
  Reannotator.finish ~schema:t.sg t.backend t.depend prepared ~deleted_roots

let mutate t op =
  let step = structural t op in
  let o = begin_op t op in
  let stats = restructure t o step in
  commit_op ~footprint:(fst step) t o;
  [ (Native, stats) ]

let update t query = mutate t (Op_update query)

(* The op record takes ownership of [fragment] as-is: every use — the
   graft and a crash-recovery roll-forward — only reads it
   ([Tree.graft] deep-copies into the target).  The aliasing contract
   (engine.mli): the caller must not mutate the fragment after handing
   it over. *)
let insert t ~at ~fragment = mutate t (Op_insert { at; fragment })

(* --- recovery ------------------------------------------------------ *)

let recover t =
  (* The simulated restart: clear the kill and every armed trigger
     before touching any store, as a fresh process would start clean. *)
  Fault.recover ();
  match t.open_op with
  | None ->
      (* Nothing was in flight: the crash (if any) hit outside an
         epoch and left no partial state.  This makes recover
         idempotent — a second call after a completed recovery finds
         no open epoch, so it leaves every counter and the request
         epoch untouched.  One exception: a crash that hit after
         commit but before the snapshot publish leaves the registry an
         epoch behind.  Republishing is invisible to every other
         observable (epoch, counters), so recover stays idempotent. *)
      if Snapshot.current_epoch t.snapshots <> Some t.sign_epoch then
        publish_snapshot t;
      { recovered_epoch = None; direction = `None; signs_rolled_back = 0 }
  | Some o ->
      Metrics.incr t.metrics "recovery.runs";
      (* Undo the crashed attempt's partial sign writes first; the
         journal was recording since [begin_op]. *)
      let signs_rolled_back = Backend.rollback t.journal in
      t.annotated <- o.saved_annotated;
      t.bits_annotated <- o.saved_bits_annotated;
      let direction =
        match o.op with
        | Op_annotate | Op_annotate_subjects | Op_noop ->
            (* Annotation-only operation: the rollback above already
               restored the pre-epoch materialization — signs and
               bitmaps both. *)
            `Back
        | Op_update _ | Op_insert _ ->
            (* Structural operation: the mutation may or may not have
               been applied; finishing it and re-running the repair —
               signs, and bitmaps where materialized — lands on the
               post-operation state. *)
            ignore (restructure t o (structural t o.op));
            `Forward
      in
      (* The epoch number is consumed either way — the counter never
         runs backwards, even across an aborted epoch. *)
      close_op t o;
      (* The recovered epoch is committed; publish it like any other.
         Readers pinned through the crash keep their pre-crash
         snapshot untouched. *)
      publish_snapshot t;
      Metrics.add t.metrics "recovery.signs_rolled_back" signs_rolled_back;
      { recovered_epoch = Some o.num; direction; signs_rolled_back }

let accessible t =
  Backend.accessible_ids t.backend ~default:(Policy.ds t.policy)

let accessible_subject t role =
  let idx = role_index t role in
  Backend.accessible_ids_role t.backend ~default:(Policy.default_bits t.policy)
    ~role:idx

(* --- replication ---------------------------------------------------- *)

let read_only t = t.read_only
let set_read_only t flag = t.read_only <- flag

let noop_epoch t =
  let o = begin_op t Op_noop in
  commit_op t o

let apply_replica t op =
  Fault.point "repl.apply";
  let was = t.applying in
  t.applying <- true;
  Fun.protect
    ~finally:(fun () -> t.applying <- was)
    (fun () ->
      match op with
      | Op_noop -> noop_epoch t
      | Op_annotate -> ignore (annotate t)
      | Op_annotate_subjects -> ignore (annotate_subjects t)
      | Op_update query -> ignore (update t query)
      | Op_insert { at; fragment } -> ignore (insert t ~at ~fragment))

(* A deterministic digest of the enforcement-relevant materialization:
   the anonymous accessible set and every declared role's accessible
   set.  Epoch counters are deliberately excluded — a
   replica whose crash recovery consumed extra local epoch numbers
   still converges on the leader's answers, and this digest is the
   arbiter of that convergence (shipped per frame, re-verified at
   promotion).

   One pass over [iter_live], folding ints straight into a 32-bit
   FNV-1a-style running sum.  A node nothing is granted on is skipped,
   so the digest depends on the accessible sets alone; a granted node
   contributes its id, then [(granted roles lsl 1) lor anonymous],
   then each granted role's bit index, between an opening [0] and a
   closing [-1].  The stream is prefix-free, and each step is a
   bijection of the running sum, so one changed word always changes
   the digest. *)
let state_checksum t =
  let nroles = Subject.count (Policy.subjects t.policy) in
  let ds = Policy.ds t.policy and dbits = Policy.default_bits t.policy in
  let h = ref 0x811c9dc5 in
  let mix x = h := (!h lxor x) * 0x01000193 land 0xffff_ffff in
  mix 0;
  t.backend.Backend.iter_live (fun id sign bits ->
      let anon = if Option.value sign ~default:ds = Tree.Plus then 1 else 0 in
      let bits = Option.value bits ~default:dbits in
      let granted =
        Xmlac_util.Bitset.fold
          (fun i n -> if i < nroles then n + 1 else n)
          bits 0
      in
      if anon = 1 || granted > 0 then begin
        mix id;
        mix ((granted lsl 1) lor anon);
        Xmlac_util.Bitset.iter (fun i -> if i < nroles then mix i) bits
      end);
  mix (-1);
  Int32.of_int !h
