module Tree = Xmlac_xml.Tree
module Sg = Xmlac_xml.Schema_graph
module Db = Xmlac_reldb.Database
module Table = Xmlac_reldb.Table
module Wal = Xmlac_reldb.Wal
module Metrics = Xmlac_util.Metrics
module Fault = Xmlac_util.Fault

type backend_kind = Native | Row_sql | Column_sql

let backend_kind_to_string = function
  | Native -> "native"
  | Row_sql -> "row-sql"
  | Column_sql -> "column-sql"

let fault_prefix = function
  | Native -> "native"
  | Row_sql -> "row"
  | Column_sql -> "column"

let all_backend_kinds = [ Native; Row_sql; Column_sql ]

(* One mutating operation: what an open sign epoch is attempting (so
   recovery can finish or abandon it after a simulated crash) and what
   a committed epoch ships to replicas. *)
type op =
  | Op_noop
  | Op_annotate of backend_kind
  | Op_annotate_subjects of backend_kind
  | Op_update of string
  | Op_insert of { at : string; fragment : Tree.t }

type open_op = {
  num : int;  (** The epoch number being attempted. *)
  op : op;
  saved_annotated : backend_kind list;
  saved_bits_annotated : backend_kind list;
  saved_divergent : bool;
  mutable prepared : (backend_kind * Reannotator.prepared) list;
      (** Pre-mutation repair state (signs, and bitmaps where they are
          materialized), stashed per backend just before its
          structural apply — recovery's roll-forward input. *)
  mutable applied : backend_kind list;
      (** Backends whose structural mutation completed. *)
  mutable new_roots : Tree.node list;  (** Grafted roots (insert only). *)
}

type direction = [ `None | `Back | `Forward ]

type recovery = {
  recovered_epoch : int option;
  direction : direction;
  wal_dropped : int;
  signs_rolled_back : int;
  repaired : backend_kind list;
}

(* One held store: its (fault-wrapped, journaled) backend and undo
   journal, plus — for a relational mirror only — its database and
   that database's WAL. *)
type store = {
  kind : backend_kind;
  backend : Backend.t;
  journal : Backend.journal;
  mirror : (Db.t * Wal.t) option;
}

type t = {
  policy : Policy.t;
  original_policy : Policy.t;
  report : Optimizer.report option;
  mapping : Xmlac_shrex.Mapping.t;
  sg : Sg.t;
  depend : Depend.t;
  plan : Plan.t;
  doc : Tree.t;
  (* The held stores, native first; the relational mirrors only when
     created [~mirrored]. *)
  stores : store list;
  metrics : Metrics.t;
  (* A CAM over the native store's signs, maintained incrementally;
     every published snapshot freezes it.  [annotated] lists the kinds
     annotated so far, which decides the auto lane. *)
  mutable cam : Cam.t;
  mutable epoch : int;
  mutable annotated : backend_kind list;
  mutable bits_annotated : backend_kind list;
  mutable divergent : bool;
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
    (* The annotation flags describe the native tree being frozen —
       that is what snapshot requests read — so [Snapshot.request]'s
       auto lane can route a never-annotated frozen document through
       the rewrite lane instead of its default-sign CAM.  [prev] (the
       outgoing snapshot) feeds carry-forward: the capture compares
       the tree-level change set against it and migrates still-valid
       memoized decisions and patched per-role maps instead of
       cold-starting.  [footprint] is a structural epoch's trigger
       input, the same update expressions the [Overlap] trigger tested
       the rules against; it is passed only while the document lies on
       the schema's paths, the premise of that test.  The capture
       itself is an O(changed) [Tree.freeze], not a copy. *)
    Snapshot.capture ?prev:(Snapshot.current t.snapshots)
      ?footprint:
        (match footprint with
        | Some exprs when t.on_schema -> Some (t.sg, exprs)
        | _ -> None)
      ~epoch:t.sign_epoch ~policy:t.policy ~cam:t.cam
      ~annotated:(List.mem Native t.annotated || t.divergent)
      ~bits_annotated:(List.mem Native t.bits_annotated || t.divergent)
      ~metrics:t.metrics t.doc
  in
  Snapshot.publish t.snapshots snap

let schema_covers sg doc =
  (not (Sg.is_recursive sg)) && Sg.covers sg (Tree.root doc)

let create ?(optimize = true) ?(mirrored = false) ~dtd ~policy doc =
  let mapping = Xmlac_shrex.Mapping.of_dtd dtd in
  let sg = Xmlac_shrex.Mapping.schema_graph mapping in
  let original_policy = policy in
  let report, policy =
    if optimize then
      let r = Optimizer.optimize policy in
      (Some r, r.Optimizer.result)
    else (None, policy)
  in
  let native_doc = Tree.copy doc in
  let store kind base mirror =
    let journal = Backend.journal () in
    {
      kind;
      backend =
        Backend.with_faults ~prefix:(fault_prefix kind)
          (Backend.journaled journal base);
      journal;
      mirror;
    }
  in
  let relational kind engine =
    let db = Db.create engine in
    ignore
      (Xmlac_shrex.Shred.load mapping
         ~default_sign:(Rule.effect_to_string (Policy.ds policy))
         ~default_bits:(Policy.default_bits policy) db doc);
    (* The bulk load above is the base image (checkpoint); journaling
       starts with the first mutating epoch, as with a real bulk load
       that bypasses the WAL. *)
    let wal = Wal.create () in
    Db.set_wal db (Some wal);
    store kind (Rel_backend.make mapping db) (Some (db, wal))
  in
  let stores =
    store Native (Xml_backend.make native_doc) None
    :: (if mirrored then
          [ relational Row_sql Table.Row; relational Column_sql Table.Column ]
        else [])
  in
  let metrics = Metrics.create () in
  let t =
  {
    policy;
    original_policy;
    report;
    mapping;
    sg;
    (* The complete trigger: the sign and bitmap repairs both match
       annotating from scratch. *)
    depend = Depend.build ~mode:(Depend.Overlap sg) policy;
    plan = Plan.rewrite ~schema:sg (Plan.of_policy policy);
    doc = native_doc;
    stores;
    metrics;
    cam = Cam.build native_doc ~default:(Policy.ds policy);
    epoch = 0;
    annotated = [];
    bits_annotated = [];
    divergent = false;
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
let original_policy t = t.original_policy
let optimizer_report t = t.report
let mapping t = t.mapping
let schema_graph t = t.sg
let depend t = t.depend
let plan t = t.plan
let metrics t = t.metrics
let cam t = t.cam
let epoch t = t.epoch
let sign_epoch t = t.sign_epoch
let open_epoch t = Option.map (fun o -> o.num) t.open_op
let snapshots t = t.snapshots

let current_snapshot t =
  match Snapshot.current t.snapshots with
  | Some s -> s
  | None -> assert false (* published at creation, never emptied *)

let pin_snapshot t = Snapshot.pin t.snapshots
let unpin_snapshot t snap = Snapshot.unpin t.snapshots snap

let kinds t = List.map (fun s -> s.kind) t.stores

let find t kind = List.find_opt (fun s -> s.kind = kind) t.stores

let backend t kind =
  match find t kind with
  | Some s -> s.backend
  | None ->
      invalid_arg
        (Printf.sprintf
           "Engine: the %s store is not held (create the engine ~mirrored)"
           (backend_kind_to_string kind))

let wal t kind = Option.bind (find t kind) (fun s -> Option.map snd s.mirror)

let wals t = List.filter_map (fun s -> Option.map snd s.mirror) t.stores
let begin_wals t num = List.iter (fun w -> Wal.begin_epoch w num) (wals t)

let explain ?(with_doc = true) t =
  Plan.explain ~schema:t.sg ~mapping:t.mapping
    ?doc:(if with_doc then Some t.doc else None)
    (Plan.of_policy t.policy)

let document t = t.doc

let bump_epoch t = t.epoch <- t.epoch + 1

let role_index t role =
  match Subject.index (Policy.subjects t.policy) role with
  | Some i -> i
  | None ->
      invalid_arg
        (Printf.sprintf "Engine: unknown role %S (declared: %s)" role
           (String.concat ", " (Policy.roles t.policy)))

let rebuild_cam t =
  Metrics.incr t.metrics "cam.full_rebuilds";
  t.cam <- Cam.build t.doc ~default:(Policy.ds t.policy)

(* Incremental CAM maintenance from the re-annotator's changed-id
   report (plus the roots of freshly grafted subtrees); any failure
   falls back to a full rebuild, counted so the bench can see it. *)
let maintain_cam t ~changed ~roots =
  Fault.point "cam.repair";
  Metrics.time t.metrics "cam.maintain" (fun () ->
      match
        let touched = Cam.apply_changes t.cam t.doc ~changed in
        let touched =
          List.fold_left
            (fun acc root -> acc + Cam.rebuild_subtree t.cam t.doc ~root)
            touched roots
        in
        let purged = Cam.purge t.cam t.doc in
        (touched, purged)
      with
      | touched, purged ->
          Metrics.add t.metrics "cam.touched" touched;
          Metrics.add t.metrics "cam.purged" purged
      | exception (Fault.Crash _ as e) -> raise e
      | exception _ -> rebuild_cam t)

let cam_check t =
  let fresh = Cam.build t.doc ~default:(Policy.ds t.policy) in
  let ok = Cam.equal t.cam fresh in
  if not ok then begin
    Metrics.incr t.metrics "cam.check_failures";
    t.cam <- fresh
  end;
  ok

let refresh t =
  bump_epoch t;
  t.divergent <- true;
  t.annotated <- [];
  t.bits_annotated <- [];
  t.on_schema <- schema_covers t.sg t.doc;
  rebuild_cam t;
  (* The signs moved behind the engine's back; the current snapshot no
     longer reflects them.  Republish under the same sign epoch —
     already-pinned readers keep their (now historical) version. *)
  publish_snapshot t

(* --- sign epochs --------------------------------------------------- *)

(* Every mutating operation runs inside a sign epoch: begin markers hit
   every relational WAL and arm the per-store undo journals, and only
   [commit_op] advances [sign_epoch].  A crash (Fault.Crash escaping
   the operation) leaves [open_op] set; {!recover} resolves it. *)
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
  let num = t.sign_epoch + 1 in
  begin_wals t num;
  let o =
    {
      num;
      op;
      saved_annotated = t.annotated;
      saved_bits_annotated = t.bits_annotated;
      saved_divergent = t.divergent;
      prepared = [];
      applied = [];
      new_roots = [];
    }
  in
  t.open_op <- Some o;
  List.iter (fun s -> Backend.journal_begin s.journal) t.stores;
  o

(* Close the open epoch's WAL frames and journals under its number. *)
let close_op t o =
  List.iter (fun w -> Wal.commit_epoch w o.num) (wals t);
  List.iter (fun s -> Backend.journal_stop s.journal) t.stores;
  t.sign_epoch <- o.num;
  t.open_op <- None

let commit_op ?footprint t o =
  close_op t o;
  Metrics.incr t.metrics "epoch.commits";
  (* The epoch is durable; freeze it for readers.  A crash past this
     point (the snapshot.publish fault) leaves the registry one epoch
     behind — recovery's idempotent path republishes. *)
  publish_snapshot ?footprint t

let annotate t kind =
  let b = backend t kind in
  let o = begin_op t (Op_annotate kind) in
  let stats = Annotator.annotate_with_plan b t.plan in
  bump_epoch t;
  if not (List.mem kind t.annotated) then t.annotated <- kind :: t.annotated;
  if List.for_all (fun s -> List.mem s.kind t.annotated) t.stores then
    t.divergent <- false;
  if kind = Native then
    t.cam <- Cam.build t.doc ~default:(Policy.ds t.policy);
  commit_op t o;
  stats

let annotate_all t = List.map (fun s -> (s.kind, annotate t s.kind)) t.stores

let annotate_subjects t kind =
  let b = backend t kind in
  let o = begin_op t (Op_annotate_subjects kind) in
  let stats =
    Metrics.time t.metrics "annotate.subjects" (fun () ->
        Annotator.annotate_subjects ~schema:t.sg b t.policy)
  in
  bump_epoch t;
  if not (List.mem kind t.bits_annotated) then
    t.bits_annotated <- kind :: t.bits_annotated;
  commit_op t o;
  stats

let annotate_subjects_all t =
  List.map (fun s -> (s.kind, annotate_subjects t s.kind)) t.stores

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

(* Whether the materialized layer a request would read — signs for the
   anonymous subject, role bitmaps for a named one — has a committed
   annotation epoch on this store. *)
let lane_annotated ?subject t kind =
  match subject with
  | None -> List.mem kind t.annotated
  | Some _ -> List.mem kind t.bits_annotated

let resolve_lane ?subject ?(lane = Rewrite.Auto) t kind =
  match lane with
  | Rewrite.Materialized -> (Rewrite.Materialized, "forced")
  | Rewrite.Rewrite -> (Rewrite.Rewrite, "forced")
  | Rewrite.Auto ->
      if lane_annotated ?subject t kind then
        (Rewrite.Materialized, "annotated store")
      else if t.divergent then
        (* [refresh] declared the signs mutated behind the engine's
           back: the store {e is} materialized (the CAM was rebuilt
           from whatever is there), the engine just cannot vouch for a
           committed annotation epoch — serve what the operator
           installed, not the policy recompilation. *)
        (Rewrite.Materialized, "diverged store")
      else (Rewrite.Rewrite, "never-annotated store")

(* The materialized lane read straight off one store: per-node sign
   (or per-role bit) reads through the backend. *)
let request_signs ?subject t kind expr =
  let b = backend t kind in
  match subject with
  | None -> Requester.request b ~default:(Policy.ds t.policy) expr
  | Some role ->
      Requester.request_via ~sign:(role_sign t b (role_index t role)) b expr

let request ?subject ?lane t kind query =
  (* Validate the role up front so every path reports it alike. *)
  Option.iter (fun role -> ignore (role_index t role)) subject;
  match kind with
  | Native ->
      (* The native store answers from the last committed epoch's
         snapshot, memoized there; a read never sees an open epoch. *)
      Snapshot.request ?subject ?lane ~live:true (current_snapshot t) query
  | Row_sql | Column_sql -> (
      let b = backend t kind in
      let expr = Requester.parse_or_fail query in
      match resolve_lane ?subject ?lane t kind with
      | Rewrite.Rewrite, _ ->
          (* Compiled against the policy (the cached engine plan for
             the anonymous subject, the role's projection otherwise)
             and evaluated through the store: zero sign or bitmap
             reads, so a cold store answers the true policy
             decision. *)
          Metrics.incr t.metrics "lane.rewrite";
          (match subject with
          | None ->
              Requester.request_rewritten ~schema:t.sg ~plan:t.plan b t.policy
                expr
          | Some role ->
              Requester.request_rewritten ~schema:t.sg ~subject:role b
                t.policy expr)
      | _ ->
          Metrics.incr t.metrics "lane.materialized";
          request_signs ?subject t kind expr)

let request_direct ?subject t kind query =
  request_signs ?subject t kind (Requester.parse_or_fail query)

(* A structural operation's trigger input and its mutation of one
   store, returning the count of subtree roots it deleted or grafted.
   An insert grafts into the native tree first (the store list puts it
   first) and records the fresh roots; each relational mirror then
   shreds those same roots — same universal ids — into its database.
   Parses eagerly, so a malformed expression raises before any epoch
   opens. *)
let structural t op =
  match op with
  | Op_update query ->
      let expr = Xmlac_xpath.Parser.parse_exn query in
      ([ expr ], fun _ s -> s.backend.Backend.delete_update expr)
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
      let default_sign = Rule.effect_to_string (Policy.ds t.policy) in
      let default_bits = Policy.default_bits t.policy in
      ( touched,
        fun o s ->
          Fault.point (fault_prefix s.kind ^ ".insert");
          (match s.mirror with
          | None ->
              o.new_roots <-
                Xmlac_xmldb.Update.insert_nodes t.doc ~at:at_expr ~fragment;
              (* Nothing validates an insert against the DTD; a graft
                 off the schema's paths ends the structural carry for
                 good. *)
              if not (List.for_all (Sg.covers t.sg) o.new_roots) then
                t.on_schema <- false
          | Some (db, _) ->
              List.iter
                (fun root ->
                  ignore
                    (Xmlac_shrex.Shred.insert_subtree t.mapping ~default_sign
                       ~default_bits db root))
                o.new_roots);
          List.length o.new_roots )
  | Op_noop | Op_annotate _ | Op_annotate_subjects _ ->
      invalid_arg "Engine: not a structural operation"

(* Apply a structural operation to every held store and repair its
   signs — and its role bitmaps, once an [annotate_subjects] epoch has
   materialized them there.  Per store: take the stashed pre-mutation
   repair state (or compute it while the store is untouched), apply the
   mutation unless it already completed, and run the repair's
   post-mutation phase.  Recovery's roll-forward resumes from what the
   crashed attempt recorded; its partial sign and bitmap writes were
   rolled back, so the repair recomputes them from the inputs the
   uninterrupted operation used. *)
let restructure t o (touched, apply) =
  List.map
    (fun s ->
      let prepared =
        match List.assoc_opt s.kind o.prepared with
        | Some p -> p
        | None ->
            let p =
              Reannotator.prepare ~schema:t.sg
                ~bits:(List.mem s.kind t.bits_annotated)
                s.backend t.depend ~touched
            in
            o.prepared <- (s.kind, p) :: o.prepared;
            p
      in
      let deleted_roots =
        if List.mem s.kind o.applied then 0
        else begin
          let n = apply o s in
          o.applied <- s.kind :: o.applied;
          n
        end
      in
      ( s.kind,
        Reannotator.finish ~schema:t.sg s.backend t.depend prepared
          ~deleted_roots ))
    t.stores

let mutate t op =
  let step = structural t op in
  let o = begin_op t op in
  let stats = restructure t o step in
  bump_epoch t;
  (* Repair the CAM from the native store's changed-id report plus the
     roots of freshly grafted subtrees. *)
  maintain_cam t
    ~changed:(List.assoc Native stats).Reannotator.changed
    ~roots:(List.map (fun (n : Tree.node) -> n.Tree.id) o.new_roots);
  commit_op ~footprint:(fst step) t o;
  stats

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
  let wal_dropped =
    List.fold_left (fun acc w -> acc + Wal.recover w) 0 (wals t)
  in
  match t.open_op with
  | None ->
      (* Nothing was in flight: the crash (if any) hit outside an
         epoch and left no partial state.  This makes recover
         idempotent — a second call after a completed recovery finds
         committed WAL tails and no open epoch, so it leaves every
         counter, the request epoch and the CAM untouched. *)
      if wal_dropped > 0 then begin
        Metrics.incr t.metrics "recovery.runs";
        Metrics.add t.metrics "recovery.wal_dropped" wal_dropped
      end;
      (* One exception to "leave everything untouched": a crash that
         hit after commit but before the snapshot publish leaves the
         registry an epoch behind.  Republishing is invisible to every
         other observable (epoch, counters, CAM), so recover stays
         idempotent. *)
      if Snapshot.current_epoch t.snapshots <> Some t.sign_epoch then
        publish_snapshot t;
      {
        recovered_epoch = None;
        direction = `None;
        wal_dropped;
        signs_rolled_back = 0;
        repaired = [];
      }
  | Some o ->
      Metrics.incr t.metrics "recovery.runs";
      Metrics.add t.metrics "recovery.wal_dropped" wal_dropped;
      (* Re-frame the epoch: recovery's own writes (compensation or
         roll-forward) are journaled and committed under the same
         number, so the WAL never ends on an uncommitted tail. *)
      begin_wals t o.num;
      (* Undo the crashed attempt's partial sign writes first; the
         journals were recording since [begin_op]. *)
      let signs_rolled_back =
        List.fold_left
          (fun acc s -> acc + Backend.rollback s.journal)
          0 t.stores
      in
      t.annotated <- o.saved_annotated;
      t.bits_annotated <- o.saved_bits_annotated;
      t.divergent <- o.saved_divergent;
      let direction, repaired =
        match o.op with
        | Op_annotate _ | Op_annotate_subjects _ | Op_noop ->
            (* Annotation-only operation: the rollback above already
               restored the pre-epoch materialization — signs and
               bitmaps both — on every store. *)
            (`Back, [])
        | Op_update _ | Op_insert _ ->
            (* Structural operation: the mutation may have reached some
               stores; re-applying it everywhere and re-running the
               repair — signs, and bitmaps where materialized —
               converges every held store on the post-operation
               state. *)
            ignore (restructure t o (structural t o.op));
            (`Forward, kinds t)
      in
      (* The epoch number is consumed either way — the counter never
         runs backwards, even across an aborted epoch. *)
      close_op t o;
      bump_epoch t;
      rebuild_cam t;
      (* The recovered epoch is committed; publish it like any other.
         Readers pinned through the crash keep their pre-crash
         snapshot untouched. *)
      publish_snapshot t;
      Metrics.add t.metrics "recovery.signs_rolled_back" signs_rolled_back;
      {
        recovered_epoch = Some o.num;
        direction;
        wal_dropped;
        signs_rolled_back;
        repaired;
      }

let accessible t kind =
  Backend.accessible_ids (backend t kind) ~default:(Policy.ds t.policy)

let accessible_subject t kind role =
  let idx = role_index t role in
  Backend.accessible_ids_role (backend t kind)
    ~default:(Policy.default_bits t.policy) ~role:idx

(* Whether every held store gives the same answer. *)
let agree t f =
  match List.map (fun s -> f s.kind) t.stores with
  | [] -> true
  | a :: rest -> List.for_all (( = ) a) rest

let consistent t = agree t (accessible t)

let consistent_subjects t =
  List.for_all
    (fun role -> agree t (fun k -> accessible_subject t k role))
    (Policy.roles t.policy)

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
      | Op_annotate kind -> ignore (annotate t kind)
      | Op_annotate_subjects kind -> ignore (annotate_subjects t kind)
      | Op_update query -> ignore (update t query)
      | Op_insert { at; fragment } -> ignore (insert t ~at ~fragment))

(* A deterministic digest of the enforcement-relevant materialization:
   the anonymous accessible set and every declared role's accessible
   set, per held store.  Epoch counters are deliberately excluded — a
   replica whose crash recovery consumed extra local epoch numbers
   still converges on the leader's answers, and this digest is the
   arbiter of that convergence (shipped per frame, re-verified at
   promotion).

   One pass per store over [iter_live], folding ints straight into a
   32-bit FNV-1a-style running sum.  A node nothing is granted on is
   skipped, so the digest depends on the accessible sets alone; a
   granted node contributes its id, then [(granted roles lsl 1) lor
   anonymous], then each granted role's bit index, and every store
   opens with its kind code and closes with [-1].  The stream is
   prefix-free, and each step is a bijection of the running sum, so
   one changed word always changes the digest. *)
let state_checksum t =
  let nroles = Subject.count (Policy.subjects t.policy) in
  let ds = Policy.ds t.policy and dbits = Policy.default_bits t.policy in
  let h = ref 0x811c9dc5 in
  let mix x = h := (!h lxor x) * 0x01000193 land 0xffff_ffff in
  List.iter
    (fun s ->
      mix (match s.kind with Native -> 0 | Row_sql -> 1 | Column_sql -> 2);
      s.backend.Backend.iter_live (fun id sign bits ->
          let anon =
            if Option.value sign ~default:ds = Tree.Plus then 1 else 0
          in
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
      mix (-1))
    t.stores;
  Int32.of_int !h
