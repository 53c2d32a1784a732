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

type trigger_mode = Paper_mode | Overlap_mode

(* The in-flight mutating operation of an open sign epoch — everything
   recovery needs to finish (or abandon) it after a simulated crash. *)
type op =
  | Op_annotate of backend_kind
  | Op_annotate_subjects of backend_kind
  | Op_update of string
  | Op_insert of { at : string; fragment : Tree.t }
  | Op_noop
      (** An epoch that consumes its number without touching any store:
          what a replica applies when the leader's epoch aborted (its
          crash recovery rolled back), so epoch counters stay aligned
          without replaying a mutation that never took effect. *)

(* The wire-visible description of one committed epoch — everything a
   replica needs to reproduce the leader's operation through its own
   (deterministic) engine entry points. *)
type shipped_op =
  | Ship_noop
  | Ship_annotate of backend_kind
  | Ship_annotate_subjects of backend_kind
  | Ship_update of string
  | Ship_insert of { at : string; fragment : Tree.t }

type open_op = {
  num : int;  (** The epoch number being attempted. *)
  op : op;
  saved_annotated : backend_kind list;
  saved_bits_annotated : backend_kind list;
  saved_divergent : bool;
  mutable prepared : (backend_kind * Reannotator.prepared) list;
      (** Pre-mutation repair state, stashed per backend just before
          its structural apply — recovery's roll-forward input. *)
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

type t = {
  policy : Policy.t;
  original_policy : Policy.t;
  report : Optimizer.report option;
  mapping : Xmlac_shrex.Mapping.t;
  sg : Sg.t;
  depend : Depend.t;
  plan : Plan.t;
  doc : Tree.t;
  row_db : Db.t;
  col_db : Db.t;
  wal_row : Wal.t;
  wal_col : Wal.t;
  native : Backend.t;
  row : Backend.t;
  column : Backend.t;
  journals : (backend_kind * Backend.journal) list;
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
}

(* Freeze the committed materialization as of [sign_epoch] and install
   it as the current snapshot.  Called only between epochs (after
   [commit_op], at creation, after recovery) — never inside an open
   epoch — so a reader can never pin partial state. *)
let publish_snapshot t =
  let snap =
    (* The annotation flags describe the native tree being frozen —
       that is what snapshot requests read — so [Snapshot.request]'s
       auto lane can route a never-annotated frozen document through
       the rewrite lane instead of its default-sign CAM.  [prev] (the
       outgoing snapshot) feeds carry-forward: the capture compares
       the tree-level change set against it and migrates still-valid
       memoized decisions and per-role maps instead of cold-starting;
       the capture itself is an O(changed) [Tree.freeze], not a
       copy. *)
    Snapshot.capture ?prev:(Snapshot.current t.snapshots)
      ~epoch:t.sign_epoch ~policy:t.policy ~cam:t.cam
      ~annotated:(List.mem Native t.annotated || t.divergent)
      ~bits_annotated:(List.mem Native t.bits_annotated || t.divergent)
      ~metrics:t.metrics t.doc
  in
  Snapshot.publish t.snapshots snap

let create ?(mode = Paper_mode) ?(optimize = true) ~dtd ~policy doc =
  let mapping = Xmlac_shrex.Mapping.of_dtd dtd in
  let sg = Xmlac_shrex.Mapping.schema_graph mapping in
  let original_policy = policy in
  let report, policy =
    if optimize then
      let r = Optimizer.optimize policy in
      (Some r, r.Optimizer.result)
    else (None, policy)
  in
  let default_sign = Rule.effect_to_string (Policy.ds policy) in
  let default_bits = Policy.default_bits policy in
  let native_doc = Tree.copy doc in
  let row_db = Db.create Table.Row in
  let col_db = Db.create Table.Column in
  let _ = Xmlac_shrex.Shred.load mapping ~default_sign ~default_bits row_db doc in
  let _ = Xmlac_shrex.Shred.load mapping ~default_sign ~default_bits col_db doc in
  (* The bulk load above is the base image (checkpoint); journaling
     starts with the first mutating epoch, as with a real bulk load
     that bypasses the WAL. *)
  let wal_row = Wal.create () and wal_col = Wal.create () in
  Db.set_wal row_db (Some wal_row);
  Db.set_wal col_db (Some wal_col);
  let depend_mode =
    match mode with
    | Paper_mode -> Depend.Paper
    | Overlap_mode -> Depend.Overlap sg
  in
  let journals = List.map (fun k -> (k, Backend.journal ())) all_backend_kinds in
  let wrap kind base =
    Backend.with_faults
      ~prefix:(fault_prefix kind)
      (Backend.journaled (List.assoc kind journals) base)
  in
  let metrics = Metrics.create () in
  let t =
  {
    policy;
    original_policy;
    report;
    mapping;
    sg;
    depend = Depend.build ~mode:depend_mode policy;
    plan = Plan.rewrite ~schema:sg (Plan.of_policy policy);
    doc = native_doc;
    row_db;
    col_db;
    wal_row;
    wal_col;
    native = wrap Native (Xml_backend.make native_doc);
    row = wrap Row_sql (Rel_backend.make mapping row_db);
    column = wrap Column_sql (Rel_backend.make mapping col_db);
    journals;
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

let wal t = function
  | Native -> None
  | Row_sql -> Some t.wal_row
  | Column_sql -> Some t.wal_col

let explain ?(with_doc = true) t =
  Plan.explain ~schema:t.sg ~mapping:t.mapping
    ?doc:(if with_doc then Some t.doc else None)
    (Plan.of_policy t.policy)

let backend t = function
  | Native -> t.native
  | Row_sql -> t.row
  | Column_sql -> t.column

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
  rebuild_cam t;
  (* The signs moved behind the engine's back; the current snapshot no
     longer reflects them.  Republish under the same sign epoch —
     already-pinned readers keep their (now historical) version. *)
  publish_snapshot t

(* --- sign epochs --------------------------------------------------- *)

(* Every mutating operation runs inside a sign epoch: begin markers hit
   both relational WALs and arm the per-backend undo journals, and only
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
  Wal.begin_epoch t.wal_row num;
  Wal.begin_epoch t.wal_col num;
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
  List.iter (fun (_, j) -> Backend.journal_begin j) t.journals;
  o

let commit_op t o =
  Wal.commit_epoch t.wal_row o.num;
  Wal.commit_epoch t.wal_col o.num;
  List.iter (fun (_, j) -> Backend.journal_stop j) t.journals;
  t.sign_epoch <- o.num;
  t.open_op <- None;
  Metrics.incr t.metrics "epoch.commits";
  (* The epoch is durable; freeze it for readers.  A crash past this
     point (the snapshot.publish fault) leaves the registry one epoch
     behind — recovery's idempotent path republishes. *)
  publish_snapshot t

let annotate t kind =
  let o = begin_op t (Op_annotate kind) in
  let stats = Annotator.annotate_with_plan (backend t kind) t.plan in
  bump_epoch t;
  if not (List.mem kind t.annotated) then t.annotated <- kind :: t.annotated;
  if List.length t.annotated = 3 then t.divergent <- false;
  if kind = Native then
    t.cam <- Cam.build t.doc ~default:(Policy.ds t.policy);
  commit_op t o;
  stats

let annotate_all t =
  List.map (fun k -> (k, annotate t k)) all_backend_kinds

let annotate_subjects t kind =
  let o = begin_op t (Op_annotate_subjects kind) in
  let stats =
    Metrics.time t.metrics "annotate.subjects" (fun () ->
        Annotator.annotate_subjects ~schema:t.sg (backend t kind) t.policy)
  in
  bump_epoch t;
  if not (List.mem kind t.bits_annotated) then
    t.bits_annotated <- kind :: t.bits_annotated;
  commit_op t o;
  stats

let annotate_subjects_all t =
  List.map (fun k -> (k, annotate_subjects t k)) all_backend_kinds

(* Structural updates repair the single-subject signs incrementally
   (Reannotator), but the bitmap layer has no incremental repair yet —
   once the shared pass has materialized a store's bitmaps, keep them
   fresh by re-running it after the mutation, inside the same epoch
   (so a crash rolls the whole thing back together). *)
let reannotate_bits t =
  match t.bits_annotated with
  | [] -> ()
  | ks ->
      Metrics.incr t.metrics "subjects.reannotations";
      List.iter
        (fun k ->
          ignore
            (Annotator.annotate_subjects ~schema:t.sg (backend t k) t.policy))
        (List.rev ks)

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
      let expr = Requester.parse_or_fail query in
      match resolve_lane ?subject ?lane t kind with
      | Rewrite.Rewrite, _ ->
          (* Compiled against the policy (the cached engine plan for
             the anonymous subject, the role's projection otherwise)
             and evaluated through the store: zero sign or bitmap
             reads, so a cold store answers the true policy
             decision. *)
          Metrics.incr t.metrics "lane.rewrite";
          let b = backend t kind in
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

let update t query =
  let expr = Xmlac_xpath.Parser.parse_exn query in
  let o = begin_op t (Op_update query) in
  let stats =
    List.map
      (fun k ->
        let b = backend t k in
        let prepared =
          Reannotator.prepare ~schema:t.sg b t.depend ~touched:[ expr ]
        in
        o.prepared <- (k, prepared) :: o.prepared;
        let deleted_roots = b.Backend.delete_update expr in
        o.applied <- k :: o.applied;
        (k, Reannotator.finish ~schema:t.sg b t.depend prepared ~deleted_roots))
      all_backend_kinds
  in
  bump_epoch t;
  (match List.assoc_opt Native stats with
  | Some s -> maintain_cam t ~changed:s.Reannotator.changed ~roots:[]
  | None -> rebuild_cam t);
  reannotate_bits t;
  commit_op t o;
  stats

(* The insertion-point expressions the trigger treats as the update:
   the grafted roots and everything below them. *)
let insert_touched ~at_expr ~frag_root =
  let root_path =
    Xmlac_xpath.Ast.
      { steps = at_expr.steps @ [ step Child (Name frag_root) ] }
  in
  let subtree_path =
    Xmlac_xpath.Ast.{ steps = root_path.steps @ [ step Descendant Wildcard ] }
  in
  [ root_path; subtree_path ]

(* Insert updates: graft into the native store first, then mirror the
   freshly created subtrees — same universal ids — into both relational
   stores, repairing annotations in each through the generic cycle. *)
let insert t ~at ~fragment =
  let at_expr = Xmlac_xpath.Parser.parse_exn at in
  let frag_root = (Tree.root fragment).Tree.name in
  let touched = insert_touched ~at_expr ~frag_root in
  let default_sign = Rule.effect_to_string (Policy.ds t.policy) in
  let default_bits = Policy.default_bits t.policy in
  (* The op record takes ownership of [fragment] as-is: every use —
     the graft below and a crash-recovery roll-forward — only reads it
     ([Tree.graft] deep-copies into the target), so the old defensive
     [Tree.copy] bought nothing but an O(fragment) stall per insert.
     The aliasing contract (engine.mli): the caller must not mutate
     the fragment after handing it over. *)
  let o = begin_op t (Op_insert { at; fragment }) in
  let native_stats =
    let prepared =
      Reannotator.prepare ~schema:t.sg t.native t.depend ~touched
    in
    o.prepared <- (Native, prepared) :: o.prepared;
    Fault.point "native.insert";
    let roots = Xmlac_xmldb.Update.insert_nodes t.doc ~at:at_expr ~fragment in
    o.new_roots <- roots;
    o.applied <- Native :: o.applied;
    Reannotator.finish ~schema:t.sg t.native t.depend prepared
      ~deleted_roots:(List.length roots)
  in
  let rel kind b db =
    let prepared = Reannotator.prepare ~schema:t.sg b t.depend ~touched in
    o.prepared <- (kind, prepared) :: o.prepared;
    Fault.point (fault_prefix kind ^ ".insert");
    List.iter
      (fun root ->
        ignore
          (Xmlac_shrex.Shred.insert_subtree t.mapping ~default_sign
             ~default_bits db root))
      o.new_roots;
    o.applied <- kind :: o.applied;
    ( kind,
      Reannotator.finish ~schema:t.sg b t.depend prepared
        ~deleted_roots:(List.length o.new_roots) )
  in
  let stats =
    [ (Native, native_stats); rel Row_sql t.row t.row_db;
      rel Column_sql t.column t.col_db ]
  in
  bump_epoch t;
  maintain_cam t ~changed:native_stats.Reannotator.changed
    ~roots:(List.map (fun (n : Tree.node) -> n.Tree.id) o.new_roots);
  reannotate_bits t;
  commit_op t o;
  stats

(* --- recovery ------------------------------------------------------ *)

(* Resume a structural operation: for each backend, take the stashed
   pre-mutation repair state (or compute it fresh while the backend is
   still untouched), apply the mutation if the crash preceded it, and
   re-run the repair's sign phase.  Partial sign writes of the crashed
   attempt were already rolled back, so [finish] recomputes them from
   the same inputs the uninterrupted operation would have used. *)
let roll_forward t o =
  let resume kind ~touched ~apply =
    let b = backend t kind in
    let prepared =
      match List.assoc_opt kind o.prepared with
      | Some p -> p
      | None -> Reannotator.prepare ~schema:t.sg b t.depend ~touched
    in
    let deleted_roots = if List.mem kind o.applied then 0 else apply b in
    ignore
      (Reannotator.finish ~schema:t.sg b t.depend prepared ~deleted_roots)
  in
  match o.op with
  | Op_annotate _ | Op_annotate_subjects _ | Op_noop -> assert false
  | Op_update query ->
      let expr = Xmlac_xpath.Parser.parse_exn query in
      List.iter
        (fun k ->
          resume k ~touched:[ expr ] ~apply:(fun b ->
              b.Backend.delete_update expr))
        all_backend_kinds
  | Op_insert { at; fragment } ->
      let at_expr = Xmlac_xpath.Parser.parse_exn at in
      let frag_root = (Tree.root fragment).Tree.name in
      let touched = insert_touched ~at_expr ~frag_root in
      let default_sign = Rule.effect_to_string (Policy.ds t.policy) in
      (* Native first: the relational mirrors need the grafted roots. *)
      resume Native ~touched ~apply:(fun _ ->
          let roots =
            Xmlac_xmldb.Update.insert_nodes t.doc ~at:at_expr ~fragment
          in
          o.new_roots <- roots;
          List.length roots);
      let default_bits = Policy.default_bits t.policy in
      let rel kind db =
        resume kind ~touched ~apply:(fun _ ->
            List.iter
              (fun root ->
                ignore
                  (Xmlac_shrex.Shred.insert_subtree t.mapping ~default_sign
                     ~default_bits db root))
              o.new_roots;
            List.length o.new_roots)
      in
      rel Row_sql t.row_db;
      rel Column_sql t.col_db

let recover t =
  (* The simulated restart: clear the kill and every armed trigger
     before touching any store, as a fresh process would start clean. *)
  Fault.recover ();
  let wal_dropped = Wal.recover t.wal_row + Wal.recover t.wal_col in
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
      Wal.begin_epoch t.wal_row o.num;
      Wal.begin_epoch t.wal_col o.num;
      (* Undo the crashed attempt's partial sign writes first; the
         journals were recording since [begin_op]. *)
      let signs_rolled_back =
        List.fold_left (fun acc (_, j) -> acc + Backend.rollback j) 0 t.journals
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
               repair converges all three on the post-operation
               state.  Stores whose bitmaps were materialized get the
               shared pass re-run too, as the uninterrupted operation
               would have. *)
            roll_forward t o;
            reannotate_bits t;
            (`Forward, all_backend_kinds)
      in
      Wal.commit_epoch t.wal_row o.num;
      Wal.commit_epoch t.wal_col o.num;
      (* The epoch number is consumed either way — the counter never
         runs backwards, even across an aborted epoch. *)
      t.sign_epoch <- o.num;
      t.open_op <- None;
      List.iter (fun (_, j) -> Backend.journal_stop j) t.journals;
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

let consistent t =
  match List.map (accessible t) all_backend_kinds with
  | [ a; b; c ] -> a = b && b = c
  | _ -> assert false

let accessible_subject t kind role =
  let idx = role_index t role in
  Backend.accessible_ids_role (backend t kind)
    ~default:(Policy.default_bits t.policy) ~role:idx

let consistent_subjects t =
  List.for_all
    (fun role ->
      match
        List.map (fun k -> accessible_subject t k role) all_backend_kinds
      with
      | [ a; b; c ] -> a = b && b = c
      | _ -> assert false)
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
      | Ship_noop -> noop_epoch t
      | Ship_annotate kind -> ignore (annotate t kind)
      | Ship_annotate_subjects kind -> ignore (annotate_subjects t kind)
      | Ship_update query -> ignore (update t query)
      | Ship_insert { at; fragment } -> ignore (insert t ~at ~fragment))

(* A deterministic digest of the enforcement-relevant materialization:
   the anonymous accessible set and every role's accessible set, per
   backend.  Epoch counters are deliberately excluded — a replica whose
   crash recovery consumed extra local epoch numbers still converges on
   the leader's answers, and this digest is the arbiter of that
   convergence (shipped per frame, re-verified at promotion). *)
let state_checksum t =
  let buf = Buffer.create 1024 in
  List.iter
    (fun kind ->
      Buffer.add_string buf (backend_kind_to_string kind);
      Buffer.add_char buf '\x00';
      List.iter
        (fun id ->
          Buffer.add_string buf (string_of_int id);
          Buffer.add_char buf ',')
        (accessible t kind);
      List.iter
        (fun role ->
          Buffer.add_char buf '@';
          Buffer.add_string buf role;
          Buffer.add_char buf ':';
          List.iter
            (fun id ->
              Buffer.add_string buf (string_of_int id);
              Buffer.add_char buf ',')
            (accessible_subject t kind role))
        (Policy.roles t.policy))
    all_backend_kinds;
  Wal.adler32 1l (Buffer.contents buf)
