type stats = {
  triggered : int list;
  affected : int;
  deleted_roots : int;
  marked : int;
  changed : int list;
  bits_changed : int list;
}

(* Scope evaluation through the backend, once per distinct resource:
   role policies repeat a resource under many qualifiers.  One
   evaluator serves one document state — before the update, or after
   it. *)
let scopes (backend : Backend.t) = Rule.memo_resource backend.Backend.eval_ids

(* Union of the rules' scope id sets — this feeds the affected-region
   computation before and after the update. *)
let scope_union scope rules =
  List.fold_left
    (fun acc (r : Rule.t) ->
      List.fold_left
        (fun acc id -> Plan.Ids.add id acc)
        acc (scope r.Rule.resource))
    Plan.Ids.empty rules

(* The pre-mutation half: the triggered rules and their scopes before
   the update — nodes that may fall out of scope — and whether the
   role bitmaps are repaired too.  Side-effect free, so the engine can
   stash it for crash recovery. *)
type prepared = {
  trig : Trigger.result;
  rules : Rule.t list;
  pre : Plan.Ids.t;
  bits : bool;
}

let prepare ?schema ?(bits = false) (backend : Backend.t) depend ~touched =
  let trig = Trigger.run_all ?schema depend ~updates:touched in
  let rules = Trigger.triggered_rules depend trig in
  { trig; rules; pre = scope_union (scopes backend) rules; bits }

(* The bitmap layer's repair over [live]: every role projection of the
   triggered rules, restricted to the region — identical projections
   share one plan, and all plans run in one batch — then one batched
   write of exactly the role bits that disagree with the verdict. *)
let repair_bits (backend : Backend.t) policy rules live =
  if Plan.Ids.is_empty live then []
  else begin
    let triggered = Policy.with_rules policy rules in
    let groups = ref [] (* (projection, plan, member roles), reversed *) in
    List.iteri
      (fun role name ->
        let p = Policy.for_subject triggered name in
        match
          List.find_opt
            (fun (q, _, _) -> Annotator.same_projection p q)
            !groups
        with
        | Some (_, _, members) -> members := role :: !members
        | None ->
            groups :=
              (p, Plan.restrict live (Plan.of_policy p), ref [ role ])
              :: !groups)
      (Policy.roles policy);
    let groups = List.rev !groups in
    let answers =
      backend.Backend.eval_plans (List.map (fun (_, plan, _) -> plan) groups)
    in
    (* Per role bit: the region nodes its plan marks, and whether the
       mark grants. *)
    let verdict =
      Array.make (Policy.role_count policy) (Plan.Ids.empty, false)
    in
    List.iter2
      (fun (_, (plan : Plan.t), members) answer ->
        let v = (Plan.Ids.of_list answer, plan.Plan.mark = Rule.Plus) in
        List.iter (fun role -> verdict.(role) <- v) !members)
      groups answers;
    let default = Policy.default_bits policy in
    let batch =
      Plan.Ids.fold
        (fun id acc ->
          let current = Backend.effective_bits backend ~default id in
          let edits = ref [] in
          for role = Array.length verdict - 1 downto 0 do
            let answer, marks = verdict.(role) in
            let want = if Plan.Ids.mem id answer then marks else not marks in
            if want <> Xmlac_util.Bitset.mem role current then
              edits := (role, want) :: !edits
          done;
          if !edits = [] then acc else (id, !edits) :: acc)
        live []
    in
    let batch = List.rev batch in
    ignore (backend.Backend.set_bits_batch batch ~default);
    List.map fst batch
  end

(* The post-mutation half; re-runnable by recovery once partial sign
   and bitmap writes of a crashed attempt have been rolled back. *)
let finish ?schema (backend : Backend.t) depend p ~deleted_roots =
  let policy = Depend.policy depend in
  (* Scopes after — nodes that may have entered scope — joined with the
     scopes before.  Pre-update scopes may reference deleted nodes;
     restrict the affected region to the nodes still stored. *)
  let live =
    Plan.Ids.filter backend.Backend.has_node
      (Plan.Ids.union p.pre (scope_union (scopes backend) p.rules))
  in
  (* The restricted Annotation-Queries plan of Section 5.3: the
     triggered rules' compilation, rewritten, intersected with the
     affected region, evaluated in the backend's own algebra. *)
  let plan =
    Plan.restrict live (Plan.rewrite ?schema (Plan.of_rules policy p.rules))
  in
  let answer = Plan.Ids.of_list (backend.Backend.eval_plan plan) in
  (* Partition the surviving affected region into nodes to mark with
     the non-default sign and nodes to reset to the default, touching
     only "the nodes whose access permission changed due to the
     update". *)
  let default = plan.Plan.default in
  let mark_sign = plan.Plan.mark in
  let to_mark = ref [] and to_default = ref [] in
  Plan.Ids.iter
    (fun id ->
      let current = Backend.effective_sign backend ~default id in
      if Plan.Ids.mem id answer then begin
        if current <> mark_sign then to_mark := id :: !to_mark
      end
      else if current <> default then to_default := id :: !to_default)
    live;
  let to_default = List.rev !to_default and to_mark = List.rev !to_mark in
  let _ = backend.Backend.set_sign_ids to_default default in
  let marked = backend.Backend.set_sign_ids to_mark mark_sign in
  let bits_changed =
    if p.bits then repair_bits backend policy p.rules live else []
  in
  {
    triggered = Trigger.all p.trig;
    affected = Plan.Ids.cardinal live;
    deleted_roots;
    marked;
    changed = to_default @ to_mark;
    bits_changed;
  }

(* The generic repair cycle: [touched] locates the nodes the mutation
   inserts or deletes (the update expression of Section 5.3), [apply]
   performs it and reports how many subtree roots it touched. *)
let repair ?schema (backend : Backend.t) depend ~touched ~apply =
  let p = prepare ?schema backend depend ~touched in
  let deleted_roots = apply () in
  finish ?schema backend depend p ~deleted_roots

let reannotate ?schema backend depend ~update =
  repair ?schema backend depend ~touched:[ update ]
    ~apply:(fun () -> backend.Backend.delete_update update)

let full_reannotate (backend : Backend.t) policy ~update =
  let _ = backend.Backend.delete_update update in
  Annotator.annotate backend policy
