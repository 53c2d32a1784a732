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
   it — and every verdict in that state reads its scopes from it. *)
let scopes (backend : Backend.t) =
  Rule.memo_resource (fun e -> Plan.Ids.of_list (backend.Backend.eval_ids e))

(* The pre-mutation half: the triggered rules, each distinct triggered
   resource's scope before the update, and whether the role bitmaps
   are repaired too.  Side-effect free. *)
type prepared = {
  trig : Trigger.result;
  rules : Rule.t list;
  pre : (Xmlac_xpath.Ast.expr * Plan.Ids.t) list;
  bits : bool;
}

let prepare ?schema ?(bits = false) (backend : Backend.t) depend ~touched =
  let trig = Trigger.run_all ?schema depend ~updates:touched in
  let rules = Trigger.triggered_rules depend trig in
  let scope = scopes backend in
  let pre =
    List.fold_left
      (fun acc (r : Rule.t) ->
        let e = r.Rule.resource in
        if List.mem_assoc e acc then acc else (e, scope e) :: acc)
      [] rules
  in
  { trig; rules; pre; bits }

let footprint p = p.trig.Trigger.footprint

(* The moved region: the stored nodes whose membership in some
   triggered scope differs between the two document states — the
   union over triggered resources of pre △ post.  Pre-update scopes
   may hold deleted nodes; only stored ones are kept. *)
let moved_region (backend : Backend.t) scope pre =
  List.fold_left
    (fun acc (e, before) ->
      Plan.Ids.union acc (Plan.Ids.sym_diff before (scope e)))
    Plan.Ids.empty pre
  |> Plan.Ids.filter backend.Backend.has_node

(* The bitmap layer's repair over [region]: every role projection of
   the triggered rules, evaluated over the region-restricted [scope]
   memo — identical projections share one evaluation — then one
   batched write of exactly the role bits that disagree with the
   verdict. *)
let repair_bits (backend : Backend.t) scope policy rules region =
  let triggered = Policy.with_rules policy rules in
  (* Per role bit: the region nodes its projection marks, and whether
     the mark grants. *)
  let verdict = Array.make (Policy.role_count policy) (Plan.Ids.empty, false) in
  let groups = ref [] (* (projection, verdict) *) in
  List.iteri
    (fun role name ->
      let p = Policy.for_subject triggered name in
      verdict.(role) <-
        (match
           List.find_opt (fun (q, _) -> Annotator.same_projection p q) !groups
         with
        | Some (_, v) -> v
        | None ->
            let plan = Plan.of_policy p in
            let v = (Plan.eval scope plan, plan.Plan.mark = Rule.Plus) in
            groups := (p, v) :: !groups;
            v))
    (Policy.roles policy);
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
      region []
  in
  let batch = List.rev batch in
  ignore (backend.Backend.set_bits_batch batch ~default);
  List.map fst batch

(* The post-mutation half. *)
let finish ?schema (backend : Backend.t) depend p ~deleted_roots =
  let policy = Depend.policy depend in
  (* One scope memo for the post-update document: the region and,
     restricted to the region, the sign verdict and every role-bit
     verdict read their scopes from it. *)
  let scope = scopes backend in
  let region = moved_region backend scope p.pre in
  let stats changed marked bits_changed =
    {
      triggered = Trigger.all p.trig;
      affected = Plan.Ids.cardinal region;
      deleted_roots;
      marked;
      changed;
      bits_changed;
    }
  in
  if Plan.Ids.is_empty region then stats [] 0 []
  else begin
    (* Intersection distributes over union, except and intersect, so a
       plan evaluated over region-restricted scopes equals its full
       answer intersected with the region. *)
    let restricted =
      Rule.memo_resource (fun e -> Plan.Ids.inter region (scope e))
    in
    (* The restricted Annotation-Queries plan of Section 5.3: the
       triggered rules' compilation, rewritten (once per triggered set,
       {!Depend.plan}), evaluated over the region. *)
    let plan = Depend.plan ?schema depend (Trigger.all p.trig) in
    let answer = Plan.eval restricted plan in
    (* Partition the region into nodes to mark with the non-default
       sign and nodes to reset to the default, touching only "the
       nodes whose access permission changed due to the update". *)
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
      region;
    let to_default = List.rev !to_default and to_mark = List.rev !to_mark in
    let _ = backend.Backend.set_sign_ids to_default default in
    let marked = backend.Backend.set_sign_ids to_mark mark_sign in
    let bits_changed =
      if p.bits then repair_bits backend restricted policy p.rules region
      else []
    in
    stats (to_default @ to_mark) marked bits_changed
  end

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
