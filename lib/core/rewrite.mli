(** The query-rewrite enforcement lane.

    The paper enforces access control by {e materializing} per-node
    signs (annotation) and checking the requester's answer against
    them.  The literature it contrasts with — Cheney's static
    enforceability, Mahfoud & Imine's secure rewriting — answers the
    same requests by {e statically rewriting} the query against the
    policy, so no sign or bitmap column is ever read.  This module is
    that second lane: it compiles an incoming XPath request plus a
    {!Policy.t} into a pair of plans in the existing {!Plan} algebra,

    {ul
    {- the {e granted} plan — the request's scope intersected with the
       policy's accessible region, and}
    {- the {e residue} plan — the request's scope minus the accessible
       region: the selected-but-denied nodes the all-or-nothing rule
       must find empty before anything is returned.}}

    Both plans lower through every existing backend ({!Backend.t.eval_plans}:
    id-set algebra natively, one SQL statement each relationally), so a
    cold or never-annotated document is served with {e zero} sign or
    bitmap reads — and the answers agree, decision for decision and
    blocked-count for blocked-count, with the materialized lane
    (DESIGN.md §11's soundness invariant, pinned by
    [test/test_rewrite.ml]'s cross-lane property).

    The derivation leans on the {!Plan.t} contract: annotation stamps
    [mark] on the plan's answer and [default = opposite mark]
    everywhere else, so the accessible region is the plan's answer when
    [mark = Plus] and its complement when [mark = Minus] — which lets
    both compiled plans stay complement-free:

    {v mark = Plus:   granted = Q intersect P     residue = Q except P
   mark = Minus:  granted = Q except P        residue = Q intersect P v}

    Compilation crosses the [rewrite.compile] fault point before
    touching anything, so an injected failure there can never reach a
    store or say anything about backend health. *)

(** {1 Lanes}

    The lane vocabulary shared by {!Engine.request},
    {!Snapshot.request}, the serve layer and the [--lane] CLI flag. *)

type lane =
  | Auto
      (** Pick per request: the materialized lane when the store has a
          committed annotation epoch, the rewrite lane otherwise. *)
  | Materialized  (** Force the paper's sign/bitmap lane. *)
  | Rewrite  (** Force the query-rewrite lane. *)

val lane_to_string : lane -> string
(** ["auto"] / ["materialized"] / ["rewrite"]. *)

val lane_of_string : string -> lane option
(** Inverse of {!lane_to_string}; [None] on anything else. *)

val pp_lane : Format.formatter -> lane -> unit

(** {1 Compilation} *)

type compiled = {
  subject : string option;  (** The role compiled for, if any. *)
  granted : Plan.t;
      (** The accessible part of the request's answer; marked [Plus]. *)
  residue : Plan.t;
      (** The denied part of the request's answer; marked [Minus].
          All-or-nothing: the request is granted iff this plan's
          answer is empty. *)
}

val compile :
  ?schema:Xmlac_xml.Schema_graph.t ->
  ?plan:Plan.t ->
  ?subject:string ->
  Policy.t ->
  Xmlac_xpath.Ast.expr ->
  compiled
(** Compiles the request against the policy's accessible region.
    [plan] short-circuits the policy compilation with an
    already-rewritten {!Plan.of_policy} result (the engine passes its
    cached plan); it is ignored when [subject] is given, because a role
    compiles against its {!Policy.for_subject} projection.  [schema]
    feeds the {!Plan.rewrite} passes of both emitted plans.  Crosses
    the [rewrite.compile] fault point first.
    @raise Invalid_argument on an unknown role. *)

(** {1 Evaluation} *)

type answer = {
  granted_ids : int list;  (** The granted plan's answer, ascending. *)
  blocked : int;  (** Size of the residue plan's answer. *)
}

val eval : Backend.t -> compiled -> answer
(** Both plans through {!Backend.t.eval_plans} — one batch, no sign or
    bitmap read.  Each plan crosses the backend's [<prefix>.eval]
    fault point like any other evaluation. *)

val eval_scopes : (Xmlac_xpath.Ast.expr -> Plan.Ids.t) -> compiled -> answer
(** Both plans over a scope evaluator ({!Plan.ids_shared}, shared scope
    memo) — the frozen-snapshot path, which has a document index but no
    {!Backend.t}. *)
