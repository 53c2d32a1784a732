(** The requester front-end (Section 4).

    Read-only XPath queries are answered with all-or-nothing
    semantics: if every node the query selects is accessible under the
    materialized annotations, the nodes are returned; if any selected
    node is inaccessible, the whole request is denied.

    The decision is deliberately split from the sign source: {!decide}
    works on any accessibility oracle, so the same all-or-nothing rule
    serves direct sign reads ({!request}), the snapshots' CAM fast lane
    ({!Engine.request}) and the property tests that pin the two
    against each other. *)

type decision =
  | Granted of int list  (** The selected node ids, ascending. *)
  | Denied of { blocked : int }
      (** At least one selected node is inaccessible; [blocked] counts
          them. *)

val decide : ids:int list -> accessible:(int -> bool) -> decision
(** The all-or-nothing rule itself: grants iff every selected id is
    accessible.  An empty answer is granted (vacuously). *)

val request_via :
  sign:(int -> Xmlac_xml.Tree.sign) -> Backend.t ->
  Xmlac_xpath.Ast.expr -> decision
(** Evaluates the query through the backend but reads effective signs
    through [sign] — the engine passes a CAM lookup here. *)

val request :
  Backend.t -> default:Rule.effect -> Xmlac_xpath.Ast.expr -> decision
(** [request_via] over the backend's own per-node sign reads;
    [default] is the policy's default semantics, needed to interpret
    unannotated nodes. *)

val request_rewritten :
  ?schema:Xmlac_xml.Schema_graph.t ->
  ?plan:Plan.t ->
  ?subject:string ->
  Backend.t ->
  Policy.t ->
  Xmlac_xpath.Ast.expr ->
  decision
(** The {e rewrite} lane: the request is compiled against the policy
    ({!Rewrite.compile} — [plan] short-circuits with a pre-rewritten
    policy plan, [subject] selects one role's projection) and both
    emitted plans are evaluated through the backend, so the decision
    reads no sign or bitmap at all — never-annotated stores answer
    correctly.  Blocked counts equal the materialized lane's exactly
    (the residue plan's answer {e is} the set of selected inaccessible
    nodes).  Crosses the [rewrite.compile] fault point before touching
    the backend, and the same per-node deadline checkpoints as
    {!request} on the granted answer.
    @raise Invalid_argument on an unknown role. *)

val request_string :
  Backend.t -> default:Rule.effect -> string -> decision
(** Parses then requests.
    @raise Invalid_argument on parse errors; the message names the
    offending expression and the position of the error. *)

val parse_or_fail : string -> Xmlac_xpath.Ast.expr
(** The parse step of {!request_string}, shared with the engine so
    every request path reports parse errors identically.
    @raise Invalid_argument with expression and position on error. *)

val is_granted : decision -> bool
val pp : Format.formatter -> decision -> unit
