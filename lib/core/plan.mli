(** The annotation-plan intermediate representation.

    Annotation-Queries (Section 5.2, Figure 5) compiles a policy into
    one set-algebraic query over the scopes of its rules, and partial
    re-annotation (Section 5.3) runs the same query restricted to the
    triggered rules.  This module makes that query a first-class
    object — built once from either entry point, rewritten by analysis
    passes, and lowered to each store's own algebra — instead of a flat
    record every layer re-interprets by hand.

    The pipeline is

    {v policy / triggered rules
        |  of_policy / of_rules
        v
      plan IR  --rewrite-->  smaller plan IR
        |
        +-- eval         (id-set algebra over any scope evaluator:
        |                 index_scope joins on a pre/size index)
        +-- to_sql       (ShreX translation, balanced n-ary unions)
        +-- to_xquery    (executable FLWOR text for Xmldb.Xquery) v}

    The reannotator intersects {!eval}'s answer with its region itself,
    so the IR has no node for a materialized id set.

    Rewrites only ever shrink the query ({e fewer} scopes to evaluate,
    {e smaller} lowered artifacts) and preserve its answer: scope
    absorption relies on {!Xmlac_xpath.Containment} (instance-sound;
    with a schema, sound for documents whose node label paths the DTD
    realizes), unsatisfiable-scope pruning on
    {!Xmlac_xpath.Schema_match.satisfiable} (same proviso), and union
    flattening / empty elimination are identities of the set
    algebra. *)

(** Universal node-id sets — the common currency of the three
    lowerings: ascending int arrays, so set operations are merges. *)
module Ids : sig
  type t

  val empty : t

  val of_list : int list -> t
  (** One pass if it ascends strictly, as [eval_ids] answers do; else
      a sort that drops duplicates. *)

  val of_array : int array -> t
  (** {!of_list} on an array, kept as it is when it already ascends:
      the caller must not write to it afterwards. *)

  val elements : t -> int list
  val mem : int -> t -> bool
  val cardinal : t -> int
  val is_empty : t -> bool
  val union : t -> t -> t
  val diff : t -> t -> t
  val sym_diff : t -> t -> t
  val inter : t -> t -> t
  val filter : (int -> bool) -> t -> t
  val iter : (int -> unit) -> t -> unit
  val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a  (** Ascending, as {!iter}. *)
end

(** {1 The IR} *)

type node =
  | Empty  (** The empty node set. *)
  | Scope of Xmlac_xpath.Ast.expr  (** One rule's scope [\[\[e\]\]]. *)
  | Union of node list  (** N-ary union; [Union \[\]] = [Empty]. *)
  | Except of node * node
  | Intersect of node * node

type t = {
  query : node;
  mark : Rule.effect;  (** The sign stamped on the query's answer. *)
  default : Rule.effect;  (** The policy's [ds]; always [opposite mark]. *)
}

(** {1 Construction} *)

val of_policy : Policy.t -> t
(** Figure 5: [grants EXCEPT denies] marked ["+"] for deny/deny,
    [grants] for deny/allow, [denies] marked ["-"] for allow/deny,
    [denies EXCEPT grants] for allow/allow. *)

val of_rules : Policy.t -> Rule.t list -> t
(** The restricted compilation of Section 5.3: same [ds]/[cr], only
    the given (triggered) rules.  [of_rules p (Policy.rules p)] is
    [of_policy p]. *)

(** {1 Inspection} *)

val size : t -> int
(** Number of IR nodes. *)

val scopes : t -> Xmlac_xpath.Ast.expr list
(** Every [Scope] expression, left to right. *)

val equal_node : node -> node -> bool

val equiv : ?schema:Xmlac_xml.Schema_graph.t -> t -> t -> bool
(** Whether two plans provably have the same answer on every document:
    structural equality with [Scope]s compared up to mutual containment
    ({!Xmlac_xpath.Containment}), so syntactic variants of one path
    collapse.  Marks are ignored — two roles can share one evaluation
    of a common query and fan the answer out under different marks.
    Sound but incomplete: [false] only costs a duplicate evaluation. *)

(** {1 Rewriting} *)

type pass_stat = { pass : string; before : int; after : int }
(** IR node counts around one pass. *)

val simplify : node -> node
(** Union flattening into n-ary form, empty elimination
    ([Union \[\] = Empty], [Except (Empty, _) = Empty],
    [Except (p, Empty) = p], [Intersect] with [Empty] = [Empty]),
    and singleton-union unwrapping. *)

val absorb : ?schema:Xmlac_xml.Schema_graph.t -> node -> node
(** Containment-based scope absorption: inside every union, a scope
    contained in a sibling scope is dropped (the rewriting analogue of
    Redundancy-Elimination, applied to the compiled query rather than
    the policy — it also absorbs across rules the optimizer must keep,
    e.g. the primary union of an allow/allow policy contains the
    denies regardless of effect).  With [schema], containment is
    decided relative to the DTD, which absorbs strictly more. *)

val prune : Xmlac_xml.Schema_graph.t -> node -> node
(** Replaces scopes unsatisfiable under the schema
    ({!Xmlac_xpath.Schema_match.satisfiable}) with [Empty]. *)

val rewrite : ?schema:Xmlac_xml.Schema_graph.t -> t -> t
(** The full pipeline: simplify; prune (when [schema] is given);
    absorb; simplify. *)

val rewrite_trace : ?schema:Xmlac_xml.Schema_graph.t -> t -> t * pass_stat list
(** {!rewrite} with per-pass before/after sizes. *)

(** {1 Lowerings} *)

val eval : (Xmlac_xpath.Ast.expr -> Ids.t) -> t -> Ids.t
(** [eval scope t] runs the plan's set algebra over [scope e], the id
    set of one XPath.  Pass a memoized [scope]
    ({!Rule.memo_resource}) to share scope answers across plans. *)

val index_scope : Xmlac_xpath.Index.t -> Xmlac_xpath.Ast.expr -> Ids.t
(** One scope's id set by a staircase join on a pre/size index: frozen
    snapshots, and the native store's live document
    ({!Live_index}). *)

val native_ids : Xmlac_xml.Tree.t -> t -> int list
(** {!eval} with each scope walked on the tree by
    {!Xmlac_xpath.Eval.node_set}, ascending: the reference the tests
    hold the stores to. *)

val ids_shared : (Xmlac_xpath.Ast.expr -> Ids.t) -> t list -> int list list
(** Evaluates a batch of plans, in order, with a shared scope memo:
    [scope e] is the id set of one XPath, memoized across the batch
    through {!Rule.memo_resource}, so each distinct resource evaluates
    once no matter how many plans reference it — the native store's
    half of the multi-role shared annotation pass, and the rewrite
    lane's granted/residue pair. *)

val to_sql : Xmlac_shrex.Mapping.t -> t -> Xmlac_reldb.Sql.query
(** ShreX-translated scopes combined with balanced n-ary UNIONs (the
    translation's own branches are flattened into the same front) and
    EXCEPT / INTERSECT.  [Empty] lowers to
    {!Xmlac_shrex.Translate.empty}. *)

val to_xquery : doc_name:string -> t -> string
(** Executable FLWOR text for the {!Xmlac_xmldb.Xquery} fragment:
    [for $n in doc("...")(...) return xmlac:annotate($n, mark)], with
    [()] for [Empty] so every plan round-trips through the parser. *)

(** {1 Explain} *)

type explain = {
  raw : t;
  rewritten : t;
  trace : pass_stat list;
  xquery : string;  (** Lowered FLWOR text. *)
  sql : Xmlac_reldb.Sql.query option;  (** When a mapping is supplied. *)
  scope_counts : (string * int) list;
      (** Per-scope node counts of the rewritten plan, when a document
          is supplied. *)
  answer_size : int option;  (** Native answer size on that document. *)
  timings : (string * float) list;
      (** Seconds per stage: rewrite, each lowering, native
          evaluation. *)
}

val explain :
  ?schema:Xmlac_xml.Schema_graph.t ->
  ?mapping:Xmlac_shrex.Mapping.t ->
  ?doc:Xmlac_xml.Tree.t ->
  ?doc_name:string ->
  t ->
  explain
(** Rewrites the plan and instruments every stage; [doc_name] (default
    ["doc"]) only affects the generated XQuery text. *)

val pp : Format.formatter -> t -> unit
(** ["mark +: (//a union //b) except (//c)"]. *)

val pp_explain : Format.formatter -> explain -> unit
