(** Access control rules (Section 3).

    A rule is a pair [(resource, effect)]: [resource] is an XPath
    expression designating the nodes the rule concerns, [effect] grants
    ([Plus]) or denies ([Minus]) access to them.  The paper fixes the
    requester and action components and uses explicit node-only scope,
    which is what this module models.  The effect type is shared with
    the annotation sign — a deliberate identification: a rule's effect
    {e is} the sign it stamps on the nodes in its scope. *)

type effect = Xmlac_xml.Tree.sign = Plus | Minus

val effect_to_string : effect -> string
val opposite : effect -> effect

type t = {
  name : string;  (** Display name, e.g. "R3"; informational only. *)
  resource : Xmlac_xpath.Ast.expr;
  effect : effect;
  subjects : string list;
      (** Roles the rule is qualified with; the empty list means the
          rule applies to {e every} role.  A qualified rule also
          reaches the heirs of the roles it names — see
          {!applies_to}. *)
}

val make :
  ?name:string ->
  ?subjects:string list ->
  resource:Xmlac_xpath.Ast.expr ->
  effect ->
  t
(** [name] defaults to the printed resource; [subjects] defaults to
    [[]] (the rule applies to every role). *)

val parse : ?name:string -> ?subjects:string list -> string -> effect -> t
(** Parses the resource.
    @raise Invalid_argument on a malformed expression. *)

val unqualified : t -> bool
(** Whether the rule carries no subject qualifier (applies to every
    role). *)

val applies_to : closure:string list -> t -> bool
(** Whether the rule reaches a role whose inheritance closure
    ({!Subject.closure}) is [closure]: unqualified rules always do; a
    qualified rule does iff it names a role in the closure. *)

val memo_resource : (Xmlac_xpath.Ast.expr -> 'a) -> Xmlac_xpath.Ast.expr -> 'a
(** Memoizes a function of resources under structural equality
    ({!Xmlac_xpath.Ast.equal_expr}): role policies repeat one resource
    under many qualifiers, and work that depends on the resource alone
    need not be repeated per rule. *)

val is_positive : t -> bool
val is_negative : t -> bool

val scope : Xmlac_xml.Tree.t -> t -> Xmlac_xml.Tree.node list
(** The nodes of the document in the rule's scope:
    [\[\[resource\]\](T)]. *)

val pp : Format.formatter -> t -> unit
(** ["R3: //patient\[treatment\] (-)"]. *)

val equal : t -> t -> bool
(** Same resource (syntactically) and same effect; names ignored. *)
