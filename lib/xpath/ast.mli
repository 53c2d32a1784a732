(** Abstract syntax of the XPath fragment of Section 2.2:

    {[
      Paths      p ::= axis::ntst | p[q] | p/p
      Qualifiers q ::= p | q and q | p = d
      Axes    axis ::= child | descendant
      Node test ntst ::= l | *
    ]}

    extended with the ordered comparisons that the paper's example
    policy uses (rule R8 is [//regular\[bill > 1000\]]).  Expressions in
    rules and queries are absolute; paths inside qualifiers are
    relative to the step they qualify. *)

type axis = Child | Descendant

type ntst = Name of string | Wildcard

type cmp = Eq | Neq | Lt | Le | Gt | Ge

type path = step list
(** A relative path; the empty list denotes the context node itself
    (written [.]). *)

and step = { axis : axis; test : ntst; quals : qual list }
(** Multiple qualifiers on one step are an implicit conjunction. *)

and qual =
  | Exists of path  (** [p] — some node is selected by [p]. *)
  | Value of path * cmp * string
      (** [p = d] and friends — some node selected by [p] has a value
          in the given relation to the constant.  The empty path
          constrains the context node's own value. *)
  | And of qual * qual

type expr = { steps : path }
(** An absolute expression, anchored at the (virtual) document root:
    [/a/b] is [{steps = [child::a; child::b]}] and [//a] is
    [{steps = [descendant::a]}]. *)

val step : ?quals:qual list -> axis -> ntst -> step
val absolute : path -> expr

val cmp_to_string : cmp -> string
val cmp_holds : cmp -> string -> string -> bool
(** [cmp_holds op v d] compares a node value [v] against a constant
    [d]: numerically when both parse as numbers, lexicographically
    otherwise. *)

val cmp_holds_parsed : cmp -> string -> string -> num:float option -> bool
(** {!cmp_holds} with the constant's numeric reading given
    ([num = float_of_string_opt d]), for a caller that compares many
    values against one constant. *)

val equal_expr : expr -> expr -> bool
(** Structural (syntactic) equality, qualifier order significant. *)

val size : expr -> int
(** Number of steps, including those inside qualifiers. *)

val has_descendant_in_qual : expr -> bool
(** Whether any qualifier contains a descendant-axis step — the case
    that requires schema-based expansion in Section 5.3. *)

val strip_quals : expr -> expr
(** The selection spine with all qualifiers removed. *)
