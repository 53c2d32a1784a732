(** A miniature XQuery engine — exactly the fragment the paper runs
    against MonetDB/XQuery (Section 5.2):

    {[
      for $n in doc("xmlgen")((//patient union //patient/name union
                               //regular) except
                              (//patient[treatment] union
                               //patient[.//experimental]))
      return xmlac:annotate($n, "+")
    ]}

    Grammar:

    {[
      query   ::= flwor | source
      flwor   ::= 'for' '$'name 'in' source 'return' action
      action  ::= 'xmlac:annotate(' '$'name ',' '"' sign '"' ')'
                | '$'name
      source  ::= 'doc(' '"' docname '"' ')' '(' setexpr ')'
      setexpr ::= atom (('union' | 'except' | 'intersect') atom)*
      atom    ::= absolute-XPath | '(' setexpr ')' | '()'
    ]}

    [()] is the empty sequence — the union over zero rule scopes that
    degenerate policies compile to (e.g. a rule-less policy), so every
    generated annotation query round-trips through this parser.

    Set operators associate left with equal precedence (parenthesize,
    as the generated queries do).  This is what lets the output of
    [Xmlac_core.Plan.to_xquery] be executed, not just displayed. *)

type action = Return | Annotate of Xmlac_xml.Tree.sign

type t = {
  doc_name : string;
  action : action;  (** [Return] for a plain node-set query. *)
}
(** Structural summary of a parsed query, for inspection. *)

type outcome =
  | Nodes of Xmlac_xml.Tree.node list
      (** Document order, for [Return] queries. *)
  | Annotated of int  (** Nodes whose sign was set. *)

val parse : string -> (t * (Xmlac_xml.Tree.t -> outcome), string) Stdlib.result
(** Parses a query; the returned closure evaluates it against the
    document bound to the query's [doc(...)] name. *)

val run : Store.t -> string -> (outcome, string) Stdlib.result
(** Parses and evaluates against the store ([doc("n")] looks up
    document [n]). *)

val run_exn : Store.t -> string -> outcome
(** @raise Invalid_argument on parse/lookup errors. *)
