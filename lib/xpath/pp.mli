(** Printing of XPath expressions in the standard abbreviated form:
    [//patient[treatment]/name], [//regular[bill > 1000]],
    [//patient[.//experimental]]. [Pp.expr_to_string] round-trips with
    {!Parser.parse}. *)

val pp_expr : Format.formatter -> Ast.expr -> unit
val pp_qual : Format.formatter -> Ast.qual -> unit

val expr_to_string : Ast.expr -> string
