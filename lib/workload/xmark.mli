(** The XMark-like benchmark dataset.

    The paper generates its documents with xmlgen from the XMark
    project, {e modified to eliminate all recursive paths} (Section
    7.1) so that the ShreX-style shredding and the schema-based
    expansion work.  This module is that modified generator: an auction
    site schema (regions/items, categories, people, open and closed
    auctions) without the recursive description/parlist part, driven by
    the same scale-factor parameter [f].

    Sizes are scaled down relative to the original xmlgen (f = 1 is
    roughly 10^5 nodes rather than 79 MB of XML) so the whole sweep
    fits a single-machine benchmark run; all figures compare shapes
    across [f], which scaling preserves. *)

val dtd : Xmlac_xml.Dtd.t

val generate : ?seed:int64 -> factor:float -> unit -> Xmlac_xml.Tree.t
(** Deterministic in [(seed, factor)]. [factor] must be positive. *)

val node_count_estimate : factor:float -> int
(** Rough expected node count, for sizing tables. *)

val value_pool : string -> string list
(** Candidate constants per PCDATA element type, matching the
    generator's own distributions — feeds value predicates in
    {!Xmlac_xpath.Qgen} so that generated queries actually select
    something. *)
