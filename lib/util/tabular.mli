(** Plain-text table rendering for benchmark and report output.

    The paper presents its evaluation as tables and figures (Tables
    3 and 5, Figures 9-12); the [bench/] reproductions print their
    counterparts through this module so every experiment reports in
    one aligned, diff-friendly format. *)

type align = Left | Right

type t

val create : headers:string list -> t
(** A table with the given column headers; alignment defaults to
    [Right] for every column. *)

val set_align : t -> align list -> unit
(** Per-column alignment; the list must match the header count. *)

val add_row : t -> string list -> unit
(** Rows shorter than the header count are padded with empty cells;
    longer rows raise [Invalid_argument]. *)

val render : t -> string
(** The table as a string, newline-terminated. *)

val print : t -> unit
(** [render] to stdout. *)
