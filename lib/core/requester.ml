module Tree = Xmlac_xml.Tree
module Deadline = Xmlac_util.Deadline

type decision =
  | Granted of int list
  | Denied of { blocked : int }

(* One deadline checkpoint per selected node: the serve layer's
   cooperative timeout fires inside the accessibility sweep, so a
   request over a huge answer set cannot blow its budget silently. *)
let blocked ~accessible n id =
  Deadline.checkpoint ();
  if accessible id then n else n + 1

let decide ~ids ~accessible =
  let blocked = List.fold_left (blocked ~accessible) 0 ids in
  if blocked = 0 then Granted ids else Denied { blocked }

let request_via ~sign (backend : Backend.t) expr =
  Deadline.checkpoint ();
  let ids = backend.Backend.eval_ids expr in
  decide ~ids ~accessible:(fun id -> sign id = Tree.Plus)

let request (backend : Backend.t) ~default expr =
  request_via ~sign:(Backend.effective_sign backend ~default) backend expr

(* The rewrite lane: no sign or bitmap read — the backend evaluates the
   compiled granted/residue plan pair and the residue count is the
   blocked count.  Routing the granted ids back through [decide] keeps
   the per-node deadline checkpoints, so a huge rewritten answer is
   interruptible exactly like a materialized one. *)
let request_rewritten ?schema ?plan ?subject (backend : Backend.t) policy expr =
  Deadline.checkpoint ();
  let compiled = Rewrite.compile ?schema ?plan ?subject policy expr in
  let answer = Rewrite.eval backend compiled in
  if answer.Rewrite.blocked > 0 then Denied { blocked = answer.Rewrite.blocked }
  else decide ~ids:answer.Rewrite.granted_ids ~accessible:(fun _ -> true)

let parse_or_fail s =
  match Xmlac_xpath.Parser.parse s with
  | Ok e -> e
  | Error { Xmlac_xpath.Parser.pos; message } ->
      invalid_arg
        (Printf.sprintf "request: cannot parse %S at position %d: %s" s pos
           message)

let request_string backend ~default s =
  request backend ~default (parse_or_fail s)

let is_granted = function Granted _ -> true | Denied _ -> false

let pp ppf = function
  | Granted ids -> Format.fprintf ppf "granted (%d node(s))" (List.length ids)
  | Denied { blocked } ->
      Format.fprintf ppf "denied (%d inaccessible node(s))" blocked
