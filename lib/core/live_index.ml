module Tree = Xmlac_xml.Tree
module Index = Xmlac_xpath.Index
module Metrics = Xmlac_util.Metrics

(* A lent buffer's storage belongs to its borrower until taken back. *)
type buffer = { idx : Index.t; mutable lent : bool }

type t = {
  doc : Tree.t;
  metrics : Metrics.t option;
  mutable cur : buffer;
  mutable kept : buffer option;  (* the shape before [cur]'s *)
}

let count t name = Option.iter (fun m -> Metrics.incr m name) t.metrics

let create ?metrics doc =
  { doc; metrics; cur = { idx = Index.build doc; lent = false }; kept = None }

let get t =
  if Index.describes t.cur.idx t.doc then t.cur.idx
  else
    match t.kept with
    | Some k when Index.describes k.idx t.doc ->
        t.kept <- Some t.cur;
        t.cur <- k;
        k.idx
    | _ ->
        count t "repair.index_rebuilds";
        t.kept <- Some t.cur;
        t.cur <- { idx = Index.build t.doc; lent = false };
        t.cur.idx

let patch t =
  if not (Index.describes t.cur.idx t.doc) then begin
    let into =
      match t.kept with
      | Some k when not k.lent -> Some k.idx
      | _ ->
          count t "repair.index_spares";
          None
    in
    let idx = Index.patch ?into t.cur.idx t.doc in
    count t "repair.index_patches";
    t.kept <- Some t.cur;
    t.cur <- { idx; lent = false }
  end

let lend t =
  let idx = get t in
  if t.cur.lent then None
  else begin
    t.cur.lent <- true;
    Some idx
  end

let take_back t unread =
  let offer b = if b.lent && unread b.idx then b.lent <- false in
  offer t.cur;
  Option.iter offer t.kept

let targets t e =
  let idx = get t in
  Array.fold_right
    (fun r acc -> Option.get (Tree.find t.doc (Index.id idx r)) :: acc)
    (Index.eval idx e) []
