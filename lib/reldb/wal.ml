module Fault = Xmlac_util.Fault

type entry = Begin of int | Commit of int | Record of string

(* One retained log entry.  [framed] is set only once the whole frame
   (header + payload + accounting) reached the log: a crash between the
   payload append and the accounting leaves a torn record, which
   recovery must drop.  Each cell snapshots the counters {e after}
   itself so truncation can restore the surviving prefix's counts and
   checksum exactly. *)
type cell = {
  entry : entry;
  mutable framed : bool;
  sum_after : int32;
  records_after : int;
  bytes_after : int;
}

type t = {
  mutable buf : Buffer.t;
  mutable cells : cell list; (* newest first *)
  mutable entry_count : int;
  mutable records : int;
  mutable total_bytes : int;
  mutable sum : int32;
  mutable open_ep : int option;
  mutable last_commit : int option;
  mutable rotated : int;
  (* Counter snapshot just before the oldest retained cell, so rotation
     (dropping old committed entries) keeps truncation exact. *)
  mutable base_sum : int32;
  mutable base_records : int;
  mutable base_bytes : int;
}

let create () =
  {
    buf = Buffer.create 4096;
    cells = [];
    entry_count = 0;
    records = 0;
    total_bytes = 0;
    sum = 1l;
    open_ep = None;
    last_commit = None;
    rotated = 0;
    base_sum = 1l;
    base_records = 0;
    base_bytes = 0;
  }

(* Adler-32, the classic journaling checksum: cheap but touches every
   byte, which is the cost profile we want. *)
let adler32 sum s =
  let base = 65521l in
  let a = ref (Int32.logand sum 0xFFFFl) in
  let b = ref (Int32.logand (Int32.shift_right_logical sum 16) 0xFFFFl) in
  String.iter
    (fun c ->
      a := Int32.rem (Int32.add !a (Int32.of_int (Char.code c))) base;
      b := Int32.rem (Int32.add !b !a) base)
    s;
  Int32.logor (Int32.shift_left !b 16) !a

(* Every record carries a fixed-size header (LSN + type + CRC slot in a
   real log); it participates in the checksum like the payload. *)
let header = String.make 32 '\x2a'

let payload = function
  | Begin n -> Printf.sprintf "BEGIN %d" n
  | Commit n -> Printf.sprintf "COMMIT %d" n
  | Record s -> s

(* Retention bound: committed entries beyond this are checkpointed away
   (counted in [rotated]); the tail recovery needs is always kept. *)
let max_retained = 65536

(* Index (oldest-first) of the first entry recovery would drop: the
   earliest torn entry, or the Begin of the open epoch — whichever
   comes first.  [None] means the whole retained log is committed. *)
let cut_index cells_oldest_first =
  let cut = ref None and open_begin = ref None in
  List.iteri
    (fun i c ->
      if !cut = None then
        if not c.framed then cut := Some i
        else
          match c.entry with
          | Begin _ -> open_begin := Some i
          | Commit _ -> open_begin := None
          | Record _ -> ())
    cells_oldest_first;
  match (!cut, !open_begin) with
  | Some a, Some b -> Some (min a b)
  | (Some _ as a), None -> a
  | None, b -> b

let rotate t =
  if t.entry_count > max_retained then begin
    let os = List.rev t.cells in
    let keep_from =
      let want = t.entry_count - (max_retained / 2) in
      match cut_index os with None -> want | Some c -> min want c
    in
    if keep_from > 0 then begin
      let dropped = ref [] and kept = ref [] in
      List.iteri
        (fun i c -> if i < keep_from then dropped := c :: !dropped else kept := c :: !kept)
        os;
      (match !dropped with
      | newest_dropped :: _ ->
          t.base_sum <- newest_dropped.sum_after;
          t.base_records <- newest_dropped.records_after;
          t.base_bytes <- newest_dropped.bytes_after
      | [] -> ());
      t.cells <- !kept;
      t.entry_count <- t.entry_count - keep_from;
      t.rotated <- t.rotated + keep_from
    end
  end

let refuse_if_killed what =
  if Fault.killed () then
    failwith (what ^ ": append after simulated crash (recover first)")

let append ?torn_point t entry =
  refuse_if_killed "Wal";
  let p = payload entry in
  Buffer.add_string t.buf header;
  Buffer.add_string t.buf (string_of_int (String.length p));
  Buffer.add_char t.buf '\x00';
  Buffer.add_string t.buf p;
  Buffer.add_char t.buf '\n';
  let cell =
    {
      entry;
      framed = false;
      sum_after = adler32 (adler32 t.sum header) p;
      records_after =
        (t.records + match entry with Record _ -> 1 | _ -> 0);
      bytes_after =
        (t.total_bytes + match entry with Record s -> String.length s | _ -> 0);
    }
  in
  t.cells <- cell :: t.cells;
  t.entry_count <- t.entry_count + 1;
  (match torn_point with Some pt -> Fault.point pt | None -> ());
  cell.framed <- true;
  t.sum <- cell.sum_after;
  t.records <- cell.records_after;
  t.total_bytes <- cell.bytes_after;
  (* Bound memory on huge loads: the byte image would be rotated on
     disk; here we recycle the buffer while keeping the counters. *)
  if Buffer.length t.buf > 16 * 1024 * 1024 then Buffer.clear t.buf;
  rotate t

let log t record =
  refuse_if_killed "Wal.log";
  Fault.point "wal.append";
  append ~torn_point:"wal.append.torn" t (Record record)

let begin_epoch t n =
  (match t.open_ep with
  | Some m ->
      invalid_arg (Printf.sprintf "Wal.begin_epoch: epoch %d already open" m)
  | None -> ());
  Fault.point "wal.begin";
  append t (Begin n);
  t.open_ep <- Some n

let commit_epoch t n =
  (match t.open_ep with
  | Some m when m = n -> ()
  | Some m ->
      invalid_arg
        (Printf.sprintf "Wal.commit_epoch: epoch %d open, cannot commit %d" m n)
  | None -> invalid_arg "Wal.commit_epoch: no epoch open");
  Fault.point "wal.commit";
  append t (Commit n);
  t.open_ep <- None;
  t.last_commit <- Some n

let open_epoch t = t.open_ep
let last_committed t = t.last_commit
let records t = t.records
let bytes_logged t = t.total_bytes
let checksum t = t.sum
let rotated t = t.rotated

let entries t = List.rev_map (fun c -> c.entry) t.cells

(* The one committed-prefix cursor every consumer shares: the retained
   cells oldest-first together with the cut recovery would truncate at.
   [replay], [fold_epochs] and [recover] all read the log through this,
   so "what counts as committed" has exactly one definition. *)
let committed_prefix t =
  let os = List.rev t.cells in
  (os, cut_index os)

let fold_committed t f acc =
  let os, cut = committed_prefix t in
  let _, acc =
    List.fold_left
      (fun (i, acc) c ->
        let committed = match cut with None -> true | Some j -> i < j in
        (i + 1, if committed then f acc c.entry else acc))
      (0, acc) os
  in
  acc

let replay t f =
  fold_committed t
    (fun n e ->
      match e with
      | Record s ->
          f s;
          n + 1
      | Begin _ | Commit _ -> n)
    0

(* Incremental epoch cursor: committed epochs oldest-first, each as its
   record batch.  An epoch only surfaces once its Commit marker is in
   the committed prefix, so a reader can never see a partial epoch.
   Records logged outside any epoch (bulk load) carry no epoch number
   and are not visited — they belong to the base image, not to any
   epoch. *)
let fold_epochs ?(from = min_int) t f acc =
  let finish (acc, open_) =
    ignore open_;
    acc
  in
  finish
    (fold_committed t
       (fun (acc, open_) e ->
         match (e, open_) with
         | Begin n, _ -> (acc, Some (n, []))
         | Record s, Some (n, rs) -> (acc, Some (n, s :: rs))
         | Record _, None -> (acc, None)
         | Commit n, Some (m, rs) when n = m ->
             if n > from then (f acc ~epoch:n ~records:(List.rev rs), None)
             else (acc, None)
         | Commit _, _ -> (acc, None))
       (acc, None))

let epoch_records t n =
  fold_epochs t
    (fun acc ~epoch ~records -> if epoch = n then Some records else acc)
    None

let epoch_checksum t n =
  Option.map
    (fun records -> List.fold_left adler32 1l records)
    (epoch_records t n)

let recover t =
  let os, cut = committed_prefix t in
  match cut with
  | None ->
      t.open_ep <- None;
      0
  | Some i ->
      let kept = ref [] in
      List.iteri (fun j c -> if j < i then kept := c :: !kept) os;
      let dropped = t.entry_count - i in
      t.cells <- !kept;
      t.entry_count <- i;
      (match !kept with
      | newest :: _ ->
          t.sum <- newest.sum_after;
          t.records <- newest.records_after;
          t.total_bytes <- newest.bytes_after
      | [] ->
          t.sum <- t.base_sum;
          t.records <- t.base_records;
          t.total_bytes <- t.base_bytes);
      (* The byte image's torn tail is gone with the counters; the
         buffer is only an accounting device, start it clean. *)
      Buffer.clear t.buf;
      t.open_ep <- None;
      dropped

let reset t =
  Buffer.clear t.buf;
  t.cells <- [];
  t.entry_count <- 0;
  t.records <- 0;
  t.total_bytes <- 0;
  t.sum <- 1l;
  t.open_ep <- None;
  t.last_commit <- None;
  t.rotated <- 0;
  t.base_sum <- 1l;
  t.base_records <- 0;
  t.base_bytes <- 0
