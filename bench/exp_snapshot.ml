(* Snapshot publication: deep-copy capture versus copy-on-write
   structural sharing.

   Not a paper artifact — the paper materializes one accessibility map
   in place; this measures the MVCC extension's publish path.  Each
   ladder rung materializes an annotated xmark document and its CAM,
   then commits [epochs] sign epochs of a fixed [change_set] size,
   publishing every epoch through a registry twice: once capturing a
   [Tree.copy] of the document (a deep copy, O(document)) and once
   capturing the live tree itself (an O(1) freeze plus O(changed)
   change-set bookkeeping).

   Expected shape: full-copy publish grows linearly with the document
   while COW publish stays flat — the hard assertion below demands
   p99 within 2x across a >= 16x document growth — and pinned history
   costs the change sets, not the copies: a thousand pinned epochs of
   the largest document must stay far below a thousand deep copies.

   A third table measures carry-forward across structural epochs, in
   memos and in decisions: a snapshot memoizes each query once, with
   the decision of every subject that asked, and carries or drops the
   memo whole.  Per mutation kind it counts the memos held before the
   epoch and those carried, then the decisions (one per subject and
   query, all memoized before the epoch) and those carried — every
   decision of a carried memo — against how many an exact test would
   have carried (the decisions that did not move), how many carried
   decisions differ from a direct read — which must be none — how
   many memos the capture examined (those whose root-path mask met
   the epoch's), and the capture's p50 time.
   It runs at two memo sizes, the second about 4x the first; the
   capture tests every memo's mask in one pass, so its time grows with
   the table, by a few nanoseconds a memo.
   The bench exits non-zero when any assertion fails, so CI fails
   loudly on a sharing regression or an unsound carry. *)

module Tree = Xmlac_xml.Tree
module Timing = Xmlac_util.Timing
module Tabular = Xmlac_util.Tabular
module Metrics = Xmlac_util.Metrics
module Prng = Xmlac_util.Prng
open Xmlac_core

let ladder = [ 0.001; 0.01; 0.1 ]
let epochs = 400
let change_set = 32
let pinned_target = 1000

(* Nearest-rank percentiles over the per-epoch publish times. *)
let pct samples p = Timing.percentile samples ~p

let live_bytes () =
  Gc.full_major ();
  let s = Gc.stat () in
  s.Gc.live_words * (Sys.word_size / 8)

(* A committed materialization to snapshot: signs stamped by the
   single-subject annotator, plus the CAM the engine would serve
   from. *)
let materialize factor =
  let doc = Bench_common.doc factor in
  let backend = Xml_backend.make doc in
  let policy = Bench_common.mid_coverage_policy factor in
  ignore (Annotator.annotate ~schema:Bench_common.schema_graph backend policy);
  let cam = Cam.build doc ~default:Tree.Minus in
  (doc, cam, policy)

(* The fixed change set: [change_set] random non-root nodes whose sign
   flips every epoch.  The flip is a real annotation write — it
   path-copies the node and its spine under COW — and the CAM is
   maintained incrementally exactly as the engine's commit would. *)
let pick_targets rng doc =
  let nodes =
    List.filter (fun (n : Tree.node) -> Tree.parent n <> None) (Tree.nodes doc)
  in
  let arr = Array.of_list nodes in
  List.init (min change_set (Array.length arr)) (fun _ ->
      arr.(Prng.int rng (Array.length arr)).Tree.id)

let mutate_epoch doc cam targets e =
  let sign = if e land 1 = 0 then Tree.Plus else Tree.Minus in
  List.iter
    (fun id ->
      match Tree.find doc id with
      | Some n -> Tree.set_sign doc n (Some sign)
      | None -> ())
    targets;
  ignore (Cam.apply_changes cam doc ~changed:targets)

(* One publishing lane: [epochs] commits, each mutating the change set
   (untimed) and then capturing + publishing (timed).  Nothing is
   pinned, so every publish reclaims its predecessor — the steady
   serving pattern. *)
let run_lane ~cow factor =
  let doc, cam, policy = materialize factor in
  let rng = Prng.create ~seed:42L in
  let targets = pick_targets rng doc in
  let metrics = Metrics.create () in
  let reg = Snapshot.create_registry ~metrics () in
  let samples = Array.make epochs 0.0 in
  Gc.full_major ();
  for e = 0 to epochs - 1 do
    mutate_epoch doc cam targets e;
    let _, dt =
      Timing.time (fun () ->
          let snap =
            if cow then
              Snapshot.capture
                ?prev:(Snapshot.current reg)
                ~epoch:e ~policy ~cam ~metrics doc
            else
              Snapshot.capture ~epoch:e ~policy ~cam ~metrics (Tree.copy doc)
          in
          Snapshot.publish reg snap)
    in
    samples.(e) <- dt
  done;
  (Tree.size doc, samples)

(* Pinned history on one document: publish [n] COW epochs and pin each
   one, then weigh the whole retained chain.  The full-copy cost is
   estimated from a handful of genuinely retained deep copies — a
   thousand of them would not fit the bench machine, which is rather
   the point. *)
let pinned_history factor n =
  let doc, cam, policy = materialize factor in
  let rng = Prng.create ~seed:43L in
  let targets = pick_targets rng doc in
  let metrics = Metrics.create () in
  let reg = Snapshot.create_registry ~metrics () in
  let before = live_bytes () in
  let pins = ref [] in
  for e = 0 to n - 1 do
    mutate_epoch doc cam targets e;
    let snap =
      Snapshot.capture
        ?prev:(Snapshot.current reg)
        ~epoch:e ~policy ~cam ~metrics doc
    in
    Snapshot.publish reg snap;
    pins := Snapshot.pin reg :: !pins
  done;
  let cow_bytes = live_bytes () - before in
  (* Per-copy weight from 8 retained deep copies. *)
  let probe = 8 in
  let before_full = live_bytes () in
  let copies = ref [] in
  for _ = 1 to probe do
    copies := Tree.copy doc :: !copies
  done;
  let per_copy = (live_bytes () - before_full) / probe in
  ignore (Sys.opaque_identity !copies);
  copies := [];
  let live = Snapshot.live reg in
  List.iter (fun p -> Snapshot.unpin reg p) !pins;
  (cow_bytes, per_copy * n, live)

(* --- carry across structural epochs ---------------------------------- *)

(* How much of the memo survives each kind of structural epoch.  An
   engine with two roles serves a fixed query pool for the anonymous
   subject and both roles; before each mutation every pair is
   requested (warming the current snapshot's memo) and read directly
   off the store.  After the mutation each pair is requested again: a
   memo hit is a carried entry, and a pair whose direct read did not
   move is one an exact test would have carried.  [carried <=
   unchanged] is the ceiling; a carried entry that differs from the
   direct read is a soundness failure.  [examined] is the capture's
   [snapshot.cache.examined]: the memos whose mask met the epoch's
   (a footprint drop or a search of the answers); [capture_us] the p50 of its
   [snapshot.capture] time over [carry_reps] rounds of the same
   mutation, each after a fresh warm-up. *)
let carry_factor = 0.1
let carry_sizes = [ 80; 320 ]
let carry_reps = 5

let carry_policy doc =
  let base = Xmlac_workload.Coverage.policy_for_target ~doc ~target:0.5 in
  let subjects = Subject.make_exn [ Subject.role "r0"; Subject.role "r1" ] in
  Policy.make ~subjects ~ds:(Policy.ds base) ~cr:(Policy.cr base)
    (Policy.rules base
    @ [ Rule.parse ~name:"q0" ~subjects:[ "r0" ]
          "//person[creditcard]/emailaddress" Rule.Plus;
        Rule.parse ~name:"q1" ~subjects:[ "r1" ] "//interest" Rule.Plus ])

(* Inserts of whole entities, of a creditcard under a person and of an
   interest under a profile, each followed by the delete of what it
   inserted: the mutation kinds of the repo benchmark's churn. *)
let carry_mutations doc =
  let person pred =
    let has (n : Tree.node) name =
      List.exists (fun (c : Tree.node) -> c.Tree.name = name) n.Tree.children
    in
    let name_of (n : Tree.node) =
      List.find_map
        (fun (c : Tree.node) ->
          if c.Tree.name = "name" then c.Tree.value else None)
        n.Tree.children
    in
    match
      List.find_map
        (fun (n : Tree.node) ->
          if n.Tree.name = "person" && pred (has n) then name_of n else None)
        (Tree.nodes doc)
    with
    | Some name -> Printf.sprintf "/site/people/person[name = \"%s\"]" name
    | None -> failwith "exp_snapshot: no anchor person"
  in
  let cardless = person (fun has -> not (has "creditcard"))
  and profiled = person (fun has -> has "profile") ^ "/profile" in
  [
    ( "person", "/site/people",
      "<person><name>cx1</name><emailaddress>mailto:cx1@example.com\
       </emailaddress><creditcard>1234</creditcard></person>",
      "/site/people/person[name = \"cx1\"]" );
    ( "item", "/site/regions/europe",
      "<item><location>Greece</location><quantity>1</quantity><name>cx2</name>\
       <payment>Cash</payment><description>lot</description></item>",
      "/site/regions/europe/item[name = \"cx2\"]" );
    ( "open_auction", "/site/open_auctions",
      "<open_auction><initial>12.00</initial><current>15.00</current>\
       <itemref>item1</itemref><seller>cx3</seller><quantity>1</quantity>\
       <type>Featured</type></open_auction>",
      "/site/open_auctions/open_auction[seller = \"cx3\"]" );
    ( "closed_auction", "/site/closed_auctions",
      "<closed_auction><seller>cx4</seller><buyer>person2</buyer>\
       <price>40.00</price></closed_auction>",
      "/site/closed_auctions/closed_auction[seller = \"cx4\"]" );
    ("creditcard", cardless, "<creditcard>9999</creditcard>", cardless ^ "/creditcard");
    ( "interest", profiled, "<interest>cx6</interest>",
      profiled ^ "/interest[. = \"cx6\"]" );
  ]

(* Counts in memos (one per query) and in decisions (one per
   subject and query: [entries] of them, every one memoized before the
   epoch). *)
type carry_row = {
  mutation : string;
  memos : int;
  carried_memos : int;
  entries : int;
  carried : int;  (* decisions of a carried memo *)
  unchanged : int;
  wrong : int;  (* carried decisions that differ from the direct read *)
  examined : int;
  capture_us : float;
}

let carry_table n =
  let doc = Bench_common.doc carry_factor in
  let eng =
    Engine.create ~dtd:Xmlac_workload.Xmark.dtd ~policy:(carry_policy doc) doc
  in
  ignore (Engine.annotate eng);
  ignore (Engine.annotate_subjects eng);
  let queries =
    Xmlac_workload.Queries.response_queries ~n ~seed:20090101L ()
    |> List.map Xmlac_xpath.Pp.expr_to_string
    |> List.sort_uniq compare
  in
  let pairs =
    List.concat_map
      (fun subject -> List.map (fun q -> (subject, q)) queries)
      [ None; Some "r0"; Some "r1" ]
  in
  assert (List.length queries <= Snapshot.memo_capacity);
  let m = Engine.metrics eng in
  let hits () = Metrics.counter m "cache.hits" in
  let memos () = Snapshot.cached_decisions (Engine.current_snapshot eng) in
  let capture_s () =
    List.fold_left
      (fun acc (stage, total, _) -> if stage = "snapshot.capture" then total else acc)
      0.0 (Metrics.timings m)
  in
  let direct (subject, q) = Engine.request_direct ?subject eng Engine.Native q in
  let warm () =
    List.iter
      (fun (subject, q) -> ignore (Engine.request ?subject eng Engine.Native q))
      pairs
  in
  (* The capture time of [apply]'s epoch. *)
  let timed apply =
    let t0 = capture_s () in
    apply ();
    capture_s () -. t0
  in
  (* A decision is carried when its query's memo was, which the
     epoch's snapshot shows before any read: every pair was memoized
     before the epoch, and a later read of a dropped query makes a new
     memo whose other subjects then fill (hits, yet not carried). *)
  let row mutation apply =
    warm ();
    let before = List.map direct pairs and held = memos () in
    let examined = Metrics.counter m "snapshot.cache.examined" in
    let first = timed apply in
    let examined = Metrics.counter m "snapshot.cache.examined" - examined in
    let snap = Engine.current_snapshot eng in
    let kept = List.filter (Snapshot.memoized snap) queries in
    let r =
      List.fold_left2
      (fun r ((subject, q) as pair) was ->
        let h = hits () in
        let d = Engine.request ?subject eng Engine.Native q in
        let now = direct pair in
        let carried = List.mem q kept in
        if carried && hits () = h then failwith "exp_snapshot: a carried memo missed";
        {
          r with
          carried = (r.carried + if carried then 1 else 0);
          unchanged = (r.unchanged + if now = was then 1 else 0);
          wrong = (r.wrong + if carried && d <> now then 1 else 0);
        })
        { mutation; memos = held; carried_memos = List.length kept;
          entries = List.length pairs; carried = 0; unchanged = 0;
          wrong = 0; examined; capture_us = 0.0 }
        pairs before
    in
    (r, first)
  in
  (* Each kind's insert/delete pair runs [carry_reps] times; the first
     round fills the row's counts. *)
  List.concat_map
    (fun (kind, at, xml, delete) ->
      let fragment = Xmlac_xml.Xml_parser.parse_exn xml in
      let insert () = ignore (Engine.insert eng ~at ~fragment)
      and delete () = ignore (Engine.update eng delete) in
      let ins, t_ins = row ("insert " ^ kind) insert in
      let del, t_del = row ("delete " ^ kind) delete in
      let ts_ins = ref [ t_ins ] and ts_del = ref [ t_del ] in
      for _ = 2 to carry_reps do
        warm ();
        ts_ins := timed insert :: !ts_ins;
        warm ();
        ts_del := timed delete :: !ts_del
      done;
      let p50 ts = pct (Array.of_list ts) 50.0 *. 1e6 in
      [ { ins with capture_us = p50 !ts_ins }; { del with capture_us = p50 !ts_del } ])
    (carry_mutations doc)

let run (_cfg : Bench_common.config) =
  Bench_common.section "Snapshot publication: full copy vs structural sharing";
  Printf.printf
    "%d epochs per rung, change set %d signs per epoch, ladder %s\n"
    epochs change_set
    (String.concat "/" (List.map Bench_common.pp_factor ladder));
  let t =
    Tabular.create
      ~headers:
        [ "factor"; "nodes"; "lane"; "p50"; "p99"; "p99 us"; "vs full p50" ]
  in
  let rows = ref [] in
  List.iter
    (fun factor ->
      let nodes_full, full = run_lane ~cow:false factor in
      let nodes_cow, cow = run_lane ~cow:true factor in
      assert (nodes_full = nodes_cow);
      let add lane samples other_p50 =
        Tabular.add_row t
          [
            Bench_common.pp_factor factor;
            string_of_int nodes_full;
            lane;
            Bench_common.pp_secs (pct samples 50.0);
            Bench_common.pp_secs (pct samples 99.0);
            Printf.sprintf "%.1f" (pct samples 99.0 *. 1e6);
            (match other_p50 with
            | None -> "-"
            | Some f -> Printf.sprintf "%.1fx" (f /. pct samples 50.0));
          ]
      in
      add "full" full None;
      add "cow" cow (Some (pct full 50.0));
      rows := (factor, nodes_full, full, cow) :: !rows)
    ladder;
  Tabular.print t;
  let rows = List.rev !rows in

  (* Pinned history on the largest rung. *)
  let largest = List.nth ladder (List.length ladder - 1) in
  let cow_bytes, full_estimate, live = pinned_history largest pinned_target in
  Printf.printf
    "\npinned history: %d pinned epochs on factor %s -> %d live snapshots, \
     %s resident (deep copies would need ~%s)\n"
    pinned_target
    (Bench_common.pp_factor largest)
    live
    (Bench_common.pp_bytes (max cow_bytes 0))
    (Bench_common.pp_bytes full_estimate);

  (* Carry across structural epochs, against the exact ceiling, at
     each memo size. *)
  let pct_of a b = if b = 0 then "-" else Printf.sprintf "%.1f%%" (100.0 *. float_of_int a /. float_of_int b) in
  let carries =
    List.map
      (fun n ->
        let carry = carry_table n in
        let total =
          List.fold_left
            (fun t r ->
              { t with memos = t.memos + r.memos;
                carried_memos = t.carried_memos + r.carried_memos;
                entries = t.entries + r.entries; carried = t.carried + r.carried;
                unchanged = t.unchanged + r.unchanged; wrong = t.wrong + r.wrong;
                examined = t.examined + r.examined })
            { mutation = "total"; memos = 0; carried_memos = 0; entries = 0; carried = 0;
              unchanged = 0; wrong = 0; examined = 0; capture_us = 0.0 }
            carry
        in
        Printf.printf
          "\ncarry across structural epochs: factor %s, %d queries x anonymous+2 \
           roles (%d memos, %d decisions), memo capacity %d\n"
          (Bench_common.pp_factor carry_factor)
          n (List.hd carry).memos (List.hd carry).entries Snapshot.memo_capacity;
        let ct =
          Tabular.create
            ~headers:
              [ "mutation"; "memos"; "carried memos"; "decisions"; "carried";
                "unchanged"; "carried/unchanged"; "wrong"; "examined"; "capture us p50" ]
        in
        List.iter
          (fun r ->
            Tabular.add_row ct
              [ r.mutation; string_of_int r.memos; string_of_int r.carried_memos;
                string_of_int r.entries; string_of_int r.carried;
                string_of_int r.unchanged; pct_of r.carried r.unchanged;
                string_of_int r.wrong; string_of_int r.examined;
                (if r == total then "-" else Printf.sprintf "%.1f" r.capture_us) ])
          (carry @ [ total ]);
        Tabular.print ct;
        (n, carry, total))
      carry_sizes
  in

  (* Machine-readable block for the CI artifact. *)
  print_endline "summary:";
  List.iter
    (fun (factor, nodes, full, cow) ->
      Printf.printf
        "  snapshot.%s: nodes=%d full_p50_s=%.6f full_p99_s=%.6f \
         cow_p50_s=%.6f cow_p99_s=%.6f speedup_p50=%.1fx\n"
        (Bench_common.pp_factor factor)
        nodes (pct full 50.0) (pct full 99.0) (pct cow 50.0) (pct cow 99.0)
        (pct full 50.0 /. pct cow 50.0))
    rows;
  Printf.printf
    "  snapshot.pinned: epochs=%d cow_bytes=%d full_estimate_bytes=%d\n"
    pinned_target (max cow_bytes 0) full_estimate;
  List.iter
    (fun (n, carry, total) ->
      Printf.printf
        "  snapshot.carry.q%d: memos=%d carried_memos=%d entries=%d carried=%d \
         unchanged=%d wrong=%d examined=%d capture_p50_us=%.1f\n"
        n total.memos total.carried_memos total.entries total.carried total.unchanged
        total.wrong total.examined
        (pct (Array.of_list (List.map (fun r -> r.capture_us) carry)) 50.0))
    carries;

  (* Hard assertions: a sharing regression fails the bench run. *)
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  (match (rows, List.rev rows) with
  | (f0, n0, _, cow0) :: _, (f1, n1, _, cow1) :: _ when f0 <> f1 ->
      if n1 < 16 * n0 then
        fail "ladder too flat: %d -> %d nodes is below the 16x floor" n0 n1;
      (* The 64us floor absorbs scheduler and GC-slice jitter on
         publishes that complete in single-digit microseconds: a
         publish that regressed to O(document) costs milliseconds at
         this rung (see the full lane), far above the floor. *)
      let allowed = max (2.0 *. pct cow0 99.0) 64e-6 in
      if pct cow1 99.0 > allowed then
        fail
          "COW publish is not sublinear: p99 %.1fus at %d nodes vs %.1fus at \
           %d nodes (allowed %.1fus)"
          (pct cow1 99.0 *. 1e6)
          n1
          (pct cow0 99.0 *. 1e6)
          n0 (allowed *. 1e6)
  | _ -> fail "ladder produced no rows");
  (match List.rev rows with
  | (_, _, full, cow) :: _ ->
      if pct cow 50.0 > pct full 50.0 then
        fail "COW publish slower than a deep copy on the largest document"
  | [] -> ());
  List.iter
    (fun (n, _, total) ->
      if total.wrong > 0 then
        fail "%d queries: %d carried decisions differ from request_direct" n
          total.wrong;
      if total.carried > total.unchanged then
        fail "%d queries: %d carried decisions, above the exact ceiling of %d" n
          total.carried total.unchanged)
    carries;
  if cow_bytes > full_estimate / 4 then
    fail
      "pinned COW history is not bounded: %d bytes vs %d for deep copies"
      cow_bytes full_estimate;
  match !failures with
  | [] ->
      print_endline
        "assertions: COW publish sublinear, pinned history bounded, every \
         carried decision equals request_direct, none above the ceiling"
  | fs ->
      List.iter (fun f -> Printf.printf "ASSERTION FAILED: %s\n" f) fs;
      exit 1
