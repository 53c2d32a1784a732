(* Auditing an auction site (XMark workload).

   An auditor must see auction and bidding activity but never personal
   payment data.  This example shreds an XMark-like document into both
   relational engines, shows the SQL that the ShreX translation
   produces for the policy rules, annotates everything, and
   cross-checks the three stores against each other and against the
   reference semantics, exiting 1 on any disagreement.

   Run with: dune exec examples/xmark_audit.exe *)

open Xmlac_core
module W = Xmlac_workload

let audit_policy =
  Policy.make ~ds:Rule.Minus ~cr:Rule.Minus
    [
      Rule.parse ~name:"A1" "//open_auction" Rule.Plus;
      Rule.parse ~name:"A2" "//open_auction//*" Rule.Plus;
      Rule.parse ~name:"A3" "//closed_auction" Rule.Plus;
      Rule.parse ~name:"A4" "//closed_auction//*" Rule.Plus;
      Rule.parse ~name:"A5" "//person" Rule.Plus;
      Rule.parse ~name:"A6" "//person/name" Rule.Plus;
      Rule.parse ~name:"A7" "//creditcard" Rule.Minus;
      Rule.parse ~name:"A8" "//person[creditcard]/profile" Rule.Minus;
      (* Redundant on purpose: the optimizer should drop it (contained
         in A2). *)
      Rule.parse ~name:"A9" "//open_auction/bidder" Rule.Plus;
    ]

let () =
  let doc = W.Xmark.generate ~factor:0.02 () in
  Printf.printf "auction site: %d nodes\n" (Xmlac_xml.Tree.size doc);

  let eng = Engine.create ~dtd:W.Xmark.dtd ~policy:audit_policy doc in
  let stores =
    List.map
      (fun engine ->
        snd (Rel_backend.load (Engine.mapping eng) (Engine.policy eng) engine doc))
      [ Xmlac_reldb.Table.Row; Xmlac_reldb.Table.Column ]
  in
  (match Engine.optimizer_report eng with
  | Some r ->
      Printf.printf "optimizer removed %d redundant rule(s):\n"
        (List.length r.Optimizer.removals);
      List.iter
        (fun rem ->
          Printf.printf "  %s (contained in %s)\n"
            rem.Optimizer.removed.Rule.name rem.Optimizer.because_of.Rule.name)
        r.Optimizer.removals
  | None -> ());

  (* The translated SQL for one rule, and the full annotation query in
     both of its concrete forms. *)
  print_endline "\nShreX translation of //person[creditcard]/profile:";
  Printf.printf "  %s\n"
    (Xmlac_reldb.Sql.query_to_string
       (Xmlac_shrex.Translate.translate_string (Engine.mapping eng)
          "//person[creditcard]/profile"));
  let plan = Plan.of_policy (Engine.policy eng) in
  print_endline "\nannotation query (XQuery form):";
  Printf.printf "  %s\n"
    (String.concat "\n  "
       (String.split_on_char '\n' (Plan.to_xquery ~doc_name:"xmark" plan)));

  (* Annotate and audit the stores. *)
  print_newline ();
  let show_annotation name stats =
    Printf.printf "annotated %-10s: %d/%d nodes accessible (%.1f%%)\n" name
      stats.Annotator.marked stats.Annotator.total
      (100.0 *. Annotator.coverage stats)
  in
  show_annotation "native" (Engine.annotate eng);
  List.iter
    (fun b ->
      show_annotation b.Backend.name
        (Annotator.annotate_with_plan b (Engine.plan eng)))
    stores;
  let ds = Policy.ds (Engine.policy eng) in
  let agree =
    List.for_all
      (fun b -> Backend.accessible_ids b ~default:ds = Engine.accessible eng)
      stores
  in
  Printf.printf "stores agree: %b\n" agree;
  let reference =
    Policy.accessible_ids (Engine.policy eng) (Engine.document eng)
  in
  let matches = reference = Engine.accessible eng in
  Printf.printf "matches reference semantics: %b\n" matches;
  if not (agree && matches) then exit 1;

  (* What the auditor can and cannot do. *)
  print_endline "\naudit requests (column-store backend):";
  let column = List.nth stores 1 in
  List.iter
    (fun q ->
      Printf.printf "  %-34s -> %s\n" q
        (Format.asprintf "%a" Requester.pp
           (Requester.request_string column ~default:ds q)))
    [
      "//open_auction/bidder/increase";
      "//closed_auction/price";
      "//person/name";
      "//creditcard";
      "//person[creditcard]/profile/age";
      "//person/emailaddress";
    ];

  (* Two alternative materializations of the same policy: the security
     view the auditor could be handed instead of the annotated
     document, and the compressed form of the annotations. *)
  let view = Security_view.materialize (Engine.policy eng) (Engine.document eng) in
  Printf.printf "\nsecurity view: %d nodes (document has %d)\n"
    (Xmlac_xml.Tree.size view)
    (Xmlac_xml.Tree.size (Engine.document eng));
  Format.printf "%a@."
    Cam.pp
    (Cam.build (Engine.document eng) ~default:Xmlac_xml.Tree.Minus)
