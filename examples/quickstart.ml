(* Quickstart: the paper's motivating example, end to end.

   Build the hospital document of Figure 2, install the policy of
   Table 1, and watch the system optimize it (Table 3), annotate the
   native store and the two relational stores, answer queries with
   all-or-nothing semantics, and repair the annotations after a
   document update.  Exits 1 if a relational store ever disagrees with
   the engine.

   Run with: dune exec examples/quickstart.exe *)

open Xmlac_core
module W = Xmlac_workload

let () =
  (* 1. The document (Figure 2) and the policy (Table 1). *)
  let doc = W.Hospital.sample_document () in
  Printf.printf "hospital document: %d nodes\n" (Xmlac_xml.Tree.size doc);
  Format.printf "%a" Policy.pp W.Hospital.policy;

  (* 2. Assemble the system: optimizer + native store, and the paper's
     row- and column-engine stores shredded from the same document. *)
  let eng =
    Engine.create ~dtd:W.Hospital.dtd ~policy:W.Hospital.policy doc
  in
  (match Engine.optimizer_report eng with
  | Some report -> Format.printf "\n%a" Optimizer.pp_report report
  | None -> ());
  let policy = Engine.policy eng in
  let relational =
    List.map
      (fun engine -> snd (Rel_backend.load (Engine.mapping eng) policy engine doc))
      [ Xmlac_reldb.Table.Row; Xmlac_reldb.Table.Column ]
  in
  let agree what =
    let native = Engine.accessible eng in
    List.iter
      (fun b ->
        if Backend.accessible_ids b ~default:(Policy.ds policy) <> native then begin
          Printf.printf "%s: the %s store disagrees with the engine\n" what
            b.Backend.name;
          exit 1
        end)
      relational;
    Printf.printf "%s: all three stores agree\n" what
  in

  (* 3. Annotate every store with accessibility signs. *)
  print_newline ();
  let show_annotation name stats =
    Printf.printf "annotated %-10s: %d of %d nodes marked '+'\n" name
      stats.Annotator.marked stats.Annotator.total
  in
  show_annotation "native" (Engine.annotate eng);
  List.iter
    (fun b ->
      show_annotation b.Backend.name
        (Annotator.annotate_with_plan b (Engine.plan eng)))
    relational;
  agree "after annotation";

  (* 4. All-or-nothing query answering: the engine's native store, and
     the paper's requester over a relational store's own signs. *)
  print_endline "\nrequests:";
  let show name query d =
    Printf.printf "  [%-10s] %-28s -> %s\n" name query
      (Format.asprintf "%a" Requester.pp d)
  in
  let show_native query =
    show "native" query (Engine.request eng Engine.Native query)
  in
  let show_relational b query =
    show b.Backend.name query
      (Requester.request_string b ~default:(Policy.ds policy) query)
  in
  show_native "//patient/name";
  show_relational (List.nth relational 0) "//patient";
  show_relational (List.nth relational 1) "//patient[psn = \"099\"]";
  show_native "//experimental";

  (* 5. A document update: delete all treatments.  Rule R3
     (//patient[treatment], deny) stops applying, so the trigger
     machinery re-annotates the patients as accessible. *)
  print_endline "\nupdate: delete //patient/treatment";
  let update = "//patient/treatment" in
  let show_update name stats =
    Printf.printf "  [%-10s] triggered %d rule(s), re-annotated %d node(s)\n"
      name
      (List.length stats.Reannotator.triggered)
      stats.Reannotator.affected
  in
  List.iter (fun (_, stats) -> show_update "native" stats) (Engine.update eng update);
  List.iter
    (fun b ->
      show_update b.Backend.name
        (Reannotator.reannotate ~schema:(Engine.schema_graph eng) b
           (Engine.depend eng)
           ~update:(Xmlac_xpath.Parser.parse_exn update)))
    relational;

  print_endline "\nafter the update:";
  show_native "//patient";
  print_newline ();
  agree "after the update";

  (* 6. The annotated document, as the native store serializes it. *)
  print_endline "\nannotated document (native store):";
  print_string
    (Xmlac_xml.Serializer.to_string ~indent:true (Engine.document eng))
