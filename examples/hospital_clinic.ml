(* A clinic with role-based policies.

   A larger generated hospital instance is shared by three roles, each
   with its own access control policy enforced through materialized
   annotations:

   - doctors   see everything about patients, including treatments;
   - nurses    see patients and regular treatments, but neither
               experimental treatments nor any patient under one;
   - billing   sees only bills and patient names.

   The same XPath requests are answered differently per role, and the
   deny/deny semantics of Section 3 resolves the rule conflicts.  Each
   role's annotations are also materialized in the paper's row- and
   column-engine stores; the example exits 1 if one disagrees with the
   engine.

   Run with: dune exec examples/hospital_clinic.exe *)

open Xmlac_core
module W = Xmlac_workload

let doctor_policy =
  Policy.make ~ds:Rule.Minus ~cr:Rule.Minus
    [
      Rule.parse ~name:"DOC1" "//patient" Rule.Plus;
      Rule.parse ~name:"DOC2" "//patient//*" Rule.Plus;
      Rule.parse ~name:"DOC3" "//staff" Rule.Plus;
      Rule.parse ~name:"DOC4" "//staff//*" Rule.Plus;
    ]

let nurse_policy =
  Policy.make ~ds:Rule.Minus ~cr:Rule.Minus
    [
      Rule.parse ~name:"N1" "//patient" Rule.Plus;
      Rule.parse ~name:"N2" "//patient/name" Rule.Plus;
      Rule.parse ~name:"N3" "//patient/psn" Rule.Plus;
      Rule.parse ~name:"N4" "//regular" Rule.Plus;
      Rule.parse ~name:"N5" "//regular/med" Rule.Plus;
      Rule.parse ~name:"N6" "//patient[.//experimental]" Rule.Minus;
      Rule.parse ~name:"N7" "//experimental" Rule.Minus;
    ]

let billing_policy =
  Policy.make ~ds:Rule.Minus ~cr:Rule.Minus
    [
      Rule.parse ~name:"B1" "//bill" Rule.Plus;
      Rule.parse ~name:"B2" "//patient/name" Rule.Plus;
      Rule.parse ~name:"B3" "//patient/psn" Rule.Plus;
    ]

let requests =
  [
    "//patient/name";
    "//patient[treatment]";
    "//regular/med";
    "//experimental";
    "//bill";
    "//staff//phone";
  ]

(* One role's engine with its relational stores beside it. *)
type role_stores = { eng : Engine.t; relational : Backend.t list }

let make_role_stores policy doc =
  let eng = Engine.create ~dtd:W.Hospital.dtd ~policy doc in
  let relational =
    List.map
      (fun engine ->
        snd (Rel_backend.load (Engine.mapping eng) (Engine.policy eng) engine doc))
      [ Xmlac_reldb.Table.Row; Xmlac_reldb.Table.Column ]
  in
  ignore (Engine.annotate eng);
  List.iter
    (fun b -> ignore (Annotator.annotate_with_plan b (Engine.plan eng)))
    relational;
  { eng; relational }

let stores_agree { eng; relational } =
  List.for_all
    (fun b ->
      Backend.accessible_ids b ~default:(Policy.ds (Engine.policy eng))
      = Engine.accessible eng)
    relational

let check_agree role r =
  if not (stores_agree r) then begin
    Printf.printf "%s: a relational store disagrees with the engine\n" role;
    exit 1
  end

let () =
  let doc = W.Hospital.generate ~seed:7L ~departments:4 ~patients_per_dept:12 () in
  Printf.printf "clinic document: %d nodes, %d patients\n\n"
    (Xmlac_xml.Tree.size doc)
    (List.length (Xmlac_xpath.Eval.eval doc (Xmlac_xpath.Parser.parse_exn "//patient")));
  let roles =
    [ ("doctor", doctor_policy); ("nurse", nurse_policy);
      ("billing", billing_policy) ]
  in
  (* One engine per role: each role's annotations materialize its own
     policy over the same data. *)
  let stores =
    List.map
      (fun (role, policy) ->
        let r = make_role_stores policy doc in
        Printf.printf "%-8s: %d rules, %d accessible nodes, stores agree: %b\n"
          role
          (Policy.size (Engine.policy r.eng))
          (List.length (Engine.accessible r.eng))
          (stores_agree r);
        check_agree role r;
        (role, r))
      roles
  in
  let engines = List.map (fun (role, r) -> (role, r.eng)) stores in
  print_endline "\nper-role decisions (native store):";
  Printf.printf "  %-24s" "request";
  List.iter (fun (role, _) -> Printf.printf " %-10s" role) engines;
  print_newline ();
  List.iter
    (fun q ->
      Printf.printf "  %-24s" q;
      List.iter
        (fun (_, eng) ->
          let d = Engine.request eng Engine.Native q in
          Printf.printf " %-10s"
            (if Requester.is_granted d then "granted" else "denied"))
        engines;
      print_newline ())
    requests;
  (* The nurse's view evolves with the data: once experimental
     treatments are removed, those patients become visible. *)
  let nurse = List.assoc "nurse" stores in
  print_endline "\nnurse, before vs after deleting experimental treatments:";
  let before = Engine.request nurse.eng Engine.Native "//patient" in
  let update = "//experimental" in
  let _ = Engine.update nurse.eng update in
  List.iter
    (fun b ->
      ignore
        (Reannotator.reannotate ~schema:(Engine.schema_graph nurse.eng) b
           (Engine.depend nurse.eng)
           ~update:(Xmlac_xpath.Parser.parse_exn update)))
    nurse.relational;
  let after = Engine.request nurse.eng Engine.Native "//patient" in
  Printf.printf "  //patient before: %s\n  //patient after:  %s\n"
    (Format.asprintf "%a" Requester.pp before)
    (Format.asprintf "%a" Requester.pp after);
  Printf.printf "  stores still consistent: %b\n" (stores_agree nurse);
  check_agree "nurse" nurse
