(* Subjects: role DAG, per-role resolution, role-aware policy files,
   and the shared multi-role annotation pass, on all three backends. *)

open Xmlac_core
module Prng = Xmlac_util.Prng

let hospital_sg = Lazy.force Helpers.hospital_sg
let rule ?name s e = Rule.parse ?name s e

module Bitset = Xmlac_util.Bitset

let two_role_subjects () =
  Subject.make_exn
    [
      Subject.role "staff";
      Subject.role ~inherits:[ "staff" ] ~ds:Rule.Plus "doctor";
    ]

let test_subject_dag_basics () =
  let s = two_role_subjects () in
  Alcotest.(check (list string)) "names in bit order" [ "staff"; "doctor" ]
    (Subject.names s);
  Alcotest.(check (option int)) "staff bit" (Some 0) (Subject.index s "staff");
  Alcotest.(check (option int)) "doctor bit" (Some 1) (Subject.index s "doctor");
  Alcotest.(check (option int)) "unknown role" None (Subject.index s "nurse");
  Alcotest.(check (list string)) "closure is self-first" [ "doctor"; "staff" ]
    (Subject.closure s "doctor");
  Alcotest.(check bool) "doctor overrides ds" true
    (Subject.resolved_ds s "doctor" = Some Rule.Plus);
  Alcotest.(check bool) "staff has no ds" true
    (Subject.resolved_ds s "staff" = None)

let test_subject_dag_inherited_override () =
  (* ds/cr resolve through the nearest ancestor that sets them. *)
  let s =
    Subject.make_exn
      [
        Subject.role ~ds:Rule.Plus ~cr:Rule.Plus "root";
        Subject.role ~inherits:[ "root" ] "mid";
        Subject.role ~inherits:[ "mid" ] ~cr:Rule.Minus "leaf";
      ]
  in
  Alcotest.(check bool) "mid inherits ds" true
    (Subject.resolved_ds s "mid" = Some Rule.Plus);
  Alcotest.(check bool) "leaf inherits ds from root" true
    (Subject.resolved_ds s "leaf" = Some Rule.Plus);
  Alcotest.(check bool) "leaf keeps own cr" true
    (Subject.resolved_cr s "leaf" = Some Rule.Minus)

let test_subject_dag_rejects () =
  let rejects what decls needle =
    match Subject.make decls with
    | Ok _ -> Alcotest.fail (what ^ ": accepted")
    | Error msg ->
        Alcotest.(check bool)
          (what ^ " names offender: " ^ msg)
          true
          (Helpers.contains msg needle)
  in
  rejects "duplicate" [ Subject.role "a"; Subject.role "a" ] "a";
  rejects "unknown parent" [ Subject.role ~inherits:[ "ghost" ] "a" ] "ghost";
  rejects "self cycle" [ Subject.role ~inherits:[ "a" ] "a" ] "a";
  rejects "two-step cycle"
    [ Subject.role ~inherits:[ "b" ] "a"; Subject.role ~inherits:[ "a" ] "b" ]
    "cycle";
  rejects "empty declaration list" [] ""

let two_role_policy () =
  Policy.make ~subjects:(two_role_subjects ()) ~ds:Rule.Minus ~cr:Rule.Minus
    [
      rule "//patient" Rule.Plus;
      Rule.parse ~subjects:[ "staff" ] "//patient[treatment]" Rule.Minus;
      Rule.parse ~subjects:[ "doctor" ] "//treatment" Rule.Plus;
    ]

let test_policy_for_subject () =
  let p = two_role_policy () in
  let staff = Policy.for_subject p "staff" in
  let doctor = Policy.for_subject p "doctor" in
  (* staff sees the unqualified rule and its own; doctor (an heir of
     staff) sees all three. *)
  Alcotest.(check int) "staff rules" 2 (List.length (Policy.rules staff));
  Alcotest.(check int) "doctor rules" 3 (List.length (Policy.rules doctor));
  Alcotest.(check bool) "doctor projection carries its ds override" true
    (Policy.ds doctor = Rule.Plus);
  Alcotest.(check bool) "staff projection keeps the policy ds" true
    (Policy.ds staff = Rule.Minus);
  Alcotest.(check bool) "resolved_ds agrees" true
    (Policy.resolved_ds p "doctor" = Rule.Plus)

let test_policy_applicability_defaults () =
  let p = two_role_policy () in
  let rules = Policy.rules p in
  let bits r = Bitset.to_list (Policy.applicability p r) in
  Alcotest.(check (list int)) "unqualified reaches every role" [ 0; 1 ]
    (bits (List.nth rules 0));
  Alcotest.(check (list int)) "@staff also reaches its heir" [ 0; 1 ]
    (bits (List.nth rules 1));
  Alcotest.(check (list int)) "@doctor reaches doctor only" [ 1 ]
    (bits (List.nth rules 2));
  Alcotest.(check (list int)) "default bits = roles resolving ds to +" [ 1 ]
    (Bitset.to_list (Policy.default_bits p))

let roles_policy_text =
  "role staff\n\
   role doctor inherits staff default allow\n\
   default deny\n\
   conflict deny\n\
   allow //patient\n\
   deny @staff //patient[treatment]\n\
   allow @doctor //treatment\n"

let test_policy_io_roles_round_trip () =
  let p = Policy_io.parse_exn roles_policy_text in
  Alcotest.(check (list string)) "roles" [ "staff"; "doctor" ] (Policy.roles p);
  Alcotest.(check bool) "doctor ds from decl" true
    (Policy.resolved_ds p "doctor" = Rule.Plus);
  let p' = Policy_io.parse_exn (Policy_io.to_string p) in
  Alcotest.(check bool) "role DAG survives the round trip" true
    (Subject.equal (Policy.subjects p) (Policy.subjects p'));
  Alcotest.(check (list string)) "rule qualifier survives" [ "staff" ]
    (List.nth (Policy.rules p') 1).Rule.subjects;
  let doc = Helpers.hospital_doc () in
  List.iter
    (fun role ->
      Alcotest.(check (list int))
        ("same accessibility for " ^ role)
        (Policy.accessible_ids ~subject:role p doc)
        (Policy.accessible_ids ~subject:role p' doc))
    (Policy.roles p)

let test_policy_io_role_errors () =
  let err what text needle ~line =
    match Policy_io.parse text with
    | Ok _ -> Alcotest.fail (what ^ ": accepted")
    | Error e ->
        let msg = Policy_io.error_to_string e in
        Alcotest.(check int) (what ^ ": line") line e.Policy_io.line;
        Alcotest.(check bool) (what ^ ": pos is 1-based") true
          (e.Policy_io.pos >= 1);
        Alcotest.(check bool)
          (what ^ " names offender: " ^ msg)
          true
          (Helpers.contains msg needle)
  in
  err "unknown parent" "role a inherits ghost\ndefault deny\n" "ghost" ~line:1;
  err "duplicate role" "role a\nrole a\ndefault deny\n" "a" ~line:2;
  (* The cycle is reported at the first declaration on the loop. *)
  err "inheritance cycle"
    "role a inherits b\nrole b inherits a\ndefault deny\n" "cycle" ~line:1;
  err "unknown qualifier role" "role a\ndefault deny\nallow @ghost //patient\n"
    "ghost" ~line:3;
  err "qualifier without role decls" "default deny\nallow @ghost //patient\n"
    "ghost" ~line:2

(* The tentpole property: for every role of a random multi-role policy
   over a random document, on each of the three backends, the one
   shared annotation pass materializes exactly the same accessible set
   as (a) the historical single-subject path run on the role's
   projected policy and (b) the reference semantics. *)

let subjects_equivalence_prop =
  QCheck2.Test.make
    ~name:"shared multi-role pass = per-role plans = reference (3 backends)"
    ~count:40 QCheck2.Gen.int64 (fun seed ->
      let rng = Prng.create ~seed in
      let doc = Helpers.random_hospital_doc rng in
      let subjects = Helpers.random_subjects rng in
      let names = Subject.names subjects in
      let n_rules = 1 + Prng.int rng 5 in
      let rules =
        List.init n_rules (fun i ->
            let quals = List.filter (fun _ -> Prng.int rng 3 = 0) names in
            Rule.make
              ~name:(Printf.sprintf "S%d" i)
              ~subjects:quals
              ~resource:(Helpers.random_hospital_expr rng)
              (if Prng.bool rng then Rule.Plus else Rule.Minus))
      in
      let ds = if Prng.bool rng then Rule.Plus else Rule.Minus in
      let cr = if Prng.bool rng then Rule.Plus else Rule.Minus in
      let p = Policy.make ~subjects ~ds ~cr rules in
      let reference =
        List.map
          (fun role -> (role, Policy.accessible_ids ~subject:role p doc))
          names
      in
      let default_bits = Policy.default_bits p in
      let shared_ok =
        List.for_all
          (fun backend ->
            let _ = Annotator.annotate_subjects ~schema:hospital_sg backend p in
            List.for_all
              (fun (i, role) ->
                Backend.accessible_ids_role backend ~default:default_bits
                  ~role:i
                = List.assoc role reference)
              (List.mapi (fun i r -> (i, r)) names))
          (Helpers.backends_for doc ~default_sign:"-")
      in
      let single_ok =
        List.for_all
          (fun role ->
            let solo = Policy.for_subject p role in
            List.for_all
              (fun backend ->
                let _ = Annotator.annotate ~schema:hospital_sg backend solo in
                Backend.accessible_ids backend ~default:(Policy.ds solo)
                = List.assoc role reference)
              (Helpers.backends_for doc ~default_sign:"-"))
          names
      in
      shared_ok && single_ok)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "subjects"
    [
      ( "role dag",
        [
          tc "basics" test_subject_dag_basics;
          tc "inherited overrides" test_subject_dag_inherited_override;
          tc "rejects malformed" test_subject_dag_rejects;
        ] );
      ( "policy projection",
        [
          tc "for_subject" test_policy_for_subject;
          tc "applicability and default bits"
            test_policy_applicability_defaults;
        ] );
      ( "policy io roles",
        [
          tc "round trip" test_policy_io_roles_round_trip;
          tc "errors carry line/pos" test_policy_io_role_errors;
        ] );
      ( "equivalence",
        [ QCheck_alcotest.to_alcotest subjects_equivalence_prop ] );
    ]
