(* Multi-subject annotation: one shared pass over per-node role
   bitmaps versus the historical one-plan-per-role loop.

   Not a paper artifact — the paper's engine annotates one subject at
   a time; this measures the multi-subject extension.  [n] roles draw
   their qualified rule from a fixed pool of 8 scopes round-robin, so
   any role count above the pool shares >= 50% of its plans (at 64
   roles, 56 of 64).  Each role count is annotated (a) by the shared
   pass — compile every role's projected policy, collapse
   answer-equivalent plans with Plan.equiv, evaluate each distinct
   plan once, fan the answer out to every sharing role's bit — and
   (b) by the ablation baseline: project each role with
   Policy.for_subject and run the single-subject annotator once per
   role.

   Expected shape: shared-pass time tracks the distinct-plan count,
   not the role count — 64 roles cost < 8x one role — and the roaring
   per-node bitmaps cost about half a byte per role per node.

   A second table times one structural mutation (a delete) on the
   native store with every role's bitmaps materialized, two ways: the
   sign repair followed by the full shared pass, and the sign repair
   with the region-restricted bitmap repair
   (Reannotator.prepare ~bits:true).  Both trigger through the Overlap
   graph, as the engine does, and must leave every role's accessible
   set identical; the bench exits non-zero otherwise. *)

module Tree = Xmlac_xml.Tree
module Timing = Xmlac_util.Timing
module Tabular = Xmlac_util.Tabular
module Bitset = Xmlac_util.Bitset
open Xmlac_core

let role_counts = [ 1; 8; 64; 512 ]

(* Overlapping xmark scopes; the round-robin assignment gives
   min(roles, 8) distinct per-role plans. *)
let scope_pool =
  [
    "//person";
    "//person/name";
    "//open_auction";
    "//closed_auction";
    "//item";
    "//bidder";
    "//person[creditcard]";
    "//annotation";
  ]

let policy_for ~roles:n =
  let subjects =
    Subject.make_exn
      (List.init n (fun i -> Subject.role (Printf.sprintf "r%d" i)))
  in
  let base =
    [
      Rule.parse ~name:"base-person" "//person" Rule.Plus;
      Rule.parse ~name:"base-item" "//item" Rule.Plus;
      Rule.parse ~name:"base-cc" "//person[creditcard]" Rule.Minus;
    ]
  in
  let qualified =
    List.init n (fun i ->
        Rule.parse
          ~name:(Printf.sprintf "q%d" i)
          ~subjects:[ Printf.sprintf "r%d" i ]
          (List.nth scope_pool (i mod List.length scope_pool))
          Rule.Plus)
  in
  Policy.make ~subjects ~ds:Rule.Minus ~cr:Rule.Minus (base @ qualified)

let secs s = Format.asprintf "%a" Timing.pp_seconds s

(* The structural mutation of the repair table: it reaches the
   [//person] and [//person[creditcard]] scopes, base and qualified. *)
let mutation = "//person/creditcard"
let repeats = 3

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

(* One mutation on a fresh, fully annotated native store, [repeats]
   times: returns the median seconds and the last store. *)
let time_mutation document policy ~run =
  let runs =
    List.init repeats (fun _ ->
        let b = Xml_backend.make (Tree.copy document) in
        ignore
          (Annotator.annotate ~schema:Bench_common.schema_graph b policy);
        ignore
          (Annotator.annotate_subjects ~schema:Bench_common.schema_graph b
             policy);
        let r, elapsed = Timing.time (fun () -> run b) in
        (b, r, elapsed))
  in
  let b, r, _ = List.nth runs (repeats - 1) in
  (median (List.map (fun (_, _, e) -> e) runs), b, r)

type repair = {
  roles : int;
  graph_s : float;  (** Building the Overlap dependency graph, once. *)
  signs_s : float;  (** The mutation with the sign repair only. *)
  full_s : float;  (** ... followed by the full shared pass. *)
  repair_s : float;  (** ... with the region bitmap repair instead. *)
  rewritten : int;  (** Nodes whose bitmap the region repair rewrote. *)
  agree : bool;  (** Every role's accessible set equal both ways. *)
}

let repair_row document n =
  let schema = Bench_common.schema_graph in
  let policy = policy_for ~roles:n in
  let update = Xmlac_xpath.Parser.parse_exn mutation in
  let depend, graph_s =
    Timing.time (fun () -> Depend.build ~mode:(Depend.Overlap schema) policy)
  in
  let signs_s, _, _ =
    time_mutation document policy ~run:(fun b ->
        Reannotator.reannotate ~schema b depend ~update)
  in
  let full_s, full_b, () =
    time_mutation document policy ~run:(fun b ->
        ignore (Reannotator.reannotate ~schema b depend ~update);
        ignore (Annotator.annotate_subjects ~schema b policy))
  in
  let repair_s, repair_b, stats =
    time_mutation document policy ~run:(fun b ->
        let p =
          Reannotator.prepare ~schema ~bits:true b depend ~touched:[ update ]
        in
        let deleted_roots = b.Backend.delete_update update in
        Reannotator.finish ~schema b depend p ~deleted_roots)
  in
  let default = Policy.default_bits policy in
  let agree =
    List.for_all
      (fun role ->
        Backend.accessible_ids_role full_b ~default ~role
        = Backend.accessible_ids_role repair_b ~default ~role)
      (List.init n Fun.id)
  in
  {
    roles = n;
    graph_s;
    signs_s;
    full_s;
    repair_s;
    rewritten = List.length stats.Reannotator.bits_changed;
    agree;
  }

let run (_cfg : Bench_common.config) =
  Bench_common.section "Multi-subject: shared-pass role-bitmap annotation";
  let factor = 0.01 in
  let document = Bench_common.doc factor in
  Printf.printf
    "document: %d nodes (factor %s); %d overlapping scopes; roles %s\n"
    (Tree.size document)
    (Bench_common.pp_factor factor)
    (List.length scope_pool)
    (String.concat "/" (List.map string_of_int role_counts));
  let native_doc = Tree.copy document in
  let native = Xml_backend.make native_doc in
  let stores =
    [
      ("xquery", native);
      ( "postgres",
        Rel_backend.make Bench_common.mapping
          (Bench_common.load_db Xmlac_reldb.Table.Row document
             ~default_sign:"-") );
      ( "monetsql",
        Rel_backend.make Bench_common.mapping
          (Bench_common.load_db Xmlac_reldb.Table.Column document
             ~default_sign:"-") );
    ]
  in
  let t =
    Tabular.create
      ~headers:
        [
          "roles";
          "plans";
          "shared";
          "xquery";
          "postgres";
          "monetsql";
          "per-role xquery";
          "reuse speedup";
          "bitmap B/node";
        ]
  in
  let summary = ref [] in
  List.iter
    (fun n ->
      let policy = policy_for ~roles:n in
      let stats = ref None in
      let shared_times =
        List.map
          (fun (label, b) ->
            let s, elapsed =
              Timing.time (fun () ->
                  Annotator.annotate_subjects
                    ~schema:Bench_common.schema_graph b policy)
            in
            stats := Some s;
            (label, elapsed))
          stores
      in
      let s = Option.get !stats in
      (* Bitmap footprint of the freshly annotated native store. *)
      let bytes =
        Tree.fold
          (fun acc node ->
            acc
            + match node.Tree.bits with
              | None -> 0
              | Some b -> Bitset.memory_bytes b)
          0 native_doc
      in
      let per_node = float_of_int bytes /. float_of_int (Tree.size native_doc) in
      (* Ablation baseline: no sharing — one projected policy and one
         full single-subject annotation per role, on the native store. *)
      let _, per_role =
        Timing.time (fun () ->
            List.iter
              (fun role ->
                ignore
                  (Annotator.annotate ~schema:Bench_common.schema_graph native
                     (Policy.for_subject policy role)))
              (Policy.roles policy))
      in
      let xq = List.assoc "xquery" shared_times in
      Tabular.add_row t
        [
          string_of_int n;
          string_of_int s.Annotator.distinct_plans;
          string_of_int s.Annotator.shared_plans;
          secs xq;
          secs (List.assoc "postgres" shared_times);
          secs (List.assoc "monetsql" shared_times);
          secs per_role;
          Printf.sprintf "%.1fx" (per_role /. xq);
          Printf.sprintf "%.1f" per_node;
        ];
      summary := (n, s, xq, per_role, per_node) :: !summary)
    role_counts;
  Tabular.print t;

  Printf.printf
    "\none structural mutation (delete %s), native store, median of %d:\n"
    mutation repeats;
  let rt =
    Tabular.create
      ~headers:
        [
          "roles";
          "overlap graph";
          "signs only";
          "full pass";
          "region repair";
          "speedup";
          "bitmaps rewritten";
          "agree";
        ]
  in
  let repairs = List.map (repair_row document) role_counts in
  List.iter
    (fun r ->
      Tabular.add_row rt
        [
          string_of_int r.roles;
          secs r.graph_s;
          secs r.signs_s;
          secs r.full_s;
          secs r.repair_s;
          Printf.sprintf "%.1fx" (r.full_s /. r.repair_s);
          string_of_int r.rewritten;
          (if r.agree then "yes" else "NO");
        ])
    repairs;
  Tabular.print rt;

  (* Machine-readable block for the CI artifact. *)
  let single =
    match List.rev !summary with (_, _, xq, _, _) :: _ -> xq | [] -> 1.0
  in
  print_endline "summary:";
  List.iter
    (fun (n, s, xq, per_role, per_node) ->
      Printf.printf
        "  multirole.%d: distinct_plans=%d shared_plans=%d shared_s=%.6f \
         per_role_s=%.6f reuse_speedup=%.1f bytes_per_node=%.2f \
         vs_single_role=%.1fx\n"
        n s.Annotator.distinct_plans s.Annotator.shared_plans xq per_role
        (per_role /. xq) per_node (xq /. single))
    (List.rev !summary);
  List.iter
    (fun r ->
      Printf.printf
        "  multirole.repair.%d: overlap_graph_s=%.6f signs_only_s=%.6f \
         full_pass_s=%.6f region_repair_s=%.6f speedup=%.1f \
         bits_rewritten=%d agree=%b\n"
        r.roles r.graph_s r.signs_s r.full_s r.repair_s
        (r.full_s /. r.repair_s) r.rewritten r.agree)
    repairs;
  print_endline
    "expected shape: shared-pass time tracks distinct plans, not roles (64 \
     roles < 8x one role); per-role loop degrades linearly; bitmaps cost \
     about half a byte per role per node; the region repair agrees with \
     the full pass and, from 8 roles on, costs well under half of it (at \
     one role the two cost about the same).";
  if not (List.for_all (fun r -> r.agree) repairs) then begin
    prerr_endline "multirole: region repair disagrees with the full pass";
    exit 1
  end
