(* xmlacctl — command-line front end for the xmlac system.

   Subcommands:
     generate   synthesize an XMark-like document (xmlgen replacement)
     dtd        print a built-in DTD (hospital | xmark)
     shred      XML document -> SQL DDL + INSERT script
     optimize   remove redundant rules from a policy file
     annotate   materialize a policy's annotations into a document
     query      all-or-nothing request against an annotated document
     roles      list a policy's role DAG with per-role rule counts
     update     delete update + trigger-based partial re-annotation
     depend     show rule expansions and the dependency graph
     explain    annotation plan, rewrite trace, lowerings, timings
     recover    crash a mutating epoch at a fault point, then recover
     health     probe the resilient serving layer under injected faults
     serve      run pinned-snapshot reader sessions against a churning writer
     replicate  ship committed epochs to followers over a chaos transport *)

open Cmdliner
open Xmlac_core
module Tree = Xmlac_xml.Tree
module Fault = Xmlac_util.Fault
module Serve = Xmlac_serve.Serve
module Breaker = Xmlac_serve.Breaker
module Session = Xmlac_serve.Session
module Pool = Xmlac_serve.Pool
module Repl = Xmlac_replicate.Replicate
module Timing = Xmlac_util.Timing

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("xmlacctl: " ^ m); exit 1) fmt

let read_file path =
  try In_channel.with_open_bin path In_channel.input_all
  with Sys_error m -> die "cannot read %s: %s" path m

let write_out path content =
  match path with
  | None -> print_string content
  | Some p ->
      let oc = open_out_bin p in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> output_string oc content)

let load_dtd = function
  | "hospital" -> Xmlac_workload.Hospital.dtd
  | "xmark" -> Xmlac_workload.Xmark.dtd
  | path -> (
      match Xmlac_xml.Dtd.parse (read_file path) with
      | Ok dtd -> dtd
      | Error m -> die "cannot parse DTD %s: %s" path m)

let load_doc path =
  match Xmlac_xml.Xml_parser.parse (read_file path) with
  | Ok doc -> doc
  | Error e ->
      die "cannot parse %s: %s" path
        (Format.asprintf "%a" Xmlac_xml.Xml_parser.pp_error e)

let load_policy path =
  match Policy_io.parse (read_file path) with
  | Ok p -> p
  | Error e -> die "cannot parse policy %s: %s" path (Policy_io.error_to_string e)

let role_bit policy role =
  match Subject.index (Policy.subjects policy) role with
  | Some i -> i
  | None ->
      die "unknown role %S (declared: %s)" role
        (String.concat ", " (Policy.roles policy))

(* Shared --lane flag: which enforcement lane answers requests. *)
let lane_arg =
  let lane_conv =
    let parse s =
      match Rewrite.lane_of_string s with
      | Some l -> Ok l
      | None ->
          Error
            (`Msg
               (Printf.sprintf "invalid lane %S (expected auto, materialized or rewrite)"
                  s))
    in
    Arg.conv (parse, Rewrite.pp_lane)
  in
  Arg.(value & opt lane_conv Rewrite.Auto
       & info [ "lane" ]
           ~doc:"Enforcement lane: $(b,auto) picks per store (the \
                 query-rewrite lane when there is no materialized \
                 annotation to read), $(b,materialized) forces the paper's \
                 sign/bitmap lane, $(b,rewrite) forces static query \
                 rewriting — zero sign or bitmap reads.")

(* --- generate ----------------------------------------------------- *)

let generate factor seed output =
  let doc = Xmlac_workload.Xmark.generate ~seed:(Int64.of_int seed) ~factor () in
  write_out output (Xmlac_xml.Serializer.to_string ~indent:true doc);
  Printf.eprintf "generated %d nodes (factor %g)\n%!" (Tree.size doc) factor

let generate_cmd =
  let factor =
    Arg.(value & opt float 0.01 & info [ "f"; "factor" ] ~doc:"Scale factor.")
  in
  let seed = Arg.(value & opt int 20090101 & info [ "seed" ] ~doc:"PRNG seed.") in
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~doc:"Output file.")
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Synthesize an XMark-like document.")
    Term.(const generate $ factor $ seed $ output)

(* --- dtd ---------------------------------------------------------- *)

let dtd_cmd =
  let which =
    Arg.(value & pos 0 string "hospital" & info [] ~docv:"NAME")
  in
  Cmd.v
    (Cmd.info "dtd" ~doc:"Print a built-in DTD (hospital | xmark).")
    Term.(const (fun w -> print_string (Xmlac_xml.Dtd.to_string (load_dtd w))) $ which)

(* --- shred -------------------------------------------------------- *)

let shred dtd_name doc_path default_sign output =
  let dtd = load_dtd dtd_name in
  let doc = load_doc doc_path in
  (match Xmlac_xml.Dtd.validate dtd doc with
  | [] -> ()
  | v :: _ ->
      die "document not valid against DTD: %s"
        (Format.asprintf "%a" Xmlac_xml.Dtd.pp_violation v));
  let mapping = Xmlac_shrex.Mapping.of_dtd dtd in
  let stmts = Xmlac_shrex.Shred.insert_statements mapping ~default_sign doc in
  write_out output
    (Xmlac_shrex.Mapping.ddl mapping ^ Xmlac_reldb.Sql_text.render_script stmts)

let shred_cmd =
  let dtd_name =
    Arg.(required & opt (some string) None & info [ "dtd" ] ~doc:"DTD: hospital, xmark or a file.")
  in
  let doc_path = Arg.(required & pos 0 (some file) None & info [] ~docv:"DOC.xml") in
  let sign =
    Arg.(value & opt string "-" & info [ "default-sign" ] ~doc:"Initial sign column value.")
  in
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~doc:"Output file.")
  in
  Cmd.v
    (Cmd.info "shred" ~doc:"Shred an XML document into SQL (ShreX-style).")
    Term.(const shred $ dtd_name $ doc_path $ sign $ output)

(* --- optimize ----------------------------------------------------- *)

let optimize policy_path verbose =
  let policy = load_policy policy_path in
  let report = Optimizer.optimize policy in
  if verbose then Format.printf "%a" Optimizer.pp_report report
  else print_string (Policy_io.to_string report.Optimizer.result)

let optimize_cmd =
  let policy_path =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"POLICY")
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Show the removal report.")
  in
  Cmd.v
    (Cmd.info "optimize" ~doc:"Remove redundant rules from a policy.")
    Term.(const optimize $ policy_path $ verbose)

(* --- annotate ----------------------------------------------------- *)

let annotate doc_path policy_path output =
  let doc = load_doc doc_path in
  let policy = Optimizer.optimize_policy (load_policy policy_path) in
  let backend = Xml_backend.make doc in
  let stats = Annotator.annotate backend policy in
  Printf.eprintf "marked %d of %d nodes (%.1f%% coverage)\n%!"
    stats.Annotator.marked stats.Annotator.total
    (100.0 *. Annotator.coverage stats);
  write_out output (Xmlac_xml.Serializer.to_string ~indent:true doc)

let annotate_cmd =
  let doc_path = Arg.(required & pos 0 (some file) None & info [] ~docv:"DOC.xml") in
  let policy_path = Arg.(required & pos 1 (some file) None & info [] ~docv:"POLICY") in
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~doc:"Output file.")
  in
  Cmd.v
    (Cmd.info "annotate" ~doc:"Annotate a document with accessibility signs.")
    Term.(const annotate $ doc_path $ policy_path $ output)

(* --- query -------------------------------------------------------- *)

let query doc_path policy_path subject lane q =
  let doc = load_doc doc_path in
  let policy = load_policy policy_path in
  let backend = Xml_backend.make doc in
  let lane, why =
    match lane with
    | Rewrite.Auto ->
        (* A document that arrives with no sign attribute at all was
           never annotated: serve it through the rewrite lane rather
           than answering from defaults that materialization never
           confirmed. *)
        if Tree.signed doc Tree.Plus = [] && Tree.signed doc Tree.Minus = []
        then (Rewrite.Rewrite, "document carries no signs")
        else (Rewrite.Materialized, "document carries signs")
    | forced -> (forced, "forced")
  in
  Printf.eprintf "lane %s (%s)\n%!" (Rewrite.lane_to_string lane) why;
  let decision =
    match (lane, subject) with
    | Rewrite.Rewrite, None ->
        (* Static rewriting: the policy's accessible region intersected
           with the query, no sign read, no annotation pass. *)
        Requester.request_rewritten backend policy (Requester.parse_or_fail q)
    | Rewrite.Rewrite, Some role ->
        let _ = role_bit policy role in
        Requester.request_rewritten ~subject:role backend policy
          (Requester.parse_or_fail q)
    | _, None ->
        (* The document is expected to be annotated already (sign
           attributes); unannotated nodes fall back to the default. *)
        Requester.request_string backend ~default:(Policy.ds policy) q
    | _, Some role ->
        (* Per-role request: materialize every role's bitmap with the
           shared pass, then check the named role's bit. *)
        let idx = role_bit policy role in
        let _ = Annotator.annotate_subjects backend policy in
        let default = Policy.default_bits policy in
        let sign id =
          if Xmlac_util.Bitset.mem idx (Backend.effective_bits backend ~default id)
          then Tree.Plus
          else Tree.Minus
        in
        Requester.request_via ~sign backend (Requester.parse_or_fail q)
  in
  (match subject with
  | Some role -> Printf.printf "as %s: " role
  | None -> ());
  Format.printf "%a@." Requester.pp decision;
  match decision with
  | Requester.Granted ids ->
      List.iter
        (fun id ->
          match Tree.find doc id with
          | Some n ->
              Printf.printf "  #%d %s%s\n" id
                (String.concat "/" (Tree.label_path n))
                (match n.Tree.value with
                | Some v -> Printf.sprintf " = %S" v
                | None -> "")
          | None -> ())
        ids
  | Requester.Denied _ -> exit 3

let query_cmd =
  let doc_path = Arg.(required & pos 0 (some file) None & info [] ~docv:"DOC.xml") in
  let policy_path = Arg.(required & pos 1 (some file) None & info [] ~docv:"POLICY") in
  let subject =
    Arg.(value & opt (some string) None
         & info [ "subject" ]
             ~doc:"Answer for this role's bitmap slice instead of the \
                   anonymous single-subject signs.")
  in
  let q = Arg.(required & pos 2 (some string) None & info [] ~docv:"XPATH") in
  Cmd.v
    (Cmd.info "query"
       ~doc:"All-or-nothing request against a document (exit code 3 on denial).")
    Term.(const query $ doc_path $ policy_path $ subject $ lane_arg $ q)

(* --- roles -------------------------------------------------------- *)

let roles policy_path =
  let policy = load_policy policy_path in
  let subjects = Policy.subjects policy in
  Printf.printf "%d role(s), %d rule(s)\n" (Policy.role_count policy)
    (Policy.size policy);
  List.iter
    (fun (d : Subject.decl) ->
      let name = d.Subject.name in
      let applicable = Policy.rules (Policy.for_subject policy name) in
      Printf.printf "  %-12s inherits [%s]  ds %s  cr %s  %d rule(s)\n" name
        (String.concat ", " d.Subject.inherits)
        (Rule.effect_to_string (Policy.resolved_ds policy name))
        (Rule.effect_to_string (Policy.resolved_cr policy name))
        (List.length applicable))
    (Subject.decls subjects)

let roles_cmd =
  let policy_path =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"POLICY")
  in
  Cmd.v
    (Cmd.info "roles"
       ~doc:"List a policy's role DAG: inheritance, resolved default and \
             conflict semantics, and how many rules reach each role.")
    Term.(const roles $ policy_path)

(* --- update ------------------------------------------------------- *)

let update doc_path policy_path dtd_name update_expr output =
  let doc = load_doc doc_path in
  let policy = Optimizer.optimize_policy (load_policy policy_path) in
  let sg = Xmlac_xml.Schema_graph.build (load_dtd dtd_name) in
  let backend = Xml_backend.make doc in
  let depend = Depend.build ~mode:(Depend.Overlap sg) policy in
  let stats =
    Reannotator.reannotate ~schema:sg backend depend
      ~update:(Xmlac_xpath.Parser.parse_exn update_expr)
  in
  Printf.eprintf
    "deleted %d subtree(s); %d rule(s) triggered; %d node(s) re-annotated\n%!"
    stats.Reannotator.deleted_roots
    (List.length stats.Reannotator.triggered)
    stats.Reannotator.affected;
  write_out output (Xmlac_xml.Serializer.to_string ~indent:true doc)

let update_cmd =
  let doc_path = Arg.(required & pos 0 (some file) None & info [] ~docv:"DOC.xml") in
  let policy_path = Arg.(required & pos 1 (some file) None & info [] ~docv:"POLICY") in
  let dtd_name =
    Arg.(required & opt (some string) None & info [ "dtd" ] ~doc:"DTD: hospital, xmark or a file.")
  in
  let expr = Arg.(required & pos 2 (some string) None & info [] ~docv:"XPATH") in
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~doc:"Output file.")
  in
  Cmd.v
    (Cmd.info "update"
       ~doc:"Apply a delete update and partially re-annotate (Section 5.3).")
    Term.(const update $ doc_path $ policy_path $ dtd_name $ expr $ output)

(* --- depend ------------------------------------------------------- *)

let depend policy_path dtd_name =
  let policy = load_policy policy_path in
  let sg = Xmlac_xml.Schema_graph.build (load_dtd dtd_name) in
  print_endline "rule expansions:";
  List.iter
    (fun (r : Rule.t) ->
      Printf.printf "  %-4s -> { %s }\n" r.Rule.name
        (String.concat ", "
           (List.map Xmlac_xpath.Pp.expr_to_string
              (Xmlac_xpath.Expand.expand ~schema:sg r.Rule.resource))))
    (Policy.rules policy);
  print_endline "dependency graph (paper mode):";
  Format.printf "%a" Depend.pp (Depend.build ~mode:Depend.Paper policy)

let depend_cmd =
  let policy_path = Arg.(required & pos 0 (some file) None & info [] ~docv:"POLICY") in
  let dtd_name =
    Arg.(required & opt (some string) None & info [ "dtd" ] ~doc:"DTD: hospital, xmark or a file.")
  in
  Cmd.v
    (Cmd.info "depend" ~doc:"Show rule expansions and the dependency graph.")
    Term.(const depend $ policy_path $ dtd_name)

(* --- explain ------------------------------------------------------ *)

let explain policy_path dtd_name doc_path raw requests subjects lane =
  let policy = load_policy policy_path in
  let policy = if raw then policy else Optimizer.optimize_policy policy in
  let dtd = load_dtd dtd_name in
  let mapping = Xmlac_shrex.Mapping.of_dtd dtd in
  let sg = Xmlac_shrex.Mapping.schema_graph mapping in
  let doc = Option.map load_doc doc_path in
  Format.printf "%a@." Plan.pp_explain
    (Plan.explain ~schema:sg ~mapping ?doc (Plan.of_policy policy));
  (* The read path, exercised live: each --request query is answered
     twice through an engine (cold, then memoized by the current
     snapshot) — for the anonymous subject and for every --subject
     role — then the memo and checked-answer counters and the metrics are
     dumped.  Per-role figures are the counter movement across that
     role's requests. *)
  match (requests, doc) with
  | [], _ -> ()
  | _ :: _, None -> die "--request needs --doc to build an engine"
  | queries, Some doc ->
      let eng = Engine.create ~optimize:(not raw) ~dtd ~policy doc in
      List.iter (fun role -> ignore (role_bit (Engine.policy eng) role)) subjects;
      (* A forced rewrite lane leaves the store cold on purpose — the
         whole point is answering with zero sign or bitmap reads. *)
      (match lane with
      | Rewrite.Rewrite -> ()
      | _ ->
          let _ = Engine.annotate eng in
          if subjects <> [] then begin
            let stats = Engine.annotate_subjects eng in
            Printf.printf
              "subjects: %d role(s), %d distinct plan(s), %d shared\n"
              stats.Annotator.roles stats.Annotator.distinct_plans
              stats.Annotator.shared_plans
          end);
      print_endline "requester fast lane:";
      let resolved, why = Engine.resolve_lane ~lane eng in
      Printf.printf "  lane              %s (%s)\n"
        (Rewrite.lane_to_string resolved) why;
      let m = Engine.metrics eng in
      let c = Xmlac_util.Metrics.counter m in
      let per_role = Hashtbl.create 8 in
      let tally role f =
        let hits = c "cache.hits" and misses = c "cache.misses"
        and checked = c "snapshot.answers_checked" in
        let d = f () in
        let h, mi, l =
          Option.value (Hashtbl.find_opt per_role role) ~default:(0, 0, 0)
        in
        Hashtbl.replace per_role role
          ( h + c "cache.hits" - hits,
            mi + c "cache.misses" - misses,
            l + c "snapshot.answers_checked" - checked );
        d
      in
      List.iter
        (fun q ->
          let cold = Engine.request ~lane eng Engine.Native q in
          let warm = Engine.request ~lane eng Engine.Native q in
          ignore cold;
          Format.printf "  %-40s -> %a@." q Requester.pp warm;
          List.iter
            (fun role ->
              let ask () = Engine.request ~subject:role ~lane eng Engine.Native q in
              ignore (tally role ask);
              let warm = tally role ask in
              Format.printf "  %-40s -> %a@."
                (Printf.sprintf "%s [as %s]" q role)
                Requester.pp warm)
            subjects)
        queries;
      let rate hits misses =
        (* 0/0 must print as n/a, not nan. *)
        if hits + misses = 0 then "n/a"
        else Printf.sprintf "%.2f" (float_of_int hits /. float_of_int (hits + misses))
      in
      List.iter
        (fun role ->
          let hits, misses, checked =
            Option.value (Hashtbl.find_opt per_role role) ~default:(0, 0, 0)
          in
          Printf.printf
            "  as %-12s cache %d hit(s) / %d miss(es) (rate %s), answers checked %d\n"
            role hits misses (rate hits misses) checked)
        subjects;
      Printf.printf "  decision cache    %d/%d entries in the epoch %d snapshot, hit rate %s\n"
        (Snapshot.cached_decisions (Engine.current_snapshot eng))
        Snapshot.memo_capacity
        (Snapshot.epoch (Engine.current_snapshot eng))
        (rate (c "cache.hits") (c "cache.misses"));
      print_endline "durability:";
      Printf.printf "  sign epoch        %d (committed)\n"
        (Engine.sign_epoch eng);
      Format.printf "  %a@." Snapshot.pp_registry (Engine.snapshots eng);
      Printf.printf "  stale denials     %d\n"
        (Xmlac_util.Metrics.counter m Xmlac_util.Metrics.stale_snapshot_denials);
      (* The state digest the epoch shipper frames (a follower
         recomputes it after every applied frame). *)
      print_endline "replication:";
      Printf.printf "  state digest      %08lx (follower verifies per applied epoch)\n"
        (Engine.state_checksum eng);
      Format.printf "@[<v 2>  metrics:@,%a@]@."
        Xmlac_util.Metrics.pp (Engine.metrics eng)

let explain_cmd =
  let policy_path = Arg.(required & pos 0 (some file) None & info [] ~docv:"POLICY") in
  let dtd_name =
    Arg.(required & opt (some string) None & info [ "dtd" ] ~doc:"DTD: hospital, xmark or a file.")
  in
  let doc_path =
    Arg.(value & opt (some file) None
         & info [ "doc" ] ~doc:"Document for per-scope node counts and native evaluation.")
  in
  let raw =
    Arg.(value & flag
         & info [ "raw" ] ~doc:"Compile the policy as written, skipping redundancy elimination.")
  in
  let requests =
    Arg.(value & opt_all string []
         & info [ "request" ]
             ~doc:"Also run this XPath request twice (cold, memoized) \
                   through the engine's fast lane and report its metrics — \
                   memo hits, answers checked. Needs --doc. Repeatable.")
  in
  let subjects =
    Arg.(value & opt_all string []
         & info [ "subject" ]
             ~doc:"Also run each --request as this role (shared-pass bitmap \
                   annotation first) and report its per-role cache and CAM \
                   counters. Repeatable.")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Show a policy's annotation plan: rewrite trace, SQL and XQuery lowerings, timings.")
    Term.(const explain $ policy_path $ dtd_name $ doc_path $ raw $ requests
          $ subjects $ lane_arg)

(* --- recover ------------------------------------------------------ *)

let recover_run policy_path dtd_name doc_path update_expr kill_at kill_after
    prob fault_seed =
  let policy = Optimizer.optimize_policy (load_policy policy_path) in
  let dtd = load_dtd dtd_name in
  let doc = load_doc doc_path in
  (match fault_seed with
  | Some s -> Fault.set_seed (Int64.of_int s)
  | None -> Option.iter Fault.set_seed (Fault.env_seed ()));
  Fault.reset ();
  let eng = Engine.create ~dtd ~policy doc in
  let _ = Engine.annotate eng in
  let e0 = Engine.sign_epoch eng in
  (* Arm only now, so the setup annotation runs to completion and the
     crash lands inside the update epoch. *)
  (match kill_at with
  | Some pt -> Fault.arm pt (Fault.After kill_after)
  | None -> Fault.arm_all ~prob);
  let crashed =
    match Engine.update eng update_expr with
    | stats ->
        Printf.printf "update survived (no trigger fired); %d rule(s) hit\n"
          (List.concat_map
             (fun (_, s) -> s.Reannotator.triggered)
             stats
          |> List.sort_uniq compare |> List.length);
        false
    | exception Fault.Crash site ->
        Printf.printf "crashed at fault point %s (epoch %s left open)\n" site
          (match Engine.open_epoch eng with
          | Some n -> string_of_int n
          | None -> "none");
        true
  in
  if not crashed then Fault.reset ();
  let r, recover_t = Timing.time (fun () -> Engine.recover eng) in
  Printf.printf "recovery: direction %s, signs rolled back %d\n"
    (match r.Engine.direction with
    | `None -> "none"
    | `Back -> "backward"
    | `Forward -> "forward")
    r.Engine.signs_rolled_back;
  (* The oracle: a twin that never crashed.  Its full annotation is
     also the baseline recovery is timed against; it then runs the
     update iff the recovered engine committed it (a kill before the
     epoch opened leaves nothing to recover). *)
  let twin = Engine.create ~dtd ~policy doc in
  let full_t = snd (Timing.time (fun () -> Engine.annotate twin)) in
  let committed = Engine.sign_epoch eng > e0 in
  if committed then ignore (Engine.update twin update_expr);
  let matches = Engine.state_checksum eng = Engine.state_checksum twin in
  Printf.printf "sign epoch now %d; state %s the uncrashed twin (%s)\n"
    (Engine.sign_epoch eng)
    (if matches then "matches" else "DIVERGED from")
    (if committed then "post-update" else "pre-update");
  Format.printf "recover took %a; full re-annotation baseline %a (%.1fx)@."
    Timing.pp_seconds recover_t Timing.pp_seconds full_t
    (full_t /. Float.max recover_t 1e-9);
  if not matches then exit 4

let recover_cmd =
  let policy_path =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"POLICY")
  in
  let dtd_name =
    Arg.(required & opt (some string) None
         & info [ "dtd" ] ~doc:"DTD: hospital, xmark or a file.")
  in
  let doc_path =
    Arg.(required & opt (some file) None
         & info [ "doc" ] ~doc:"Document to build the engine over.")
  in
  let update_expr =
    Arg.(required & opt (some string) None
         & info [ "update" ] ~doc:"Delete update to crash mid-flight.")
  in
  let kill_at =
    Arg.(value & opt (some string) None
         & info [ "kill-at" ]
             ~doc:"Fault point to arm (e.g. native.set_sign, epoch.commit); \
                   default arms every point probabilistically.")
  in
  let kill_after =
    Arg.(value & opt int 1
         & info [ "kill-after" ] ~doc:"Crash on the Nth hit of --kill-at.")
  in
  let prob =
    Arg.(value & opt float 0.05
         & info [ "prob" ] ~doc:"Per-hit crash probability without --kill-at.")
  in
  let fault_seed =
    Arg.(value & opt (some int) None
         & info [ "fault-seed" ]
             ~doc:"Seed for probabilistic triggers (overrides the \
                   XMLAC_FAULT_SEED environment variable).")
  in
  Cmd.v
    (Cmd.info "recover"
       ~doc:"Crash a mutating epoch at a deterministic fault point, then run \
             epoch recovery and report its cost against full re-annotation \
             (exit code 4 if the recovered state differs from an uncrashed \
             twin's).")
    Term.(const recover_run $ policy_path $ dtd_name $ doc_path $ update_expr
          $ kill_at $ kill_after $ prob $ fault_seed)

(* --- health ------------------------------------------------------- *)

let health_run policy_path dtd_name doc_path requests fault_rate seed
    deadline_ticks retries followers =
  let policy = Optimizer.optimize_policy (load_policy policy_path) in
  let dtd = load_dtd dtd_name in
  let doc = load_doc doc_path in
  Fault.reset ();
  Fault.set_seed (Int64.of_int seed);
  let eng = Engine.create ~dtd ~policy doc in
  let _ = Engine.annotate eng in
  let config =
    { Serve.default_config with Serve.deadline_ticks; max_retries = retries }
  in
  let serve = Serve.create ~config eng in
  (* A deterministic probe workload: the policy's own rule resources,
     round-robin. *)
  let queries =
    match
      List.map
        (fun (r : Rule.t) -> Xmlac_xpath.Pp.expr_to_string r.Rule.resource)
        (Policy.rules policy)
    with
    | [] -> [| "//*" |]
    | qs -> Array.of_list qs
  in
  let granted = ref 0
  and denied = ref 0
  and degraded = ref 0
  and errors = ref 0 in
  for step = 0 to requests - 1 do
    (* auto-recovery disarms the registry: re-arm every step *)
    if fault_rate > 0.0 then Fault.arm_all_transient ~prob:fault_rate;
    let q = queries.(step mod Array.length queries) in
    match Serve.request serve Engine.Native q with
    | Ok r ->
        if r.Serve.served = Serve.Degraded then incr degraded;
        if Requester.is_granted r.Serve.decision then incr granted
        else incr denied
    | Error _ -> incr errors
  done;
  (* quiet phase: the faults stop; the breaker must re-close within
     cooldown + probes admitted calls *)
  Fault.disarm_all ();
  let bcfg = config.Serve.breaker in
  let budget = bcfg.Breaker.cooldown + bcfg.Breaker.probes in
  let br = Serve.breaker serve in
  let i = ref 0 in
  while Breaker.state br <> Breaker.Closed && !i < budget do
    ignore
      (Serve.request serve Engine.Native queries.(!i mod Array.length queries));
    incr i
  done;
  Printf.printf
    "probe: %d request(s) to the native store, fault rate %.2f, %d quer%s\n"
    requests fault_rate (Array.length queries)
    (if Array.length queries = 1 then "y" else "ies");
  let m = Engine.metrics eng in
  Printf.printf
    "  granted %d, denied %d, degraded %d, error(s) %d, retries %d, \
     auto-recoveries %d\n"
    !granted !denied !degraded !errors
    (Xmlac_util.Metrics.counter m "serve.retries")
    (Xmlac_util.Metrics.counter m "serve.auto_recoveries");
  let h = Serve.health serve in
  Format.printf "%a@?" Serve.pp_health h;
  Fault.reset ();
  let repl_ok =
    if followers <= 0 then true
    else begin
      (* Replication probe: a fresh cluster over the same inputs, the
         annotation epochs shipped through the chaos transport at the
         probe's fault rate, then one status line per node plus the
         stream counters. *)
      let rconfig =
        {
          Repl.default_config with
          Repl.seed = Int64.of_int seed;
          drop_p = fault_rate;
          dup_p = fault_rate;
          reorder_p = fault_rate;
          torn_p = fault_rate /. 2.0;
          max_reship = 10_000;
          serve = config;
        }
      in
      let cluster = Repl.create ~config:rconfig ~followers ~dtd ~policy doc in
      let ok = ref true in
      (match Repl.annotate_all cluster with
      | Ok () -> ()
      | Error e ->
          ok := false;
          Printf.printf "replication: annotate failed: %s\n" e.Serve.message);
      let converged = Repl.sync cluster in
      Printf.printf "replication: %d committed epoch(s), %d follower(s)%s\n"
        (Repl.committed cluster) followers
        (if converged then "" else "  NOT CONVERGED");
      Format.printf "%a" Repl.pp_status cluster;
      Fault.reset ();
      !ok && converged
      && not
           (List.exists (Repl.diverged cluster) (Repl.nodes cluster))
    end
  in
  if not (Serve.healthy h && repl_ok) then exit 3

let health_cmd =
  let policy_path =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"POLICY")
  in
  let dtd_name =
    Arg.(required & opt (some string) None
         & info [ "dtd" ] ~doc:"DTD: hospital, xmark or a file.")
  in
  let doc_path =
    Arg.(required & opt (some file) None
         & info [ "doc" ] ~doc:"Document to build the engine over.")
  in
  let requests =
    Arg.(value & opt int 30
         & info [ "requests" ] ~doc:"Probe requests to issue.")
  in
  let fault_rate =
    Arg.(value & opt float 0.0
         & info [ "fault-rate" ]
             ~doc:"Per-point transient fault probability during the probe.")
  in
  let seed =
    Arg.(value & opt int 1
         & info [ "seed" ] ~doc:"Seed for the transient fault schedule.")
  in
  let deadline_ticks =
    Arg.(value & opt (some int) None
         & info [ "deadline-ticks" ]
             ~doc:"Cooperative deadline budget per request (checkpoint \
                   crossings).")
  in
  let retries =
    Arg.(value & opt int 2
         & info [ "retries" ]
             ~doc:"Transient retry budget per request, and per replication \
                   epoch with $(b,--followers).")
  in
  let followers =
    Arg.(value & opt int 0
         & info [ "followers" ]
             ~doc:"Also probe replication: ship the annotation epochs to \
                   this many followers through the chaos transport at \
                   --fault-rate and report per-node role, applied epoch, \
                   lag and the stream counters (0 skips the probe).")
  in
  Cmd.v
    (Cmd.info "health"
       ~doc:"Drive a probe workload through the resilient serving layer \
             under an optional transient-fault schedule, then report breaker \
             states, queue depth, snapshot coherence and — with --followers \
             — replication lag (exit code 3 if the layer ends unhealthy).")
    Term.(const health_run $ policy_path $ dtd_name $ doc_path $ requests
          $ fault_rate $ seed $ deadline_ticks $ retries $ followers)

(* --- serve -------------------------------------------------------- *)

let serve_run policy_path dtd_name doc_path readers requests churn update_expr
    domains =
  let policy = Optimizer.optimize_policy (load_policy policy_path) in
  let dtd = load_dtd dtd_name in
  let doc = load_doc doc_path in
  Fault.reset ();
  let eng = Engine.create ~dtd ~policy doc in
  let _ = Engine.annotate eng in
  if Policy.role_count policy > 0 then ignore (Engine.annotate_subjects eng);
  let serve = Serve.create eng in
  let pool = Pool.create ?domains () in
  let queries =
    match
      List.map
        (fun (r : Rule.t) -> Xmlac_xpath.Pp.expr_to_string r.Rule.resource)
        (Policy.rules policy)
    with
    | [] -> [| "//*" |]
    | qs -> Array.of_list qs
  in
  (* Readers cycle anonymous, role 1, role 2, ... over the declared roles. *)
  let roles = Array.of_list (Policy.roles policy) in
  let subject_of i =
    if Array.length roles = 0 || i mod (Array.length roles + 1) = 0 then None
    else Some roles.((i mod (Array.length roles + 1)) - 1)
  in
  (* Every session pins the same committed epoch before the writer
     starts, so each reader's decisions are schedule-independent: the
     concurrent and --domains 1 runs print identical reader lines. *)
  let sessions =
    List.init readers (fun i -> Session.open_ ?subject:(subject_of i) serve)
  in
  let reader_job sess () =
    let granted = ref 0 and denied = ref 0 and errs = ref 0 in
    for k = 0 to requests - 1 do
      match Session.request sess queries.(k mod Array.length queries) with
      | Ok r ->
          if Requester.is_granted r.Serve.decision then incr granted
          else incr denied
      | Error _ -> incr errs
    done;
    `Reader (!granted, !denied, !errs)
  in
  let writer_job () =
    let applied = ref 0 and recovered = ref 0 and other = ref 0 in
    for _ = 1 to churn do
      match Serve.update serve update_expr with
      | Ok (Serve.Applied _) -> incr applied
      | Ok Serve.Recovered -> incr recovered
      | Ok (Serve.Queued _) | Error _ -> incr other
    done;
    `Writer (!applied, !recovered, !other)
  in
  let jobs = List.map reader_job sessions @ [ writer_job ] in
  Printf.printf
    "serve: %d reader(s) x %d request(s), writer churn %d, %d domain(s) (%s)\n"
    readers requests churn (Pool.size pool)
    (if Pool.sequential pool then "deterministic" else "concurrent");
  let outcomes = Pool.parallel pool jobs in
  List.iteri
    (fun i outcome ->
      match outcome with
      | `Reader (granted, denied, errs) ->
          let sess = List.nth sessions i in
          Printf.printf
            "  reader %-2d [%-12s] epoch %d: granted %d, denied %d, error(s) \
             %d\n"
            i
            (Option.value ~default:"anonymous" (Session.subject sess))
            (Session.epoch sess) granted denied errs
      | `Writer (applied, recovered, other) ->
          Printf.printf
            "  writer     applied %d, recovered %d, queued/failed %d\n" applied
            recovered other)
    outcomes;
  List.iter Session.close sessions;
  Pool.shutdown pool;
  Format.printf "%a@." Snapshot.pp_registry (Engine.snapshots eng);
  let h = Serve.health serve in
  Format.printf "%a@?" Serve.pp_health h;
  if not (Serve.healthy h) then exit 3

let serve_cmd =
  let policy_path =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"POLICY")
  in
  let dtd_name =
    Arg.(required & opt (some string) None
         & info [ "dtd" ] ~doc:"DTD: hospital, xmark or a file.")
  in
  let doc_path =
    Arg.(required & opt (some file) None
         & info [ "doc" ] ~doc:"Document to build the engine over.")
  in
  let readers =
    Arg.(value & opt int 4
         & info [ "readers" ] ~doc:"Pinned reader sessions to open.")
  in
  let requests =
    Arg.(value & opt int 8
         & info [ "requests" ] ~doc:"Requests per reader session.")
  in
  let churn =
    Arg.(value & opt int 3
         & info [ "churn" ] ~doc:"Writer mutations applied while readers run.")
  in
  let update_expr =
    Arg.(value & opt string "//person/creditcard"
         & info [ "update" ] ~doc:"Delete update the writer loops on.")
  in
  let domains =
    Arg.(value & opt (some int) None
         & info [ "domains" ]
             ~doc:"Worker domains ($(b,1) = deterministic sequential \
                   scheduling; default: the runtime's recommendation).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run session-scoped reader workloads from pinned MVCC snapshots \
             while a writer churns epochs: every reader keeps the epoch it \
             pinned at open, whatever the writer commits meanwhile (exit \
             code 3 if the layer ends unhealthy).")
    Term.(const serve_run $ policy_path $ dtd_name $ doc_path $ readers
          $ requests $ churn $ update_expr $ domains)

(* --- replicate ---------------------------------------------------- *)

let replicate_run policy_path dtd_name doc_path followers churn update_expr
    fault_rate seed lag_threshold kill =
  let policy = Optimizer.optimize_policy (load_policy policy_path) in
  let dtd = load_dtd dtd_name in
  let doc = load_doc doc_path in
  Fault.reset ();
  let config =
    {
      Repl.default_config with
      Repl.seed = Int64.of_int seed;
      lag_threshold;
      drop_p = fault_rate;
      dup_p = fault_rate;
      reorder_p = fault_rate;
      torn_p = fault_rate /. 2.0;
      max_reship = 10_000;
    }
  in
  let cluster = Repl.create ~config ~followers ~dtd ~policy doc in
  let failed = ref false in
  let check what = function
    | Ok () -> ()
    | Error (e : Serve.error) ->
        failed := true;
        Printf.printf "%s failed: %s\n" what e.Serve.message
  in
  check "annotate" (Repl.annotate_all cluster);
  if Policy.role_count policy > 0 then
    check "annotate-subjects" (Repl.annotate_subjects_all cluster);
  for _ = 1 to churn do
    check "update" (Repl.update cluster update_expr);
    Repl.pump cluster
  done;
  let converged = Repl.sync cluster in
  if not converged then failed := true;
  Printf.printf "replicated %d committed epoch(s) to %d follower(s)%s\n"
    (Repl.committed cluster) followers
    (if converged then "" else "  NOT CONVERGED");
  Format.printf "%a" Repl.pp_status cluster;
  (* One routed read: lag-aware routing prefers the least-lagged
     serving follower, keeping the leader free for writes. *)
  let probe =
    match Policy.rules policy with
    | r :: _ -> Xmlac_xpath.Pp.expr_to_string r.Rule.resource
    | [] -> "//*"
  in
  let node_id, reply = Repl.route cluster probe in
  (match reply with
  | Ok r ->
      Format.printf "route %-24s -> node %d (%s): %a@." probe node_id
        (Repl.role_to_string (Repl.node_role cluster node_id))
        Requester.pp r.Serve.decision
  | Error e ->
      failed := true;
      Printf.printf "route %s -> error: %s\n" probe e.Serve.message);
  if kill then begin
    Repl.kill_leader cluster;
    print_endline "leader killed";
    let best =
      List.fold_left
        (fun acc id ->
          if Repl.node_role cluster id = Repl.Follower then
            match acc with
            | Some b when Repl.lag cluster b <= Repl.lag cluster id -> acc
            | _ -> Some id
          else acc)
        None (Repl.nodes cluster)
    in
    match best with
    | None ->
        failed := true;
        print_endline "no promotable follower"
    | Some id -> (
        match Repl.promote cluster id with
        | Error msg ->
            failed := true;
            Printf.printf "promotion refused: %s\n" msg
        | Ok p ->
            Printf.printf "promoted node %d at epoch %d (state digest %08lx)\n"
              p.Repl.node p.Repl.epoch p.Repl.state_sum;
            check "post-promotion update" (Repl.update cluster update_expr);
            if not (Repl.sync cluster) then begin
              failed := true;
              print_endline "post-promotion sync did not converge"
            end;
            Format.printf "%a" Repl.pp_status cluster)
  end;
  Fault.reset ();
  if !failed then exit 3

let replicate_cmd =
  let policy_path =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"POLICY")
  in
  let dtd_name =
    Arg.(required & opt (some string) None
         & info [ "dtd" ] ~doc:"DTD: hospital, xmark or a file.")
  in
  let doc_path =
    Arg.(required & opt (some file) None
         & info [ "doc" ] ~doc:"Document every node is built over.")
  in
  let followers =
    Arg.(value & opt int 2
         & info [ "followers" ] ~doc:"Read-only replicas behind the leader.")
  in
  let churn =
    Arg.(value & opt int 3
         & info [ "churn" ] ~doc:"Committed delete updates to ship.")
  in
  let update_expr =
    Arg.(value & opt string "//person/creditcard"
         & info [ "update" ] ~doc:"Delete update the leader loops on.")
  in
  let fault_rate =
    Arg.(value & opt float 0.0
         & info [ "fault-rate" ]
             ~doc:"Per-frame drop/duplicate/reorder probability on the \
                   transport (torn frames at half this rate).")
  in
  let seed =
    Arg.(value & opt int 1
         & info [ "seed" ] ~doc:"Seed for the transport chaos schedule.")
  in
  let lag_threshold =
    Arg.(value & opt int 1
         & info [ "lag-threshold" ]
             ~doc:"Serve follower reads while lag is at most this many \
                   epochs; beyond it a follower fails closed.")
  in
  let kill =
    Arg.(value & flag
         & info [ "kill" ]
             ~doc:"After the churn phase, kill the leader, promote the \
                   least-lagged follower and commit one write through the \
                   new leader.")
  in
  Cmd.v
    (Cmd.info "replicate"
       ~doc:"Ship committed epochs from a leader to follower replicas over \
             a deterministic chaos transport, report per-node lag and the \
             stream counters, and optionally fail over (exit code 3 on \
             divergence or non-convergence).")
    Term.(const replicate_run $ policy_path $ dtd_name $ doc_path $ followers
          $ churn $ update_expr $ fault_rate $ seed $ lag_threshold $ kill)

(* --- view --------------------------------------------------------- *)

let view doc_path policy_path mode output =
  let doc = load_doc doc_path in
  let policy = load_policy policy_path in
  let mode =
    match mode with
    | "prune" -> Security_view.Prune
    | "promote" -> Security_view.Promote
    | m -> die "unknown view mode %S (prune | promote)" m
  in
  let v = Security_view.materialize ~mode policy doc in
  Printf.eprintf "view: %d of %d nodes visible\n%!"
    (Security_view.visible_count ~mode policy doc)
    (Tree.size doc);
  write_out output (Xmlac_xml.Serializer.to_string ~indent:true ~signs:false v)

let view_cmd =
  let doc_path = Arg.(required & pos 0 (some file) None & info [] ~docv:"DOC.xml") in
  let policy_path = Arg.(required & pos 1 (some file) None & info [] ~docv:"POLICY") in
  let mode =
    Arg.(value & opt string "promote" & info [ "mode" ] ~doc:"prune or promote.")
  in
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~doc:"Output file.")
  in
  Cmd.v
    (Cmd.info "view" ~doc:"Materialize the security view of a document.")
    Term.(const view $ doc_path $ policy_path $ mode $ output)

(* --- cam ---------------------------------------------------------- *)

let cam doc_path default =
  let doc = load_doc doc_path in
  let default =
    match Tree.sign_of_string default with
    | Some s -> s
    | None -> die "default sign must be + or -"
  in
  Format.printf "%a@." Cam.pp (Cam.build doc ~default)

let cam_cmd =
  let doc_path = Arg.(required & pos 0 (some file) None & info [] ~docv:"DOC.xml") in
  let default =
    Arg.(value & opt string "-" & info [ "default" ] ~doc:"Default sign (+ or -).")
  in
  Cmd.v
    (Cmd.info "cam"
       ~doc:"Compressed-accessibility-map statistics of an annotated document.")
    Term.(const cam $ doc_path $ default)

let () =
  let info =
    Cmd.info "xmlacctl"
      ~doc:"Access control for XML documents over native and relational stores."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            generate_cmd; dtd_cmd; shred_cmd; optimize_cmd; annotate_cmd;
            query_cmd; roles_cmd; update_cmd; depend_cmd; explain_cmd;
            view_cmd; cam_cmd; recover_cmd; health_cmd; serve_cmd;
            replicate_cmd;
          ]))
