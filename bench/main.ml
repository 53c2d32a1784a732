(* Benchmark driver: regenerates every table and figure of the paper's
   evaluation (Section 7), plus the ablation and micro suites.

     dune exec bench/main.exe                 # everything, default sizes
     dune exec bench/main.exe -- -e fig12     # one experiment
     dune exec bench/main.exe -- --full       # the paper's full ladder
     dune exec bench/main.exe -- --updates 55 # fig12/ablation workload size
*)

open Cmdliner

type experiment =
  | Table3
  | Table5
  | Fig9
  | Fig10
  | Fig11
  | Fig12
  | Ablation
  | AblationPlan
  | Requester
  | Rewrite
  | Multirole
  | Recovery
  | Resilience
  | Concurrent
  | Snapshot
  | Replication
  | Eval
  | Micro
  | All

let experiment_of_string = function
  | "table3" -> Ok Table3
  | "table5" -> Ok Table5
  | "fig9" -> Ok Fig9
  | "fig10" -> Ok Fig10
  | "fig11" -> Ok Fig11
  | "fig12" -> Ok Fig12
  | "ablation" -> Ok Ablation
  | "ablation-plan" -> Ok AblationPlan
  | "requester" -> Ok Requester
  | "rewrite" -> Ok Rewrite
  | "multirole" -> Ok Multirole
  | "recovery" -> Ok Recovery
  | "resilience" -> Ok Resilience
  | "concurrent" -> Ok Concurrent
  | "snapshot" -> Ok Snapshot
  | "replication" -> Ok Replication
  | "eval" -> Ok Eval
  | "micro" -> Ok Micro
  | "all" -> Ok All
  | s -> Error (`Msg (Printf.sprintf "unknown experiment %S" s))

let experiment_conv =
  Arg.conv
    ( experiment_of_string,
      fun ppf e ->
        Format.pp_print_string ppf
          (match e with
          | Table3 -> "table3"
          | Table5 -> "table5"
          | Fig9 -> "fig9"
          | Fig10 -> "fig10"
          | Fig11 -> "fig11"
          | Fig12 -> "fig12"
          | Ablation -> "ablation"
          | AblationPlan -> "ablation-plan"
          | Requester -> "requester"
          | Rewrite -> "rewrite"
          | Multirole -> "multirole"
          | Recovery -> "recovery"
          | Resilience -> "resilience"
          | Concurrent -> "concurrent"
          | Snapshot -> "snapshot"
          | Replication -> "replication"
          | Eval -> "eval"
          | Micro -> "micro"
          | All -> "all") )

let run_one cfg = function
  | Table3 -> Exp_table3.run ()
  | Table5 -> Exp_table5.run cfg
  | Fig9 -> Exp_fig9.run cfg
  | Fig10 -> Exp_fig10.run cfg
  | Fig11 -> Exp_fig11.run cfg
  | Fig12 -> Exp_fig12.run cfg
  | Ablation -> Exp_ablation.run cfg
  | AblationPlan -> Exp_ablation_plan.run cfg
  | Requester -> Exp_requester.run cfg
  | Rewrite -> Exp_rewrite.run cfg
  | Multirole -> Exp_multirole.run cfg
  | Recovery -> Exp_recovery.run cfg
  | Resilience -> Exp_resilience.run cfg
  | Concurrent -> Exp_concurrent.run cfg
  | Snapshot -> Exp_snapshot.run cfg
  | Replication -> Exp_replication.run cfg
  | Eval -> Exp_eval.run ()
  | Micro -> Exp_micro.run ()
  | All ->
      Exp_table3.run ();
      Exp_table5.run cfg;
      Exp_fig9.run cfg;
      Exp_fig10.run cfg;
      Exp_fig11.run cfg;
      Exp_fig12.run cfg;
      Exp_ablation.run cfg;
      Exp_ablation_plan.run cfg;
      Exp_requester.run cfg;
      Exp_rewrite.run cfg;
      Exp_multirole.run cfg;
      Exp_recovery.run cfg;
      Exp_resilience.run cfg;
      Exp_concurrent.run cfg;
      Exp_snapshot.run cfg;
      Exp_replication.run cfg;
      Exp_eval.run ();
      Exp_micro.run ()

let main experiments full updates factors =
  let cfg =
    let base =
      if full then Bench_common.full_config else Bench_common.default_config
    in
    let base =
      match updates with
      | None -> base
      | Some u -> { base with Bench_common.updates = u }
    in
    match factors with
    | [] -> base
    | fs -> { base with Bench_common.factors = fs }
  in
  let experiments = match experiments with [] -> [ All ] | es -> es in
  Printf.printf
    "xmlac benchmark harness — factors: %s; updates per figure-12 point: %d\n"
    (String.concat ", "
       (List.map Bench_common.pp_factor cfg.Bench_common.factors))
    cfg.Bench_common.updates;
  List.iter (run_one cfg) experiments

let experiments_arg =
  let doc =
    "Experiment to run: table3, table5, fig9, fig10, fig11, fig12, ablation, \
     ablation-plan, requester, rewrite, multirole, recovery, resilience, \
     concurrent, snapshot, replication, eval, micro or all \
     (repeatable)."
  in
  Arg.(value & opt_all experiment_conv [] & info [ "e"; "experiment" ] ~doc)

let full_arg =
  let doc =
    "Use the paper's full factor ladder (up to f=10) and all 55 updates. \
     Slower by an order of magnitude."
  in
  Arg.(value & flag & info [ "full" ] ~doc)

let updates_arg =
  let doc = "Delete updates per data point in fig12/ablation." in
  Arg.(value & opt (some int) None & info [ "updates" ] ~doc)

let factors_arg =
  let doc = "Override the xmlgen factor list (repeatable)." in
  Arg.(value & opt_all float [] & info [ "f"; "factor" ] ~doc)

let cmd =
  let doc =
    "Regenerate the tables and figures of 'Controlling Access to XML \
     Documents over XML Native and Relational Databases' (SDM 2009)."
  in
  Cmd.v
    (Cmd.info "xmlac-bench" ~doc)
    Term.(const main $ experiments_arg $ full_arg $ updates_arg $ factors_arg)

let () = exit (Cmd.eval cmd)
