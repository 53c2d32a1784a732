(* Crash recovery: epoch abort/re-run cost at every fault point a
   mutating operation crosses, against the naive alternative of
   re-annotating the store from scratch.

   Not a paper artifact — this measures the durability extension
   (sign epochs recovered from the document's last copy-on-write
   freeze).  For each fault point the update path crosses, a fresh
   engine is crashed there (counted trigger, first hit), recovered,
   and the recovery time is compared with the full re-annotation
   baseline on the same document/policy.  Recovery discards the
   crashed attempt's writes ([Tree.abort], O(ids written)) and runs
   the update again from the committed state.

   A gate as well as a measurement: the run exits 1 unless every
   recovered engine matches an uncrashed twin that applied the same
   update — state digest, anonymous and per-role accessible sets —
   and every recovery beats the full re-annotation baseline.  (A kill
   before the epoch opens leaves the update unapplied and the epoch
   counter unmoved; that engine must match an uncrashed twin without
   the update.)

   Expected shape: recovery is bounded by the crashed epoch's own
   footprint (ids discarded + one re-run of the partial repair), so
   it beats full re-annotation by a growing margin as documents
   grow. *)

module Tree = Xmlac_xml.Tree
module Timing = Xmlac_util.Timing
module Tabular = Xmlac_util.Tabular
module Metrics = Xmlac_util.Metrics
module Fault = Xmlac_util.Fault
open Xmlac_core

let direction_label = function
  | `None -> "none"
  | `Back -> "backward"
  | `Forward -> "forward"

let run (_cfg : Bench_common.config) =
  Bench_common.section
    "Crash recovery: sign epochs vs full re-annotation";
  Fault.reset ();
  let factor = 0.01 in
  let policy = Bench_common.mid_coverage_policy factor in
  let make () =
    let eng =
      Engine.create ~dtd:Xmlac_workload.Xmark.dtd ~policy
        (Bench_common.doc factor)
    in
    let _ = Engine.annotate eng in
    eng
  in
  let roles = Policy.roles policy in
  let state eng =
    ( Engine.state_checksum eng,
      Engine.accessible eng,
      List.map (Engine.accessible_subject eng) roles )
  in
  (* Pick a delete update whose epoch has real work to finish: it must
     move the accessible sets, so the twin check can tell a completed
     roll-forward from an abandoned one, and preferably rewrites signs
     (writes for recovery to discard).  Each candidate is scored on a
     fresh engine. *)
  let update =
    let candidates =
      List.map Xmlac_xpath.Pp.expr_to_string
        (Xmlac_workload.Queries.delete_updates ~n:10 ())
    in
    let pre = state (make ()) in
    let scored =
      List.map
        (fun u ->
          let eng = make () in
          let s = List.assoc Engine.Native (Engine.update eng u) in
          (u, s.Reannotator.changed <> [], state eng <> pre))
        candidates
    in
    let pick p = Option.map (fun (u, _, _) -> u) (List.find_opt p scored) in
    match pick (fun (_, rewrites, moves) -> rewrites && moves) with
    | Some u -> u
    | None -> (
        match pick (fun (_, _, moves) -> moves) with
        | Some u -> u
        | None -> List.hd candidates)
  in
  (* Scout run: enumerate the fault points this update crosses. *)
  Fault.reset ();
  let scout = make () in
  let before = List.map (fun n -> (n, Fault.hits n)) (Fault.registered ()) in
  let _ = Engine.update scout update in
  let points =
    List.filter
      (fun n ->
        Fault.hits n
        > Option.value (List.assoc_opt n before) ~default:0)
      (Fault.registered ())
  in
  (* Baseline: apply the update cleanly, then re-annotate everything
     from scratch — what recovery would cost without epochs.  The
     updated engine is also the uncrashed twin every recovery is
     checked against. *)
  let twin = make () in
  let _ = Engine.update twin update in
  let baseline = snd (Timing.time (fun () -> ignore (Engine.annotate twin))) in
  let post = state twin and pre = state (make ()) in
  let eng0 = make () in
  Printf.printf
    "document: %d nodes (factor %s); update %s crosses %d fault points\n"
    (Tree.size (Engine.document eng0))
    (Bench_common.pp_factor factor)
    update (List.length points);
  Format.printf "full re-annotation baseline: %a@." Timing.pp_seconds baseline;
  let t =
    Tabular.create
      ~headers:
        [ "fault point"; "direction"; "ids discarded"; "recover";
          "vs full"; "matches twin" ]
  in
  let summary = ref [] in
  List.iter
    (fun pt ->
      Fault.reset ();
      let eng = make () in
      let e0 = Engine.sign_epoch eng in
      Fault.arm pt (Fault.After 1);
      let crashed =
        match Engine.update eng update with
        | _ -> false
        | exception Fault.Crash _ -> true
      in
      if not crashed then Fault.reset ();
      let r, elapsed = Timing.time (fun () -> Engine.recover eng) in
      let matches =
        state eng = if Engine.sign_epoch eng > e0 then post else pre
      in
      summary := (pt, r, elapsed, matches) :: !summary;
      Tabular.add_row t
        [
          pt;
          direction_label r.Engine.direction;
          string_of_int r.Engine.ids_discarded;
          Format.asprintf "%a" Timing.pp_seconds elapsed;
          Printf.sprintf "%.1fx" (baseline /. Float.max elapsed 1e-9);
          (if matches then "yes" else "DIVERGED");
        ])
    points;
  Tabular.print t;
  (* Machine-readable block for the CI artifact. *)
  print_endline "summary:";
  Printf.printf "  recovery.baseline: full_reannotate_s=%.6f\n" baseline;
  List.iter
    (fun (pt, (r : Engine.recovery), elapsed, matches) ->
      Printf.printf
        "  recovery.%s: direction=%s ids_discarded=%d time_s=%.6f \
         speedup=%.1f matches_twin=%b\n"
        pt
        (direction_label r.Engine.direction)
        r.Engine.ids_discarded elapsed
        (baseline /. Float.max elapsed 1e-9)
        matches)
    (List.rev !summary);
  print_endline
    "expected shape: every recovery matches the uncrashed twin; recovery \
     beats full re-annotation on every point.";
  Fault.reset ();
  let failures =
    List.concat_map
      (fun (pt, _, elapsed, matches) ->
        (if matches then []
         else [ Printf.sprintf "recovery after a crash at %s differs from \
                                the uncrashed twin" pt ])
        @
        if elapsed < baseline then []
        else
          [ Printf.sprintf "recovery after a crash at %s took %.6f s, not \
                            less than the %.6f s full re-annotation" pt
              elapsed baseline ])
      (List.rev !summary)
  in
  if failures <> [] then begin
    List.iter (Printf.printf "ASSERTION FAILED: %s\n") failures;
    exit 1
  end
