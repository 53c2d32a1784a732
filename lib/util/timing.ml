(* Wall time, not processor time ([Sys.time]): processor time
   aggregates across domains and leaves out time spent waiting, so it
   would misstate every latency figure. *)
let now () = Unix.gettimeofday ()

let time f =
  let t0 = now () in
  let x = f () in
  let t1 = now () in
  (x, t1 -. t0)

let percentile samples ~p =
  if Array.length samples = 0 then invalid_arg "Timing.percentile: empty";
  if p < 0.0 || p > 100.0 then invalid_arg "Timing.percentile: p outside [0,100]";
  let sorted = Array.copy samples in
  Array.sort Float.compare sorted;
  let n = Array.length sorted in
  (* Nearest-rank on the sorted sample: deterministic and defined for
     tiny sample counts, which the walkthrough transcripts rely on. *)
  let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
  sorted.(max 0 (min (n - 1) (rank - 1)))

let pp_seconds ppf s =
  let abs = Float.abs s in
  if abs < 1e-6 then Format.fprintf ppf "%.3g ns" (s *. 1e9)
  else if abs < 1e-3 then Format.fprintf ppf "%.3g us" (s *. 1e6)
  else if abs < 1.0 then Format.fprintf ppf "%.3g ms" (s *. 1e3)
  else Format.fprintf ppf "%.3g s" s
