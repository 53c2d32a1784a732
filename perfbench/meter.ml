(* Clock, host-speed probe, latency histograms, spans and the metric
   record every workload reports.

   Every time is read from the nanosecond monotonic clock
   ([Monotonic_clock.now], CLOCK_MONOTONIC).  The library's own timers
   are avoided on purpose: [Timing.time] reads processor time,
   [Timing.now_wall] steps in microseconds and [Metrics.time] is
   processor time behind one mutex.  Library counters are read because
   they are exact. *)

let now () = Monotonic_clock.now ()
let elapsed_ns t0 = Int64.to_int (Int64.sub (now ()) t0)
let s_of_ns ns = ns /. 1e9

(* --- host speed ------------------------------------------------------ *)

(* A shared host runs the same code at different speeds.  On a quiet
   x86-64 guest the median memo hit of one run took 1.5 us for six
   seconds and 0.9 us for the next four; some runs stay slow from start
   to end, and how much of a run is slow changes from run to run, more
   so when other tenants are busy.  A dependent walk through memory did
   not slow down with it, but hashing and comparing strings did.

   So a SIGALRM handler times a fixed reference computation every
   [period_s] for the whole process: [probe_lookups] lookups of
   path-like strings in a small hash table that only the benchmark
   uses, run once untimed first so the table is in cache and the time
   reflects the core's speed, not what the program left in the caches.
   The handler's own time is taken out of every timed call, and each
   call's time is scaled to a host on which the reference takes
   [reference_ns]: it is divided by the reference's slowdown over the
   call.  Times reported are therefore times at that reference speed;
   a change to the program moves them, the host's mood much less. *)

let period_s = 0.002
let probe_lookups = 512

(* About the reference's median time on a quiet 2 GHz Xeon guest. *)
let reference_ns = 20_000.0

let keys = Array.init 256 (Printf.sprintf "/site/regions/item[%d]/name")
let table = Hashtbl.create 512
let () = Array.iter (fun k -> Hashtbl.replace table k ()) keys

let lookups n =
  let found = ref 0 in
  for i = 0 to n - 1 do
    if Hashtbl.mem table (Array.unsafe_get keys (i land 255)) then incr found
  done;
  ignore (Sys.opaque_identity !found)

(* The latest [ring] probes: probe [k] sits at [k land (ring - 1)]. *)
let ring = 4096
let probe_at = Array.make ring 0
let probe_slow = Array.make ring 1.0
let probes = ref 0
let slow_total = ref 0.0
let stolen = ref 0

let sample _ =
  let t0 = now () in
  lookups 256;
  let t1 = now () in
  lookups probe_lookups;
  let slow = float_of_int (elapsed_ns t1) /. reference_ns in
  let k = !probes land (ring - 1) in
  probe_at.(k) <- Int64.to_int t1;
  probe_slow.(k) <- slow;
  incr probes;
  slow_total := !slow_total +. slow;
  stolen := !stolen + elapsed_ns t0

let start_sampling () =
  Sys.set_signal Sys.sigalrm (Sys.Signal_handle sample);
  ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = period_s; it_value = period_s })

let stop_sampling () =
  ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = 0.0; it_value = 0.0 });
  Sys.set_signal Sys.sigalrm Sys.Signal_default

(* The reference's mean slowdown over every probe so far. *)
let mean_slowdown () = if !probes = 0 then 1.0 else !slow_total /. float_of_int !probes

(* Probe [k]'s slowdown as the median of three neighbouring probes
   still in the ring, so one interrupted probe is not a slow stretch. *)
let smoothed k =
  let lo = max 0 (!probes - ring) and hi = !probes - 1 in
  let mid = max (min (hi - 1) k) (lo + 1) in
  let s i = probe_slow.(max lo (min hi i) land (ring - 1)) in
  let a = s (mid - 1) and b = s mid and c = s (mid + 1) in
  max (min a b) (min (max a b) c)

(* The slowdown over a call that started at [start]: the mean over the
   probes taken during it, or the latest probe before it. *)
let slowdown ~start =
  let lo = max 0 (!probes - ring) in
  let k = ref (!probes - 1) and total = ref 0.0 and n = ref 0 in
  while !k >= lo && probe_at.(!k land (ring - 1)) >= start do
    total := !total +. smoothed !k;
    incr n;
    decr k
  done;
  if !n > 0 then !total /. float_of_int !n else if !k >= lo then smoothed !k else 1.0

(* A timed call: its start, its time less the sampler's, and that time
   at the reference speed. *)
type interval = { start : int64; ns : int; at_ref : float }

let measure f =
  let s0 = !stolen in
  let t0 = now () in
  let v = f () in
  let ns = elapsed_ns t0 - (!stolen - s0) in
  (v, { start = t0; ns; at_ref = float_of_int ns /. slowdown ~start:(Int64.to_int t0) })

(* --- latency histograms ---------------------------------------------- *)

(* Times in nanoseconds, in log-spaced buckets [growth] apart, read out
   by interpolating within a bucket.  The memory is fixed, so the
   benchmark's own footprint does not grow with the number of
   operations a run completes. *)
let growth = 1.002
let buckets = 13_000 (* up to growth ** buckets ~ 2e11 ns *)

type hist = { counts : int array; mutable n : int; mutable sum : float }

let hist () = { counts = Array.make buckets 0; n = 0; sum = 0.0 }

let bucket v = if v <= 1.0 then 0 else min (buckets - 1) (int_of_float (log v /. log growth))

let add h v =
  let b = bucket v in
  h.counts.(b) <- h.counts.(b) + 1;
  h.n <- h.n + 1;
  h.sum <- h.sum +. v

(* Nearest-rank percentile, interpolated within its bucket. *)
let percentile h p =
  if h.n = 0 then 0.0
  else begin
    let rank = max 1 (min h.n (int_of_float (ceil (p /. 100.0 *. float_of_int h.n)))) in
    let b = ref 0 and below = ref 0 in
    while !below + h.counts.(!b) < rank do
      below := !below + h.counts.(!b);
      incr b
    done;
    let lo = growth ** float_of_int !b in
    lo +. (lo *. (growth -. 1.0) *. float_of_int (rank - !below) /. float_of_int h.counts.(!b))
  end

let mean h = if h.n = 0 then 0.0 else h.sum /. float_of_int h.n

(* --- spans ----------------------------------------------------------- *)

(* Spans are recorded only by the traced run, from the benchmark's own
   calls into each layer.  Each span carries the operation it belongs
   to, so spans of one operation share an identifier.  Per-layer sums
   are always kept; the span list itself is capped so a long run keeps
   bounded memory, and is written out when the run ends. *)
type span = { op : int; parent : string; name : string; start : int64; dur : int }

type trace = {
  mutable spans : span list;
  mutable kept : int;
  totals : (string, int ref * int ref) Hashtbl.t;  (* ns, calls *)
}

let span_cap = 100_000

let trace () = { spans = []; kept = 0; totals = Hashtbl.create 32 }

let add_span tr ~op ~parent name start dur =
  (match Hashtbl.find_opt tr.totals name with
  | Some (ns, calls) ->
      ns := !ns + dur;
      incr calls
  | None -> Hashtbl.replace tr.totals name (ref dur, ref 1));
  if tr.kept < span_cap then begin
    tr.spans <- { op; parent; name; start; dur } :: tr.spans;
    tr.kept <- tr.kept + 1
  end

(* [span tr ~op ~parent name f] runs [f] inside a span, whose time is
   kept at the reference speed. *)
let span tr ~op ~parent name f =
  let v, i = measure f in
  add_span tr ~op ~parent name i.start (int_of_float i.at_ref);
  v

let total_span_ns tr name =
  match Hashtbl.find_opt tr.totals name with Some (ns, _) -> !ns | None -> 0

let calls tr name =
  match Hashtbl.find_opt tr.totals name with Some (_, c) -> !c | None -> 0

let write_spans tr path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"op\":%d,\"parent\":%S,\"name\":%S,\"start_ns\":%Ld,\"dur_ns\":%d}\n"
        s.op s.parent s.name s.start s.dur)
    (List.rev tr.spans);
  close_out oc

(* --- metrics ---------------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string; n : int }
(** [n] is the sample count (or base) behind [value]. *)

let metric ?(n = 1) name unit_ value = { name; value; unit_; n }

(* Peak resident set size of the process, from the kernel's high-water
   mark. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
          (fun kb -> float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> 0.0
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan
