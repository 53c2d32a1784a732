type stage = {
  mutable total : float;  (* seconds, outermost spans only *)
  mutable calls : int;
  mutable depth : int;  (* re-entrancy guard *)
}

type t = {
  counters : (string, int ref) Hashtbl.t;
  stages : (string, stage) Hashtbl.t;
  lock : Mutex.t;
      (* Guards both tables and every stage/counter cell.  Snapshot
         readers on worker domains bump counters concurrently with the
         writer domain's stage timers; unsynchronized Hashtbl growth
         would corrupt the buckets. *)
}

let stale_snapshot_denials = "serve.stale_snapshot_denials"
let repl_stale_denials = "repl.stale_denials"

let with_lock t f =
  Mutex.lock t.lock;
  match f () with
  | v ->
      Mutex.unlock t.lock;
      v
  | exception e ->
      Mutex.unlock t.lock;
      raise e

let create () =
  { counters = Hashtbl.create 16; stages = Hashtbl.create 8;
    lock = Mutex.create () }

(* No closure and no option: a counter bump on the read path
   allocates nothing once the counter exists.  Nothing between the
   lock and the unlock can raise. *)
let add t name n =
  Mutex.lock t.lock;
  (match Hashtbl.find t.counters name with
  | r -> r := !r + n
  | exception Not_found -> Hashtbl.replace t.counters name (ref n));
  Mutex.unlock t.lock

let incr t name = add t name 1

let counter t name =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0)

let counters t =
  with_lock t (fun () ->
      List.sort compare
        (Hashtbl.fold (fun name r acc -> (name, !r) :: acc) t.counters []))

(* Callers hold [t.lock]. *)
let stage_ref t name =
  match Hashtbl.find_opt t.stages name with
  | Some s -> s
  | None ->
      let s = { total = 0.0; calls = 0; depth = 0 } in
      Hashtbl.replace t.stages name s;
      s

let time t name f =
  (* The depth guard is per registry, not per domain: stage timers are
     only meaningful on the single writer path, so concurrent [time]
     on one stage would fold the spans together (safely — the lock
     keeps the cells consistent — just not per-domain). *)
  let s, outer =
    with_lock t (fun () ->
        let s = stage_ref t name in
        s.depth <- s.depth + 1;
        (s, s.depth = 1))
  in
  if not outer then
    (* Nested span of the same stage: already covered by the outer
       one; count the call but not the time. *)
    Fun.protect
      ~finally:(fun () ->
        with_lock t (fun () ->
            s.calls <- s.calls + 1;
            s.depth <- s.depth - 1))
      f
  else
    let start = Timing.now () in
    Fun.protect
      ~finally:(fun () ->
        let elapsed = Timing.now () -. start in
        with_lock t (fun () ->
            s.total <- s.total +. elapsed;
            s.calls <- s.calls + 1;
            s.depth <- s.depth - 1))
      f

let timings t =
  with_lock t (fun () ->
      List.sort compare
        (Hashtbl.fold
           (fun name s acc -> (name, s.total, s.calls) :: acc)
           t.stages []))

let hit_rate t ~hits ~misses =
  let h = counter t hits and m = counter t misses in
  if h + m = 0 then 0.0 else float_of_int h /. float_of_int (h + m)

let reset t =
  with_lock t (fun () ->
      Hashtbl.reset t.counters;
      Hashtbl.reset t.stages)

let pp ppf t =
  let counters = counters t and timings = timings t in
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun (name, v) -> Format.fprintf ppf "%-28s %10d@," name v)
    counters;
  List.iter
    (fun (name, total, calls) ->
      let mean = if calls = 0 then 0.0 else total /. float_of_int calls in
      Format.fprintf ppf "%-28s %10d call(s)  total %a  mean %a@," name calls
        Timing.pp_seconds total Timing.pp_seconds mean)
    timings;
  Format.fprintf ppf "@]"
