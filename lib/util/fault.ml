exception Crash of string
exception Transient of string

let seed_env_var = "XMLAC_FAULT_SEED"

let env_seed () =
  match Sys.getenv_opt seed_env_var with
  | None -> None
  | Some s -> Int64.of_string_opt (String.trim s)

type trigger = After of int | Prob of float

(* The registry is process-global mutable state shared by every domain
   (worker domains cross snapshot fault points concurrently with the
   writer).  One mutex guards all of it; [point] computes its verdict
   under the lock and raises outside it, so an armed fault never
   propagates while the lock is held. *)
let lock = Mutex.create ()

let with_lock f =
  Mutex.lock lock;
  match f () with
  | v ->
      Mutex.unlock lock;
      v
  | exception e ->
      Mutex.unlock lock;
      raise e

(* Armed state: counted triggers carry their remaining hits so [After n]
   fires exactly on the n-th hit after arming. *)
type armed = Count of int ref | P of float

let rng = ref (Prng.create ~seed:(Option.value (env_seed ()) ~default:1L))
let set_seed seed = with_lock (fun () -> rng := Prng.create ~seed)

(* name -> lifetime hit count; names are never forgotten, so tests can
   enumerate every point the workload crossed. *)
let registry : (string, int) Hashtbl.t = Hashtbl.create 64
let armed_points : (string, armed) Hashtbl.t = Hashtbl.create 16
let all_prob = ref None
let dead = ref None (* Some site once a trigger fired *)

(* Recoverable faults live in their own table: a transient trigger
   raises [Transient] without killing the registry, so the caller may
   retry — the serve layer's containment model. *)
let transient_points : (string, armed) Hashtbl.t = Hashtbl.create 16
let all_transient_prob = ref None
let transient_count = ref 0

let check_trigger ~what = function
  | After n ->
      if n < 1 then
        invalid_arg (Printf.sprintf "Fault.%s: After n needs n >= 1" what);
      Count (ref n)
  | Prob p ->
      if not (p >= 0.0 && p <= 1.0) then
        invalid_arg (Printf.sprintf "Fault.%s: Prob p needs 0 <= p <= 1" what);
      P p

let arm name trigger =
  let armed = check_trigger ~what:"arm" trigger in
  with_lock (fun () -> Hashtbl.replace armed_points name armed)

let arm_transient name trigger =
  let armed = check_trigger ~what:"arm_transient" trigger in
  with_lock (fun () -> Hashtbl.replace transient_points name armed)

let arm_all ~prob =
  if not (prob >= 0.0 && prob <= 1.0) then
    invalid_arg "Fault.arm_all: prob must be in [0, 1]";
  with_lock (fun () -> all_prob := Some prob)

let arm_all_transient ~prob =
  if not (prob >= 0.0 && prob <= 1.0) then
    invalid_arg "Fault.arm_all_transient: prob must be in [0, 1]";
  with_lock (fun () -> all_transient_prob := Some prob)

let disarm name =
  with_lock (fun () ->
      Hashtbl.remove armed_points name;
      Hashtbl.remove transient_points name)

let disarm_all_locked () =
  Hashtbl.reset armed_points;
  all_prob := None;
  Hashtbl.reset transient_points;
  all_transient_prob := None

let disarm_all () = with_lock disarm_all_locked

let killed () = with_lock (fun () -> !dead <> None)
let crash_site () = with_lock (fun () -> !dead)

(* The verdict [point] computes under the lock and acts on outside
   it.  Crash verdicts set [dead] while still locked, so concurrent
   crossings on other domains observe the killed process before the
   exception even propagates here. *)
type verdict = Ok_ | Crashed of string | Transiented of string

let point name =
  let verdict =
    with_lock (fun () ->
        match !dead with
        | Some site ->
            (* The process is dead: nothing past the crash site may
               run. *)
            Crashed site
        | None -> (
            Hashtbl.replace registry name
              (1 + Option.value (Hashtbl.find_opt registry name) ~default:0);
            let crash =
              match Hashtbl.find_opt armed_points name with
              | Some (Count r) ->
                  decr r;
                  !r <= 0
              | Some (P p) -> Prng.bernoulli !rng p
              | None -> (
                  match !all_prob with
                  | Some p -> Prng.bernoulli !rng p
                  | None -> false)
            in
            if crash then begin
              dead := Some name;
              Crashed name
            end
            else
              match Hashtbl.find_opt transient_points name with
              | Some (Count r) ->
                  decr r;
                  if !r <= 0 then begin
                    (* Counted transients are one-shot: the fault
                       clears itself, so a retry of the same operation
                       goes through — the recoverable half of the
                       fault model. *)
                    Hashtbl.remove transient_points name;
                    incr transient_count;
                    Transiented name
                  end
                  else Ok_
              | Some (P p) ->
                  if Prng.bernoulli !rng p then begin
                    incr transient_count;
                    Transiented name
                  end
                  else Ok_
              | None -> (
                  match !all_transient_prob with
                  | Some p when Prng.bernoulli !rng p ->
                      incr transient_count;
                      Transiented name
                  | _ -> Ok_)))
  in
  match verdict with
  | Ok_ -> ()
  | Crashed site -> raise (Crash site)
  | Transiented site -> raise (Transient site)

let recover () =
  with_lock (fun () ->
      dead := None;
      disarm_all_locked ())

let reset () =
  recover ();
  with_lock (fun () ->
      transient_count := 0;
      let names = Hashtbl.fold (fun name _ acc -> name :: acc) registry [] in
      List.iter (fun name -> Hashtbl.replace registry name 0) names)

let registered () =
  with_lock (fun () ->
      List.sort String.compare
        (Hashtbl.fold (fun name _ acc -> name :: acc) registry []))

let hits name =
  with_lock (fun () ->
      Option.value (Hashtbl.find_opt registry name) ~default:0)

let transient_fires () = with_lock (fun () -> !transient_count)
