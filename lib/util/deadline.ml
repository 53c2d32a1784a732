exception Expired of string

type budget = {
  label : string;
  mutable ticks : int option;  (* remaining checkpoint crossings *)
  deadline : float option;  (* absolute wall-clock bound *)
  mutable clock_countdown : int;  (* checkpoints until next clock read *)
}

(* One domain, one active call.  The ambient budget is domain-local
   state (DLS): each worker domain in the serving pool installs and
   checks its own budget without seeing — or expiring — anyone
   else's.  [with_budget] shadows and restores, so nesting works. *)
let key : budget option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let current () = Domain.DLS.get key

(* Reading the clock on every checkpoint would dominate tight loops;
   one read per stride keeps the overshoot bounded and small. *)
let clock_stride = 32

let active () = !(current ()) <> None

let remaining_ticks () =
  match !(current ()) with Some b -> b.ticks | None -> None

let checkpoint () =
  match !(current ()) with
  | None -> ()
  | Some b ->
      (match b.ticks with
      | Some n ->
          if n <= 0 then raise (Expired b.label) else b.ticks <- Some (n - 1)
      | None -> ());
      (match b.deadline with
      | None -> ()
      | Some d ->
          b.clock_countdown <- b.clock_countdown - 1;
          if b.clock_countdown <= 0 then begin
            b.clock_countdown <- clock_stride;
            if Timing.now () > d then raise (Expired b.label)
          end)

let with_budget ?(label = "deadline") ?ticks ?seconds f =
  (match ticks with
  | Some n when n < 0 -> invalid_arg "Deadline.with_budget: ticks < 0"
  | _ -> ());
  (match seconds with
  | Some s when s < 0.0 -> invalid_arg "Deadline.with_budget: seconds < 0"
  | _ -> ());
  match (ticks, seconds) with
  | None, None -> f ()
  | _ ->
      let b =
        {
          label;
          ticks;
          deadline = Option.map (fun s -> Timing.now () +. s) seconds;
          clock_countdown = 1;  (* first checkpoint reads the clock *)
        }
      in
      let cell = current () in
      let saved = !cell in
      cell := Some b;
      Fun.protect ~finally:(fun () -> cell := saved) f
