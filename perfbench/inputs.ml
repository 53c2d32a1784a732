(* Everything a workload feeds the engine.  The document (XMark at
   f = 0.1, 7,332 nodes), its policies and the query pool are fixed
   parts of the workload's definition; the benchmark's seed generates
   every draw from them — which query, which subject, which mutation —
   so runs on different seeds measure the same program on different
   traffic.  The engine sees only the generated inputs, never the
   seed. *)

module Tree = Xmlac_xml.Tree
module Prng = Xmlac_util.Prng
open Xmlac_core

let factor = 0.1
let dtd = Xmlac_workload.Xmark.dtd
let document () = Xmlac_workload.Xmark.generate ~factor ()

(* --- policies --------------------------------------------------------- *)

let roles = 16

(* Overlapping role scopes, assigned round-robin as in the multirole
   experiment, so 16 roles share 8 distinct role plans.  Every scope
   lies outside what the coverage rules already grant: a scope they
   grant would leave the role's plan equal to the anonymous one. *)
let scope_pool =
  [ "//emailaddress"; "//person[creditcard]/emailaddress"; "//phone"; "//interest";
    "//payment"; "//location"; "//current"; "//open_auction[type = \"Featured\"]/current" ]

let role_name i = Printf.sprintf "r%d" i

(* The 50 %-coverage policy (coverage measured on this document). *)
let sign_policy doc = Xmlac_workload.Coverage.policy_for_target ~doc ~target:0.5

(* The coverage rules for every role plus one qualified allow rule per
   role. *)
let role_policy doc =
  let base = sign_policy doc in
  let subjects =
    Subject.make_exn (List.init roles (fun i -> Subject.role (role_name i)))
  in
  let qualified =
    List.init roles (fun i ->
        Rule.parse ~name:(Printf.sprintf "q%d" i) ~subjects:[ role_name i ]
          (List.nth scope_pool (i mod List.length scope_pool))
          Rule.Plus)
  in
  Policy.make ~subjects ~ds:(Policy.ds base) ~cr:(Policy.cr base)
    (Policy.rules base @ qualified)

(* --- queries ---------------------------------------------------------- *)

(* About 2k distinct schema-guided queries; position [k] in the array is
   Zipf rank [k].  Fixed, like the document: which few hundred queries
   carry the miss traffic would otherwise move throughput by ~10 % from
   seed to seed. *)
let query_pool ~n =
  let qs =
    Xmlac_workload.Queries.response_queries ~n ~seed:20090101L ()
    |> List.map Xmlac_xpath.Pp.expr_to_string
    |> List.sort_uniq compare |> Array.of_list
  in
  Prng.shuffle (Prng.create ~seed:17L) qs;
  qs

(* Zipf(s) over ranks [0, n): the cumulative weights, searched by
   bisection. *)
type zipf = float array

let zipf ~s n : zipf =
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  for k = 0 to n - 1 do
    acc := !acc +. (1.0 /. (float_of_int (k + 1) ** s));
    cdf.(k) <- !acc
  done;
  Array.map (fun c -> c /. !acc) cdf

let rank_of (z : zipf) u =
  let lo = ref 0 and hi = ref (Array.length z - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if z.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

(* Deals from decks that [fill] makes, each shuffled, one after another:
   every deck's cards are dealt before the next deck is made. *)
let dealer rng fill =
  let deck = ref [||] and next = ref 0 in
  fun () ->
    if !next >= Array.length !deck then begin
      deck := fill ();
      Prng.shuffle rng !deck;
      next := 0
    end;
    incr next;
    !deck.(!next - 1)

(* Zipf draws dealt from stratified decks of [deck] cards: card [i]
   is drawn from the [i]-th of [deck] equal slices of probability.
   Every deck then holds the distribution's head and tail in their
   proportions, so runs on different seeds send the same mix of cheap
   and expensive queries while still sending different queries. *)
let zipf_draws ~deck (z : zipf) rng =
  dealer rng (fun () ->
      Array.init deck (fun i ->
          rank_of z ((float_of_int i +. Prng.float rng 1.0) /. float_of_int deck)))

(* Indices [0, n) dealt from shuffled decks holding each once. *)
let even_draws n rng = dealer rng (fun () -> Array.init n Fun.id)

(* --- the mutation stream ---------------------------------------------- *)

(* Mutations come in pairs: an insert of a fresh subtree, then the
   delete of exactly that subtree (found by a unique marker value or by
   its anchor), so the document's node count returns to its set-up size
   after every pair.  Targets are spread over people, regions/*/item,
   open_auctions and closed_auctions.  Whole entities each trigger one
   rule whose scope spans every entity of their type; a creditcard
   added to a person triggers three; an [interest] added under a
   profile triggers none. *)
type mutation =
  | Insert of { at : string; fragment : Tree.t }
  | Delete of string

let leaf t parent name value = ignore (Tree.add_child t parent ~value name)

let entity ?value name build =
  let t = Tree.create ~root_name:name in
  Tree.set_value t (Tree.root t) value;
  build t (Tree.root t);
  t

let person rng marker =
  entity "person" (fun t p ->
      leaf t p "name" marker;
      leaf t p "emailaddress" ("mailto:" ^ marker ^ "@example.com");
      if Prng.bool rng then leaf t p "creditcard" "1234 5678 9012 3456";
      if Prng.bool rng then begin
        let prof = Tree.add_child t p "profile" in
        leaf t prof "interest" "category7";
        leaf t prof "business" "Yes"
      end)

let item marker =
  entity "item" (fun t i ->
      leaf t i "location" "Greece";
      leaf t i "quantity" "1";
      leaf t i "name" marker;
      leaf t i "payment" "Cash";
      leaf t i "description" "perfbench lot")

let open_auction rng marker =
  entity "open_auction" (fun t a ->
      leaf t a "initial" "12.00";
      leaf t a "reserve" "90.00";
      let b = Tree.add_child t a "bidder" in
      leaf t b "date" "01/02/2000";
      leaf t b "time" "10:00:00";
      leaf t b "increase" "3.00";
      leaf t a "current" "15.00";
      leaf t a "itemref" "item1";
      leaf t a "seller" marker;
      leaf t a "quantity" "1";
      leaf t a "type" (if Prng.bool rng then "Featured" else "Regular");
      let iv = Tree.add_child t a "interval" in
      leaf t iv "start" "01/01/2000";
      leaf t iv "end" "01/03/2000")

let closed_auction marker =
  entity "closed_auction" (fun t a ->
      leaf t a "seller" marker;
      leaf t a "buyer" "person1";
      leaf t a "itemref" "item2";
      leaf t a "price" "40.00";
      leaf t a "date" "02/02/2000";
      leaf t a "quantity" "1";
      leaf t a "type" "Regular";
      let an = Tree.add_child t a "annotation" in
      leaf t an "author" "person2";
      leaf t an "description" "perfbench note";
      leaf t an "happiness" "7")

let regions = [| "africa"; "asia"; "australia"; "europe"; "namerica"; "samerica" |]

(* Names of the set-up document's people whose children satisfy
   [pred]: the anchors of the mutations below an existing person. *)
let people_where pred doc =
  Tree.fold
    (fun acc (n : Tree.node) ->
      let child name = List.exists (fun (c : Tree.node) -> c.Tree.name = name) n.Tree.children in
      if n.Tree.name = "person" && pred child then
        match List.find_opt (fun (c : Tree.node) -> c.Tree.name = "name") n.Tree.children with
        | Some { Tree.value = Some v; _ } when not (String.contains v '"') -> v :: acc
        | _ -> acc
      else acc)
    [] doc
  |> List.sort_uniq compare |> Array.of_list

type anchors = { profiled : string array; cardless : string array }

(* The insert/delete pair number [k]. *)
let pair rng anchors ~kind k =
  let marker = Printf.sprintf "pb%d" k in
  let sel path field = Printf.sprintf "%s[%s = \"%s\"]" path field marker in
  let person_at names = Printf.sprintf "/site/people/person[name = \"%s\"]" (Prng.choose rng names) in
  match kind with
  | 0 ->
      ( Insert { at = "/site/people"; fragment = person rng marker },
        Delete (sel "/site/people/person" "name") )
  | 1 ->
      let r = "/site/regions/" ^ Prng.choose rng regions in
      (Insert { at = r; fragment = item marker }, Delete (sel (r ^ "/item") "name"))
  | 2 ->
      ( Insert { at = "/site/open_auctions"; fragment = open_auction rng marker },
        Delete (sel "/site/open_auctions/open_auction" "seller") )
  | 3 ->
      ( Insert { at = "/site/closed_auctions"; fragment = closed_auction marker },
        Delete (sel "/site/closed_auctions/closed_auction" "seller") )
  | 4 ->
      let at = person_at anchors.cardless in
      ( Insert { at; fragment = entity ~value:"9999 0000 9999 0000" "creditcard" (fun _ _ -> ()) },
        Delete (at ^ "/creditcard") )
  | _ ->
      let at = person_at anchors.profiled ^ "/profile" in
      ( Insert { at; fragment = entity ~value:marker "interest" (fun _ _ -> ()) },
        Delete (Printf.sprintf "%s/interest[. = \"%s\"]" at marker) )

(* An endless stream: [next ()] returns mutation 0, 1, 2, ... *)
let stream ~seed doc =
  let rng = Prng.create ~seed:(Int64.add seed 101L) in
  let anchors =
    {
      profiled = people_where (fun has -> has "profile") doc;
      cardless = people_where (fun has -> not (has "creditcard")) doc;
    }
  in
  (* Every six pairs hold each kind once, in a seeded order. *)
  let kind = even_draws 6 rng in
  let pending = ref None and k = ref 0 in
  fun () ->
    match !pending with
    | Some d ->
        pending := None;
        d
    | None ->
        let ins, del = pair rng anchors ~kind:(kind ()) !k in
        incr k;
        pending := Some del;
        ins
