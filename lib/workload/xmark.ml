module Dtd = Xmlac_xml.Dtd
module Tree = Xmlac_xml.Tree
module Prng = Xmlac_util.Prng

let seq particles =
  Dtd.Seq
    (List.map (fun (elem, occ) -> { Dtd.elem; occ }) particles)

let dtd =
  Dtd.make ~root:"site"
    [
      ( "site",
        seq
          [ ("regions", Dtd.One); ("categories", Dtd.One);
            ("people", Dtd.One); ("open_auctions", Dtd.One);
            ("closed_auctions", Dtd.One) ] );
      ( "regions",
        seq
          [ ("africa", Dtd.One); ("asia", Dtd.One); ("australia", Dtd.One);
            ("europe", Dtd.One); ("namerica", Dtd.One);
            ("samerica", Dtd.One) ] );
      ("africa", seq [ ("item", Dtd.Star) ]);
      ("asia", seq [ ("item", Dtd.Star) ]);
      ("australia", seq [ ("item", Dtd.Star) ]);
      ("europe", seq [ ("item", Dtd.Star) ]);
      ("namerica", seq [ ("item", Dtd.Star) ]);
      ("samerica", seq [ ("item", Dtd.Star) ]);
      ( "item",
        seq
          [ ("location", Dtd.One); ("quantity", Dtd.One); ("name", Dtd.One);
            ("payment", Dtd.One); ("description", Dtd.One);
            ("shipping", Dtd.Optional) ] );
      ("categories", seq [ ("category", Dtd.Star) ]);
      ("category", seq [ ("name", Dtd.One); ("description", Dtd.One) ]);
      ("people", seq [ ("person", Dtd.Star) ]);
      ( "person",
        seq
          [ ("name", Dtd.One); ("emailaddress", Dtd.One);
            ("phone", Dtd.Optional); ("address", Dtd.Optional);
            ("creditcard", Dtd.Optional); ("profile", Dtd.Optional);
            ("watches", Dtd.Optional) ] );
      ( "address",
        seq
          [ ("street", Dtd.One); ("city", Dtd.One); ("country", Dtd.One);
            ("zipcode", Dtd.One) ] );
      ( "profile",
        seq
          [ ("interest", Dtd.Star); ("education", Dtd.Optional);
            ("gender", Dtd.Optional); ("business", Dtd.One);
            ("age", Dtd.Optional) ] );
      ("watches", seq [ ("watch", Dtd.Star) ]);
      ("open_auctions", seq [ ("open_auction", Dtd.Star) ]);
      ( "open_auction",
        seq
          [ ("initial", Dtd.One); ("reserve", Dtd.Optional);
            ("bidder", Dtd.Star); ("current", Dtd.One);
            ("itemref", Dtd.One); ("seller", Dtd.One);
            ("quantity", Dtd.One); ("type", Dtd.One);
            ("interval", Dtd.One) ] );
      ("bidder", seq [ ("date", Dtd.One); ("time", Dtd.One); ("increase", Dtd.One) ]);
      ("interval", seq [ ("start", Dtd.One); ("end", Dtd.One) ]);
      ("closed_auctions", seq [ ("closed_auction", Dtd.Star) ]);
      ( "closed_auction",
        seq
          [ ("seller", Dtd.One); ("buyer", Dtd.One); ("itemref", Dtd.One);
            ("price", Dtd.One); ("date", Dtd.One); ("quantity", Dtd.One);
            ("type", Dtd.One); ("annotation", Dtd.Optional) ] );
      ( "annotation",
        seq
          [ ("author", Dtd.One); ("description", Dtd.One);
            ("happiness", Dtd.One) ] );
      (* Leaves. *)
      ("location", Dtd.Pcdata);
      ("quantity", Dtd.Pcdata);
      ("name", Dtd.Pcdata);
      ("payment", Dtd.Pcdata);
      ("description", Dtd.Pcdata);
      ("shipping", Dtd.Pcdata);
      ("emailaddress", Dtd.Pcdata);
      ("phone", Dtd.Pcdata);
      ("street", Dtd.Pcdata);
      ("city", Dtd.Pcdata);
      ("country", Dtd.Pcdata);
      ("zipcode", Dtd.Pcdata);
      ("creditcard", Dtd.Pcdata);
      ("interest", Dtd.Pcdata);
      ("education", Dtd.Pcdata);
      ("gender", Dtd.Pcdata);
      ("business", Dtd.Pcdata);
      ("age", Dtd.Pcdata);
      ("watch", Dtd.Pcdata);
      ("initial", Dtd.Pcdata);
      ("reserve", Dtd.Pcdata);
      ("current", Dtd.Pcdata);
      ("itemref", Dtd.Pcdata);
      ("seller", Dtd.Pcdata);
      ("type", Dtd.Pcdata);
      ("date", Dtd.Pcdata);
      ("time", Dtd.Pcdata);
      ("increase", Dtd.Pcdata);
      ("start", Dtd.Pcdata);
      ("end", Dtd.Pcdata);
      ("buyer", Dtd.Pcdata);
      ("price", Dtd.Pcdata);
      ("author", Dtd.Pcdata);
      ("happiness", Dtd.Pcdata);
    ]

(* Value pools, shared between generation and query synthesis. *)
let countries =
  [ "United States"; "Greece"; "Germany"; "Japan"; "Brazil"; "Kenya";
    "Australia"; "France" ]

let cities =
  [ "Heraklion"; "Athens"; "Berlin"; "Tokyo"; "Sao Paulo"; "Nairobi";
    "Sydney"; "Paris" ]

let payments = [ "Cash"; "Creditcard"; "Money order"; "Personal Check" ]
let educations = [ "High School"; "College"; "Graduate School"; "Other" ]
let genders = [ "male"; "female" ]
let booleans = [ "Yes"; "No" ]
let auction_types = [ "Regular"; "Featured" ]
let happiness_levels = List.init 10 (fun i -> string_of_int (i + 1))
let quantities = List.init 10 (fun i -> string_of_int (i + 1))

let value_pool = function
  | "country" -> countries
  | "city" -> cities
  | "payment" -> payments
  | "education" -> educations
  | "gender" -> genders
  | "business" -> booleans
  | "type" -> auction_types
  | "happiness" -> happiness_levels
  | "quantity" -> quantities
  | "age" -> [ "18"; "25"; "30"; "40"; "50"; "65" ]
  | "price" | "initial" | "current" | "reserve" | "increase" ->
      [ "10"; "50"; "100"; "500"; "1000"; "5000" ]
  | _ -> []

(* Baseline entity counts at f = 1. *)
let base_items = 2000 (* spread over 6 regions *)
let base_people = 2500
let base_open = 1200
let base_closed = 1000
let base_categories = 100

let scaled factor base = max 1 (int_of_float (ceil (float_of_int base *. factor)))

let node_count_estimate ~factor =
  (* Average subtree sizes measured from the generator: item ~8,
     person ~14, open_auction ~17, closed_auction ~12, category ~3. *)
  13
  + (scaled factor base_items * 8)
  + (scaled factor base_people * 14)
  + (scaled factor base_open * 17)
  + (scaled factor base_closed * 12)
  + (scaled factor base_categories * 3)

let pick rng pool = Prng.choose_list rng pool

let date rng =
  Printf.sprintf "%02d/%02d/%4d" (Prng.int_in rng 1 12) (Prng.int_in rng 1 28)
    (Prng.int_in rng 1998 2001)

let time rng =
  Printf.sprintf "%02d:%02d:%02d" (Prng.int_in rng 0 23) (Prng.int_in rng 0 59)
    (Prng.int_in rng 0 59)

let money rng hi = Printf.sprintf "%d.%02d" (Prng.int_in rng 1 hi) (Prng.int rng 100)

let person_name rng =
  String.capitalize_ascii (Prng.word rng (Prng.int_in rng 3 7))
  ^ " "
  ^ String.capitalize_ascii (Prng.word rng (Prng.int_in rng 4 9))

let leaf_value rng = function
  | "location" | "country" -> pick rng countries
  | "city" -> pick rng cities
  | "quantity" -> pick rng quantities
  | "name" -> person_name rng
  | "payment" -> pick rng payments
  | "description" -> Prng.words rng (Prng.int_in rng 3 12)
  | "shipping" -> "Will ship " ^ (if Prng.bool rng then "internationally" else "only within country")
  | "emailaddress" -> Printf.sprintf "mailto:%s@example.com" (Prng.word rng 8)
  | "phone" -> Printf.sprintf "+%d (%d) %d" (Prng.int_in rng 1 99) (Prng.int_in rng 10 999) (Prng.int_in rng 1000000 9999999)
  | "street" -> Printf.sprintf "%d %s St" (Prng.int_in rng 1 99) (String.capitalize_ascii (Prng.word rng 6))
  | "zipcode" -> string_of_int (Prng.int_in rng 10000 99999)
  | "creditcard" ->
      Printf.sprintf "%04d %04d %04d %04d" (Prng.int rng 10000)
        (Prng.int rng 10000) (Prng.int rng 10000) (Prng.int rng 10000)
  | "interest" -> "category" ^ string_of_int (Prng.int_in rng 1 50)
  | "education" -> pick rng educations
  | "gender" -> pick rng genders
  | "business" -> pick rng booleans
  | "age" -> string_of_int (Prng.int_in rng 18 80)
  | "watch" -> "open_auction" ^ string_of_int (Prng.int_in rng 1 1000)
  | "initial" -> money rng 300
  | "reserve" -> money rng 800
  | "current" -> money rng 2000
  | "increase" -> money rng 30
  | "itemref" -> "item" ^ string_of_int (Prng.int_in rng 1 10000)
  | "seller" | "buyer" | "author" -> "person" ^ string_of_int (Prng.int_in rng 1 10000)
  | "type" -> pick rng auction_types
  | "date" -> date rng
  | "time" -> time rng
  | "start" -> date rng
  | "end" -> date rng
  | "price" -> money rng 3000
  | "happiness" -> pick rng happiness_levels
  | other -> Prng.word rng (String.length other)

let generate ?(seed = 20090101L) ~factor () =
  if factor <= 0.0 then invalid_arg "Xmark.generate: factor must be positive";
  let rng = Prng.create ~seed in
  (* Entity counts at this scale. *)
  let items = scaled factor base_items in
  let people = scaled factor base_people in
  let opens = scaled factor base_open in
  let closeds = scaled factor base_closed in
  let categories = scaled factor base_categories in
  (* Per-star-particle fan-outs: entity lists get their scaled counts;
     small inner lists (bidders, interests, watches) stay
     size-independent, as in xmlgen. *)
  let region_counts = Array.make 6 (items / 6) in
  for i = 0 to (items mod 6) - 1 do
    region_counts.(i) <- region_counts.(i) + 1
  done;
  let region_index = ref 0 in
  let fanout ~rng ~parent ~child occ =
    match (parent, child) with
    | ( ("africa" | "asia" | "australia" | "europe" | "namerica" | "samerica"),
        "item" ) ->
        let n = region_counts.(!region_index mod 6) in
        incr region_index;
        n
    | "people", "person" -> people
    | "open_auctions", "open_auction" -> opens
    | "closed_auctions", "closed_auction" -> closeds
    | "categories", "category" -> categories
    | "open_auction", "bidder" -> Prng.geometric rng 0.35
    | "profile", "interest" -> Prng.geometric rng 0.5
    | "watches", "watch" -> Prng.geometric rng 0.4
    | _, _ -> (
        match occ with
        | Dtd.One -> 1
        | Dtd.Optional -> if Prng.bernoulli rng 0.6 then 1 else 0
        | Dtd.Star -> Prng.geometric rng 0.5
        | Dtd.Plus -> 1 + Prng.geometric rng 0.5)
  in
  let config =
    {
      Docgen.fanout;
      value = (fun ~rng ~elem -> leaf_value rng elem);
      choice =
        (fun ~rng ~parent:_ particles -> Some (Prng.choose_list rng particles));
    }
  in
  Docgen.generate ~config ~rng dtd
