(* Unit and property tests for the utility library. *)

module Prng = Xmlac_util.Prng
module Vec = Xmlac_util.Vec
module Tabular = Xmlac_util.Tabular
module Timing = Xmlac_util.Timing

(* ------------------------------------------------------------------ *)
(* Prng *)

let test_prng_deterministic () =
  let a = Prng.create ~seed:7L and b = Prng.create ~seed:7L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next_int64 a) (Prng.next_int64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create ~seed:1L and b = Prng.create ~seed:2L in
  let xs = List.init 10 (fun _ -> Prng.next_int64 a) in
  let ys = List.init 10 (fun _ -> Prng.next_int64 b) in
  Alcotest.(check bool) "different streams" true (xs <> ys)

let test_prng_int_range () =
  let rng = Prng.create ~seed:3L in
  for _ = 1 to 10_000 do
    let x = Prng.int rng 17 in
    Alcotest.(check bool) "in range" true (x >= 0 && x < 17)
  done

let test_prng_int_in_inclusive () =
  let rng = Prng.create ~seed:4L in
  let seen_lo = ref false and seen_hi = ref false in
  for _ = 1 to 10_000 do
    let x = Prng.int_in rng 2 5 in
    Alcotest.(check bool) "in range" true (x >= 2 && x <= 5);
    if x = 2 then seen_lo := true;
    if x = 5 then seen_hi := true
  done;
  Alcotest.(check bool) "both bounds hit" true (!seen_lo && !seen_hi)

let test_prng_float_range () =
  let rng = Prng.create ~seed:5L in
  for _ = 1 to 1_000 do
    let x = Prng.float rng 2.5 in
    Alcotest.(check bool) "in range" true (x >= 0.0 && x < 2.5)
  done

let test_prng_bernoulli_extremes () =
  let rng = Prng.create ~seed:6L in
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=1" true (Prng.bernoulli rng 1.0);
    Alcotest.(check bool) "p=0" false (Prng.bernoulli rng 0.0)
  done

let test_prng_choose () =
  let rng = Prng.create ~seed:8L in
  let arr = [| 10; 20; 30 |] in
  for _ = 1 to 100 do
    Alcotest.(check bool) "member" true (Array.mem (Prng.choose rng arr) arr)
  done

let test_prng_choose_list_empty () =
  let rng = Prng.create ~seed:9L in
  Alcotest.check_raises "empty" (Invalid_argument "Prng.choose_list: empty list")
    (fun () -> ignore (Prng.choose_list rng []))

let test_prng_shuffle_permutation () =
  let rng = Prng.create ~seed:10L in
  let arr = Array.init 50 Fun.id in
  Prng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort Stdlib.compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted

let test_prng_sample_distinct () =
  let rng = Prng.create ~seed:11L in
  let xs = List.init 20 Fun.id in
  let s = Prng.sample rng 7 xs in
  Alcotest.(check int) "size" 7 (List.length s);
  Alcotest.(check int) "distinct" 7 (List.length (List.sort_uniq compare s))

let test_prng_sample_clamps () =
  let rng = Prng.create ~seed:12L in
  Alcotest.(check int) "clamped" 3
    (List.length (Prng.sample rng 10 [ 1; 2; 3 ]))

let test_prng_geometric_positive () =
  let rng = Prng.create ~seed:13L in
  for _ = 1 to 1_000 do
    Alcotest.(check bool) "non-negative" true (Prng.geometric rng 0.5 >= 0)
  done

let test_prng_word () =
  let rng = Prng.create ~seed:14L in
  let w = Prng.word rng 12 in
  Alcotest.(check int) "length" 12 (String.length w);
  Alcotest.(check bool) "lowercase" true
    (String.for_all (fun c -> c >= 'a' && c <= 'z') w)

let test_prng_split_decorrelated () =
  let a = Prng.create ~seed:15L in
  let b = Prng.split a in
  let xs = List.init 5 (fun _ -> Prng.next_int64 a) in
  let ys = List.init 5 (fun _ -> Prng.next_int64 b) in
  Alcotest.(check bool) "substream differs" true (xs <> ys)

(* ------------------------------------------------------------------ *)
(* Vec *)

let test_vec_push_get () =
  let v = Vec.create ~dummy:0 () in
  for i = 0 to 99 do
    Vec.push v i
  done;
  Alcotest.(check int) "length" 100 (Vec.length v);
  for i = 0 to 99 do
    Alcotest.(check int) "get" i (Vec.get v i)
  done

let test_vec_bounds () =
  let v = Vec.of_list ~dummy:0 [ 1; 2; 3 ] in
  Alcotest.check_raises "oob" (Invalid_argument "Vec: index out of bounds")
    (fun () -> ignore (Vec.get v 3))

let test_vec_set () =
  let v = Vec.of_list ~dummy:0 [ 1; 2; 3 ] in
  Vec.set v 1 42;
  Alcotest.(check (list int)) "set" [ 1; 42; 3 ] (Vec.to_list v)

let test_vec_pop () =
  let v = Vec.of_list ~dummy:0 [ 1; 2 ] in
  Alcotest.(check (option int)) "pop" (Some 2) (Vec.pop v);
  Alcotest.(check (option int)) "pop" (Some 1) (Vec.pop v);
  Alcotest.(check (option int)) "pop empty" None (Vec.pop v)

let test_vec_clear () =
  let v = Vec.of_list ~dummy:0 [ 1; 2; 3 ] in
  Vec.clear v;
  Alcotest.(check bool) "empty" true (Vec.is_empty v)

let test_vec_fold_iter () =
  let v = Vec.of_list ~dummy:0 [ 1; 2; 3; 4 ] in
  Alcotest.(check int) "fold" 10 (Vec.fold ( + ) 0 v);
  let acc = ref [] in
  Vec.iteri (fun i x -> acc := (i, x) :: !acc) v;
  Alcotest.(check int) "iteri count" 4 (List.length !acc)

let test_vec_filter_in_place () =
  let v = Vec.of_list ~dummy:0 [ 1; 2; 3; 4; 5; 6 ] in
  Vec.filter_in_place (fun x -> x mod 2 = 0) v;
  Alcotest.(check (list int)) "evens" [ 2; 4; 6 ] (Vec.to_list v)

let test_vec_exists () =
  let v = Vec.of_list ~dummy:0 [ 1; 3; 5 ] in
  Alcotest.(check bool) "exists" true (Vec.exists (fun x -> x = 3) v);
  Alcotest.(check bool) "not exists" false (Vec.exists (fun x -> x = 4) v)

let vec_qcheck =
  QCheck2.Test.make ~name:"vec round-trips lists" ~count:200
    QCheck2.Gen.(list int)
    (fun xs -> Vec.to_list (Vec.of_list ~dummy:0 xs) = xs)

let vec_filter_qcheck =
  QCheck2.Test.make ~name:"vec filter_in_place agrees with List.filter"
    ~count:200
    QCheck2.Gen.(list int)
    (fun xs ->
      let v = Vec.of_list ~dummy:0 xs in
      Vec.filter_in_place (fun x -> x > 0) v;
      Vec.to_list v = List.filter (fun x -> x > 0) xs)

(* ------------------------------------------------------------------ *)
(* Tabular *)

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

let test_tabular_render () =
  let t = Tabular.create ~headers:[ "a"; "bb" ] in
  Tabular.add_row t [ "1"; "2" ];
  Tabular.add_row t [ "333" ];
  let s = Tabular.render t in
  Alcotest.(check bool) "contains header" true (contains ~needle:"bb" s);
  Alcotest.(check bool) "contains padded row" true (contains ~needle:"333" s);
  (* 3 rules + header + 2 rows = 6 non-empty lines. *)
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' s)
  in
  Alcotest.(check int) "line count" 6 (List.length lines)

let test_tabular_arity () =
  let t = Tabular.create ~headers:[ "a" ] in
  Alcotest.check_raises "too many" (Invalid_argument "Tabular.add_row: too many cells")
    (fun () -> Tabular.add_row t [ "1"; "2" ])

(* ------------------------------------------------------------------ *)
(* Bitset *)

module Bitset = Xmlac_util.Bitset
module ISet = Set.Make (Int)

let test_bitset_basics () =
  let l = [ 0; 1; 2; 3; 5; 65535; 65536; 70000; 70001; 131072 ] in
  let b = Bitset.of_list (l @ l) in
  Alcotest.(check (list int)) "to_list ascending" l (Bitset.to_list b);
  Alcotest.(check int) "cardinal" (List.length l) (Bitset.cardinal b);
  Alcotest.(check bool) "mem cross-chunk" true (Bitset.mem 70000 b);
  Alcotest.(check bool) "not mem" false (Bitset.mem 4 b);
  Alcotest.(check (option int)) "choose smallest" (Some 0) (Bitset.choose b);
  Alcotest.(check bool) "empty" true Bitset.(is_empty empty);
  Alcotest.(check bool) "add/remove" true
    (Bitset.mem 42 (Bitset.add 42 b) && not (Bitset.mem 5 (Bitset.remove 5 b)))

(* The digest's role term: members at or above [n] do not count, and
   no member below [n] hashes to 0, across word boundaries too. *)
let test_bitset_hash_below () =
  let h n l = Bitset.hash_below n (Bitset.of_list l) in
  Alcotest.(check int) "nothing below n" 0 (h 3 [ 3; 70 ]);
  Alcotest.(check int) "empty" 0 (h 100 []);
  Alcotest.(check bool) "members at or above n ignored" true
    (h 3 [ 0; 2; 5 ] = h 3 [ 0; 2 ] && h 70 [ 1; 69; 70 ] = h 70 [ 1; 69 ]);
  let sets = [ [ 0 ]; [ 1 ]; [ 0; 1 ]; [ 64 ]; [ 0; 64 ]; [ 1; 64 ]; [ 99 ] ] in
  let hashes = List.map (h 100) sets in
  Alcotest.(check bool) "non-empty sets hash apart from 0 and each other"
    true
    (List.for_all (fun x -> x <> 0) hashes
    && List.length (List.sort_uniq compare hashes) = List.length sets)

let test_bitset_shapes () =
  (* Dense contiguous -> run; scattered dense -> bitmap; both must
     round-trip through the wire form and compare equal to their
     member sets. *)
  let run = Bitset.of_list (List.init 60000 (fun i -> i + 7)) in
  let bmp = Bitset.of_list (List.init 20000 (fun i -> i * 3)) in
  let arr = Bitset.of_list [ 9; 90; 900; 9000 ] in
  List.iter
    (fun b ->
      let b' = Bitset.of_string (Bitset.to_string b) in
      Alcotest.(check bool) "serialize round-trip" true (Bitset.equal b b');
      Alcotest.(check int) "round-trip cardinal" (Bitset.cardinal b)
        (Bitset.cardinal b'))
    [ run; bmp; arr; Bitset.union run bmp; Bitset.empty ];
  Alcotest.(check bool) "16-member role set costs at most two words" true
    (Bitset.memory_bytes (Bitset.of_list (List.init 16 Fun.id))
    <= 2 * (Sys.word_size / 8))

let test_bitset_corrupt () =
  List.iter
    (fun s ->
      match Bitset.of_string s with
      | exception Failure m ->
          Alcotest.(check bool) "names corruption" true
            (contains ~needle:"corrupt" m)
      | _ -> Alcotest.failf "accepted corrupt input %S" s)
    [
      "RB2|0:A0001";       (* bad magic *)
      "RB1|0:A0003.0001";  (* unsorted members *)
      "RB1|0:Z00";         (* unknown shape *)
      "RB1|1:A0001|0:A0001";  (* keys out of order *)
      "RB1|0:R0005+0000";  (* zero-length run *)
      "RB1|0:Rfff0+0020";  (* run overflows chunk *)
      "RB1|0:A";           (* empty payload *)
      "RB1|10:A0000";      (* member at the 2^20 bound *)
      "RB1|0:A0001|0:A0002";  (* repeated chunk key *)
    ]

let bitset_algebra_qcheck =
  (* Union / inter / diff / subset agree with Set.Make(Int) on random
     member lists spanning several chunks. *)
  let gen = QCheck2.Gen.(list_size (0 -- 200) (0 -- 200_000)) in
  QCheck2.Test.make ~name:"bitset algebra agrees with Set" ~count:200
    QCheck2.Gen.(pair gen gen)
    (fun (xs, ys) ->
      let bx = Bitset.of_list xs and by = Bitset.of_list ys in
      let sx = ISet.of_list xs and sy = ISet.of_list ys in
      let eq b s = Bitset.to_list b = ISet.elements s in
      eq (Bitset.union bx by) (ISet.union sx sy)
      && eq (Bitset.inter bx by) (ISet.inter sx sy)
      && eq (Bitset.diff bx by) (ISet.diff sx sy)
      && Bitset.subset bx by = ISet.subset sx sy
      && Bitset.equal bx by = ISet.equal sx sy)

let bitset_serialize_qcheck =
  QCheck2.Test.make ~name:"bitset wire form round-trips" ~count:100
    QCheck2.Gen.(list_size (0 -- 300) (0 -- 300_000))
    (fun xs ->
      let b = Bitset.of_list xs in
      Bitset.equal b (Bitset.of_string (Bitset.to_string b)))

let bitset_update_qcheck =
  (* Random add/remove chains agree with Set.Make(Int); removing the
     largest member leaves a value equal to one built without it. *)
  let op = QCheck2.Gen.(pair bool (0 -- 5_000)) in
  QCheck2.Test.make ~name:"bitset add/remove chains agree with Set" ~count:200
    QCheck2.Gen.(list_size (0 -- 100) op)
    (fun ops ->
      let b, s =
        List.fold_left
          (fun (b, s) (is_add, v) ->
            if is_add then (Bitset.add v b, ISet.add v s)
            else (Bitset.remove v b, ISet.remove v s))
          (Bitset.empty, ISet.empty) ops
      in
      Bitset.to_list b = ISet.elements s
      &&
      match ISet.max_elt_opt s with
      | None -> Bitset.equal b Bitset.empty
      | Some top ->
          Bitset.equal (Bitset.remove top b)
            (Bitset.of_list (ISet.elements (ISet.remove top s))))

(* ------------------------------------------------------------------ *)
(* Timing *)

let test_timing_time () =
  let x, t = Timing.time (fun () -> 41 + 1) in
  Alcotest.(check int) "result" 42 x;
  Alcotest.(check bool) "non-negative" true (t >= 0.0)

let test_timing_pp () =
  let s = Format.asprintf "%a" Timing.pp_seconds 0.00125 in
  Alcotest.(check bool) "uses ms" true
    (String.length s >= 2 && String.sub s (String.length s - 2) 2 = "ms")

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "util"
    [
      ( "prng",
        [
          tc "deterministic" test_prng_deterministic;
          tc "seed sensitivity" test_prng_seed_sensitivity;
          tc "int range" test_prng_int_range;
          tc "int_in inclusive" test_prng_int_in_inclusive;
          tc "float range" test_prng_float_range;
          tc "bernoulli extremes" test_prng_bernoulli_extremes;
          tc "choose membership" test_prng_choose;
          tc "choose_list empty" test_prng_choose_list_empty;
          tc "shuffle is a permutation" test_prng_shuffle_permutation;
          tc "sample distinct" test_prng_sample_distinct;
          tc "sample clamps" test_prng_sample_clamps;
          tc "geometric non-negative" test_prng_geometric_positive;
          tc "word shape" test_prng_word;
          tc "split decorrelated" test_prng_split_decorrelated;
        ] );
      ( "vec",
        [
          tc "push/get" test_vec_push_get;
          tc "bounds" test_vec_bounds;
          tc "set" test_vec_set;
          tc "pop" test_vec_pop;
          tc "clear" test_vec_clear;
          tc "fold/iteri" test_vec_fold_iter;
          tc "filter_in_place" test_vec_filter_in_place;
          tc "exists" test_vec_exists;
          QCheck_alcotest.to_alcotest vec_qcheck;
          QCheck_alcotest.to_alcotest vec_filter_qcheck;
        ] );
      ( "tabular",
        [ tc "render" test_tabular_render; tc "arity" test_tabular_arity ] );
      ( "bitset",
        [
          tc "basics" test_bitset_basics;
          tc "hash_below" test_bitset_hash_below;
          tc "container shapes round-trip" test_bitset_shapes;
          tc "corrupt wire forms rejected" test_bitset_corrupt;
          QCheck_alcotest.to_alcotest bitset_algebra_qcheck;
          QCheck_alcotest.to_alcotest bitset_serialize_qcheck;
          QCheck_alcotest.to_alcotest bitset_update_qcheck;
        ] );
      ( "timing",
        [ tc "time" test_timing_time; tc "pp_seconds" test_timing_pp ] );
    ]
