(* Immutable bit vector over the ints in [0, bound).

   Member [v] is bit [v mod Sys.int_size] of word [v / Sys.int_size].
   The last word is never zero, so two vectors hold the same members
   exactly when they are structurally equal.  Every operation returns
   a fresh array (or an input unchanged) and never writes to its
   inputs. *)

type t = int array

(* Role ids are small; the bound keeps a damaged wire form from
   making [of_string] allocate a huge vector. *)
let bound = 1 lsl 20
let w = Sys.int_size

let check v =
  if v < 0 || v >= bound then
    invalid_arg (Printf.sprintf "Bitset: member %d outside [0, %d)" v bound)

let trim (a : t) : t =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length a then a else Array.sub a 0 !n

let empty : t = [||]
let is_empty (t : t) = Array.length t = 0

let mem v (t : t) =
  v >= 0 && v / w < Array.length t && t.(v / w) land (1 lsl (v mod w)) <> 0

let add v (t : t) =
  check v;
  if mem v t then t
  else begin
    let out = Array.make (max (Array.length t) ((v / w) + 1)) 0 in
    Array.blit t 0 out 0 (Array.length t);
    out.(v / w) <- out.(v / w) lor (1 lsl (v mod w));
    out
  end

let remove v (t : t) =
  check v;
  if not (mem v t) then t
  else begin
    let out = Array.copy t in
    out.(v / w) <- out.(v / w) land lnot (1 lsl (v mod w));
    trim out
  end

let of_list l : t =
  List.iter check l;
  let words = List.fold_left (fun n v -> max n ((v / w) + 1)) 0 l in
  let out = Array.make words 0 in
  List.iter (fun v -> out.(v / w) <- out.(v / w) lor (1 lsl (v mod w))) l;
  out

let union (a : t) (b : t) : t =
  let a, b = if Array.length a >= Array.length b then (a, b) else (b, a) in
  let out = Array.copy a in
  Array.iteri (fun i x -> out.(i) <- out.(i) lor x) b;
  out

let inter (a : t) (b : t) : t =
  trim
    (Array.init (min (Array.length a) (Array.length b)) (fun i ->
         a.(i) land b.(i)))

let diff (a : t) (b : t) : t =
  trim
    (Array.mapi
       (fun i x -> if i < Array.length b then x land lnot b.(i) else x)
       a)

let equal (a : t) (b : t) =
  Array.length a = Array.length b && Array.for_all2 Int.equal a b

let subset (a : t) (b : t) =
  let rec from i =
    i >= Array.length a || (a.(i) land lnot b.(i) = 0 && from (i + 1))
  in
  Array.length a <= Array.length b && from 0

let cardinal (t : t) =
  let rec popcount x = if x = 0 then 0 else 1 + popcount (x land (x - 1)) in
  Array.fold_left (fun n x -> n + popcount x) 0 t

let iter f (t : t) =
  Array.iteri
    (fun i x ->
      if x <> 0 then
        for b = 0 to w - 1 do
          if x land (1 lsl b) <> 0 then f ((i * w) + b)
        done)
    t

let fold f t acc =
  let acc = ref acc in
  iter (fun v -> acc := f v !acc) t;
  !acc

let to_list t = List.rev (fold List.cons t [])

let choose t =
  let exception Found of int in
  match iter (fun v -> raise (Found v)) t with
  | () -> None
  | exception Found v -> Some v

(* The words below [n], masked, as the coefficients of a polynomial
   in an odd constant mod 2^63, word [i] at degree [i]: a set held in
   word 0 hashes to that word itself. *)
let hash_below n (t : t) =
  let words = min (Array.length t) ((n + w - 1) / w) in
  let h = ref 0 and any = ref 0 in
  for i = words - 1 downto 0 do
    let x =
      if (i + 1) * w <= n then t.(i)
      else t.(i) land ((1 lsl (n - (i * w))) - 1)
    in
    h := (!h * 0x1f58476d1ce4e5b9) + x;
    any := !any lor x
  done;
  if !any = 0 then 0 else if !h = 0 then 1 else !h

let word (t : t) k = if k < Array.length t then t.(k) else 0

let memory_bytes (t : t) = Array.length t * (Sys.word_size / 8)

(* --- serialization ------------------------------------------------- *)

(* Printable, self-validating wire form for WAL records and the
   relational bits column:

     RB1|<chunks>            e.g.  RB1|0:A0003.0005|1:A0010

   Members are grouped by their high bits (v lsr 16); each group is
   its hex key, ':', the shape tag 'A' and the low 16 bits of each
   member as 4-digit lowercase hex, ascending and separated by '.'.
   Deserialization re-validates ordering and bounds and fails loudly
   on any deviation. *)

let to_string t =
  let buf = Buffer.create 64 in
  Buffer.add_string buf "RB1";
  let key = ref (-1) in
  iter
    (fun v ->
      if v lsr 16 <> !key then begin
        key := v lsr 16;
        Printf.bprintf buf "|%x:A%04x" !key (v land 0xffff)
      end
      else Printf.bprintf buf ".%04x" (v land 0xffff))
    t;
  Buffer.contents buf

let corrupt fmt =
  Printf.ksprintf
    (fun m -> failwith ("Bitset.of_string: corrupt bitmap: " ^ m))
    fmt

let parse_hex what s =
  match int_of_string_opt ("0x" ^ s) with
  | Some v when v >= 0 -> v
  | _ -> corrupt "bad %s %S" what s

(* Strictly ascending, so neither a key nor a member repeats. *)
let rec ascending what = function
  | a :: (b :: _ as rest) ->
      if a >= b then corrupt "%s out of order" what else ascending what rest
  | _ -> ()

let parse_chunk part =
  match String.index_opt part ':' with
  | None -> corrupt "chunk %S lacks a key" part
  | Some i ->
      let k = parse_hex "chunk key" (String.sub part 0 i) in
      if k >= bound lsr 16 then corrupt "chunk key %x out of range" k;
      let body = String.sub part (i + 1) (String.length part - i - 1) in
      if body = "" then corrupt "chunk %x has no shape" k;
      if body.[0] <> 'A' then corrupt "unknown shape %C" body.[0];
      let payload = String.sub body 1 (String.length body - 1) in
      let members =
        List.map
          (fun s ->
            let low = parse_hex "member" s in
            if low > 0xffff then corrupt "member %x overflows" low;
            (k lsl 16) lor low)
          (String.split_on_char '.' payload)
      in
      ascending "members" members;
      (k, members)

let of_string s =
  match String.split_on_char '|' s with
  | magic :: chunks ->
      if magic <> "RB1" then corrupt "bad magic %S" magic;
      let chunks = List.map parse_chunk chunks in
      ascending "chunk keys" (List.map fst chunks);
      of_list (List.concat_map snd chunks)
  | [] -> corrupt "empty input"

let pp ppf t =
  let n = cardinal t in
  if n <= 16 then
    Format.fprintf ppf "{%s}"
      (String.concat "," (List.map string_of_int (to_list t)))
  else Format.fprintf ppf "{%d members, %d bytes}" n (memory_bytes t)
