type 'a t = {
  mutable data : 'a array;
  mutable len : int;
  dummy : 'a;
}

let create ?(capacity = 16) ~dummy () =
  { data = Array.make (max capacity 1) dummy; len = 0; dummy }

let length t = t.len
let is_empty t = t.len = 0

let check t i =
  if i < 0 || i >= t.len then invalid_arg "Vec: index out of bounds"

let get t i =
  check t i;
  t.data.(i)

let set t i x =
  check t i;
  t.data.(i) <- x

let grow t =
  let cap = Array.length t.data in
  let data = Array.make (2 * cap) t.dummy in
  Array.blit t.data 0 data 0 t.len;
  t.data <- data

let push t x =
  if t.len = Array.length t.data then grow t;
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let pop t =
  if t.len = 0 then None
  else begin
    t.len <- t.len - 1;
    let x = t.data.(t.len) in
    t.data.(t.len) <- t.dummy;
    Some x
  end

let clear t =
  Array.fill t.data 0 t.len t.dummy;
  t.len <- 0

let iter f t =
  for i = 0 to t.len - 1 do
    f t.data.(i)
  done

let iteri f t =
  for i = 0 to t.len - 1 do
    f i t.data.(i)
  done

let fold f acc t =
  let acc = ref acc in
  for i = 0 to t.len - 1 do
    acc := f !acc t.data.(i)
  done;
  !acc

let exists p t =
  let rec loop i = i < t.len && (p t.data.(i) || loop (i + 1)) in
  loop 0

let map_to_list f t =
  let rec loop i acc = if i < 0 then acc else loop (i - 1) (f t.data.(i) :: acc) in
  loop (t.len - 1) []

let to_list t = map_to_list Fun.id t

let of_list ~dummy xs =
  let t = create ~dummy () in
  List.iter (push t) xs;
  t

let filter_in_place p t =
  let j = ref 0 in
  for i = 0 to t.len - 1 do
    let x = t.data.(i) in
    if p x then begin
      t.data.(!j) <- x;
      incr j
    end
  done;
  Array.fill t.data !j (t.len - !j) t.dummy;
  t.len <- !j
