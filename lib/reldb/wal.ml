module Fault = Xmlac_util.Fault

type t = {
  buf : Buffer.t;
  mutable records : int;
  mutable total_bytes : int;
  mutable sum : int32;
}

let create () =
  { buf = Buffer.create 4096; records = 0; total_bytes = 0; sum = 1l }

(* Adler-32, the classic journaling checksum: cheap but touches every
   byte, which is the cost profile we want. *)
let adler32 sum s =
  let base = 65521l in
  let a = ref (Int32.logand sum 0xFFFFl) in
  let b = ref (Int32.logand (Int32.shift_right_logical sum 16) 0xFFFFl) in
  String.iter
    (fun c ->
      a := Int32.rem (Int32.add !a (Int32.of_int (Char.code c))) base;
      b := Int32.rem (Int32.add !b !a) base)
    s;
  Int32.logor (Int32.shift_left !b 16) !a

(* Every record carries a fixed-size header (LSN + type + CRC slot in a
   real log); it participates in the checksum like the payload. *)
let header = String.make 32 '\x2a'

let log t record =
  if Fault.killed () then
    failwith "Wal.log: append after simulated crash (recover first)";
  Fault.point "wal.append";
  Buffer.add_string t.buf header;
  Buffer.add_string t.buf (string_of_int (String.length record));
  Buffer.add_char t.buf '\x00';
  Buffer.add_string t.buf record;
  Buffer.add_char t.buf '\n';
  t.sum <- adler32 (adler32 t.sum header) record;
  t.records <- t.records + 1;
  t.total_bytes <- t.total_bytes + String.length record;
  (* Bound memory on huge loads: the byte image would be rotated on
     disk; here we recycle the buffer while keeping the counters. *)
  if Buffer.length t.buf > 16 * 1024 * 1024 then Buffer.clear t.buf

let records t = t.records
let bytes_logged t = t.total_bytes
let checksum t = t.sum
