module Engine = Xmlac_core.Engine
module Wal = Xmlac_reldb.Wal
module Serializer = Xmlac_xml.Serializer
module Xml_parser = Xmlac_xml.Xml_parser

type t = {
  epoch : int;
  payload : string;
  sum : int32;
  state_sum : int32;
}

let epoch f = f.epoch
let state_sum f = f.state_sum

(* One printable-prefix byte selects the op; the rest is the op's own
   encoding.  The annotation ops keep the wire format's store tag
   ("A native", "S native").  Inserts frame the target path
   length-prefixed so the serialized fragment can contain anything. *)
let payload_of_op = function
  | Engine.Op_noop -> "N"
  | Engine.Op_annotate -> "A native"
  | Engine.Op_annotate_subjects -> "S native"
  | Engine.Op_update q -> "U " ^ q
  | Engine.Op_insert { at; fragment } ->
      Printf.sprintf "I %d\x00%s%s" (String.length at) at
        (Serializer.to_string fragment)

let op_of_payload s =
  let body () = String.sub s 2 (String.length s - 2) in
  if s = "N" then Ok Engine.Op_noop
  else if s = "A native" then Ok Engine.Op_annotate
  else if s = "S native" then Ok Engine.Op_annotate_subjects
  else if String.length s < 2 || s.[1] <> ' ' then
    Error "malformed frame payload"
  else
    match s.[0] with
    | 'U' -> Ok (Engine.Op_update (body ()))
    | 'I' -> (
        let b = body () in
        match String.index_opt b '\x00' with
        | None -> Error "torn insert frame (no length delimiter)"
        | Some i -> (
            match int_of_string_opt (String.sub b 0 i) with
            | None -> Error "torn insert frame (bad length)"
            | Some len ->
                if String.length b < i + 1 + len then
                  Error "torn insert frame (short target)"
                else
                  let at = String.sub b (i + 1) len in
                  let xml =
                    String.sub b (i + 1 + len)
                      (String.length b - i - 1 - len)
                  in
                  (match Xml_parser.parse xml with
                  | Ok fragment -> Ok (Engine.Op_insert { at; fragment })
                  | Error _ -> Error "torn insert frame (unparsable fragment)")))
    | _ -> Error "unknown frame op"

let make ~epoch ~state_sum op =
  let payload = payload_of_op op in
  { epoch; payload; sum = Wal.adler32 1l payload; state_sum }

let intact f = Wal.adler32 1l f.payload = f.sum

let op f =
  if not (intact f) then Error "frame checksum mismatch (torn frame)"
  else op_of_payload f.payload

(* Deterministic frame corruption for the chaos transport: keep the
   declared checksum but truncate the payload, as a half-written
   network buffer would. *)
let tear f = { f with payload = String.sub f.payload 0 (String.length f.payload / 2) }
