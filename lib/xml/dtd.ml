type occurrence = One | Optional | Star | Plus

let occurrence_to_string = function
  | One -> ""
  | Optional -> "?"
  | Star -> "*"
  | Plus -> "+"

type particle = { elem : string; occ : occurrence }

type content =
  | Pcdata
  | Empty
  | Seq of particle list
  | Choice of particle list

type t = {
  root : string;
  order : string list;
  decls : (string, content) Hashtbl.t;
}

let particles = function
  | Pcdata | Empty -> []
  | Seq ps | Choice ps -> ps

let make ~root decls =
  let table = Hashtbl.create 32 in
  let order = List.map fst decls in
  List.iter
    (fun (name, content) ->
      if Hashtbl.mem table name then
        invalid_arg (Printf.sprintf "Dtd.make: duplicate declaration of %s" name);
      Hashtbl.replace table name content)
    decls;
  if not (Hashtbl.mem table root) then
    invalid_arg (Printf.sprintf "Dtd.make: undeclared root %s" root);
  List.iter
    (fun (name, content) ->
      List.iter
        (fun p ->
          if not (Hashtbl.mem table p.elem) then
            invalid_arg
              (Printf.sprintf "Dtd.make: %s references undeclared type %s" name
                 p.elem))
        (particles content))
    decls;
  { root; order; decls = table }

let root t = t.root
let element_types t = t.order
let content t name = Hashtbl.find t.decls name

let child_types t name =
  match Hashtbl.find_opt t.decls name with
  | None -> []
  | Some c -> List.map (fun p -> p.elem) (particles c)

(* ------------------------------------------------------------------ *)
(* Concrete syntax                                                     *)

let to_string t =
  let buf = Buffer.create 256 in
  List.iter
    (fun name ->
      let body =
        match content t name with
        | Pcdata -> "(#PCDATA)"
        | Empty -> "EMPTY"
        | Seq ps ->
            "("
            ^ String.concat ", "
                (List.map (fun p -> p.elem ^ occurrence_to_string p.occ) ps)
            ^ ")"
        | Choice ps ->
            "("
            ^ String.concat " | "
                (List.map (fun p -> p.elem ^ occurrence_to_string p.occ) ps)
            ^ ")"
      in
      Buffer.add_string buf (Printf.sprintf "<!ELEMENT %s %s>\n" name body))
    t.order;
  Buffer.contents buf

let parse input =
  let len = String.length input in
  let pos = ref 0 in
  let error fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let is_space c = c = ' ' || c = '\t' || c = '\n' || c = '\r' in
  let skip_spaces () =
    while !pos < len && is_space input.[!pos] do
      incr pos
    done
  in
  let is_name_char c =
    (c >= 'a' && c <= 'z')
    || (c >= 'A' && c <= 'Z')
    || (c >= '0' && c <= '9')
    || c = '_' || c = '-' || c = '.'
  in
  let parse_name () =
    let start = !pos in
    while !pos < len && is_name_char input.[!pos] do
      incr pos
    done;
    if !pos = start then None else Some (String.sub input start (!pos - start))
  in
  let parse_particle () =
    match parse_name () with
    | None -> None
    | Some elem ->
        let occ =
          if !pos < len then
            match input.[!pos] with
            | '?' -> incr pos; Optional
            | '*' -> incr pos; Star
            | '+' -> incr pos; Plus
            | _ -> One
          else One
        in
        Some { elem; occ }
  in
  let rec parse_decls acc =
    skip_spaces ();
    if !pos >= len then Ok (List.rev acc)
    else if !pos + 9 <= len && String.sub input !pos 9 = "<!ELEMENT" then begin
      pos := !pos + 9;
      skip_spaces ();
      match parse_name () with
      | None -> error "expected an element name at offset %d" !pos
      | Some name -> (
          skip_spaces ();
          if !pos + 5 <= len && String.sub input !pos 5 = "EMPTY" then begin
            pos := !pos + 5;
            skip_spaces ();
            if !pos < len && input.[!pos] = '>' then begin
              incr pos;
              parse_decls ((name, Empty) :: acc)
            end
            else error "expected '>' after EMPTY in %s" name
          end
          else if !pos < len && input.[!pos] = '(' then begin
            incr pos;
            skip_spaces ();
            if !pos + 7 <= len && String.sub input !pos 7 = "#PCDATA" then begin
              pos := !pos + 7;
              skip_spaces ();
              if !pos < len && input.[!pos] = ')' then begin
                incr pos;
                skip_spaces ();
                if !pos < len && input.[!pos] = '>' then begin
                  incr pos;
                  parse_decls ((name, Pcdata) :: acc)
                end
                else error "expected '>' after (#PCDATA) in %s" name
              end
              else error "expected ')' after #PCDATA in %s" name
            end
            else
              (* particle list, separated uniformly by ',' or '|' *)
              let rec particles_loop ps sep =
                skip_spaces ();
                match parse_particle () with
                | None -> error "expected a particle in %s" name
                | Some p -> (
                    let ps = p :: ps in
                    skip_spaces ();
                    if !pos < len && input.[!pos] = ')' then begin
                      incr pos;
                      skip_spaces ();
                      if !pos < len && input.[!pos] = '>' then begin
                        incr pos;
                        let body =
                          match sep with
                          | Some '|' -> Choice (List.rev ps)
                          | _ -> Seq (List.rev ps)
                        in
                        parse_decls ((name, body) :: acc)
                      end
                      else error "expected '>' at end of %s" name
                    end
                    else if !pos < len && (input.[!pos] = ',' || input.[!pos] = '|')
                    then begin
                      let c = input.[!pos] in
                      match sep with
                      | Some s when s <> c ->
                          error "mixed ',' and '|' in %s" name
                      | _ ->
                          incr pos;
                          particles_loop ps (Some c)
                    end
                    else error "expected ',', '|' or ')' in %s" name)
              in
              particles_loop [] None
          end
          else error "expected '(' or EMPTY in declaration of %s" name)
    end
    else error "expected '<!ELEMENT' at offset %d" !pos
  in
  match parse_decls [] with
  | Error _ as e -> e
  | Ok [] -> Error "empty DTD"
  | Ok ((root, _) :: _ as decls) -> (
      match make ~root decls with
      | t -> Ok t
      | exception Invalid_argument m -> Error m)

let parse_exn input =
  match parse input with Ok t -> t | Error m -> invalid_arg ("Dtd.parse: " ^ m)

(* ------------------------------------------------------------------ *)
(* Validation                                                          *)

type violation = {
  node_id : int;
  elem : string;
  reason : string;
}

let pp_violation ppf v =
  Format.fprintf ppf "node #%d <%s>: %s" v.node_id v.elem v.reason

let count_children n =
  let counts = Hashtbl.create 8 in
  List.iter
    (fun (c : Tree.node) ->
      let k = match Hashtbl.find_opt counts c.Tree.name with
        | None -> 0
        | Some k -> k
      in
      Hashtbl.replace counts c.Tree.name (k + 1))
    (Tree.children n);
  counts

let occurrence_ok occ k =
  match occ with
  | One -> k = 1
  | Optional -> k <= 1
  | Star -> true
  | Plus -> k >= 1

let occurrence_msg occ =
  match occ with
  | One -> "exactly one"
  | Optional -> "at most one"
  | Star -> "any number of"
  | Plus -> "at least one"

let validate t doc =
  let violations = ref [] in
  let bad (n : Tree.node) fmt =
    Printf.ksprintf
      (fun reason ->
        violations := { node_id = n.Tree.id; elem = n.Tree.name; reason }
                      :: !violations)
      fmt
  in
  let check (n : Tree.node) =
    match Hashtbl.find_opt t.decls n.Tree.name with
    | None -> bad n "undeclared element type"
    | Some model -> (
        let counts = count_children n in
        let declared = List.map (fun (p : particle) -> p.elem) (particles model) in
        Hashtbl.iter
          (fun name _ ->
            if not (List.mem name declared) then
              bad n "child <%s> not allowed by content model" name)
          counts;
        match model with
        | Pcdata ->
            if Tree.children n <> [] then bad n "PCDATA element has children"
        | Empty ->
            if Tree.children n <> [] then bad n "EMPTY element has children";
            if n.Tree.value <> None then bad n "EMPTY element has text"
        | Seq ps ->
            if n.Tree.value <> None then bad n "sequence element has text";
            List.iter
              (fun (p : particle) ->
                let k =
                  match Hashtbl.find_opt counts p.elem with
                  | None -> 0
                  | Some k -> k
                in
                if not (occurrence_ok p.occ k) then
                  bad n "expected %s <%s>, found %d"
                    (occurrence_msg p.occ) p.elem k)
              ps
        | Choice ps ->
            if n.Tree.value <> None then bad n "choice element has text";
            let used =
              List.filter (fun (p : particle) -> Hashtbl.mem counts p.elem) ps
            in
            (match used with
            | [] ->
                (* Allowed when the choice is effectively optional,
                   e.g. (regular? | experimental?) may be empty. *)
                if
                  not
                    (List.for_all
                       (fun p -> p.occ = Optional || p.occ = Star)
                       ps)
                then bad n "empty choice with a mandatory branch"
            | [ p ] ->
                let k = Hashtbl.find counts p.elem in
                if not (occurrence_ok p.occ k) then
                  bad n "expected %s <%s>, found %d"
                    (occurrence_msg p.occ) p.elem k
            | _ -> bad n "children from more than one choice branch"))
  in
  let root = Tree.root doc in
  if root.Tree.name <> t.root then
    bad root "root is <%s> but the DTD requires <%s>" root.Tree.name t.root;
  Tree.iter check doc;
  List.rev !violations

let is_valid t doc = validate t doc = []
