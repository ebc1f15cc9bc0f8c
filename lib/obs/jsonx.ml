(* Minimal JSON parser: recursive descent over the input string, one
   mutable cursor.  Strings decode the standard escapes (\uXXXX becomes
   UTF-8); numbers go through [float_of_string] on the scanned span.
   Errors carry the byte offset where parsing stopped. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

type cursor = { s : string; mutable pos : int }

let fail c fmt =
  Printf.ksprintf
    (fun m -> raise (Parse_error (Printf.sprintf "%s at byte %d" m c.pos)))
    fmt

let peek c = if c.pos < String.length c.s then Some c.s.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let skip_ws c =
  while
    c.pos < String.length c.s
    &&
    match c.s.[c.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    advance c
  done

let expect c ch =
  match peek c with
  | Some k when k = ch -> advance c
  | Some k -> fail c "expected '%c', found '%c'" ch k
  | None -> fail c "expected '%c', found end of input" ch

let literal c word value =
  let n = String.length word in
  if
    c.pos + n <= String.length c.s
    && String.sub c.s c.pos n = word
  then begin
    c.pos <- c.pos + n;
    value
  end
  else fail c "invalid literal"

(* Encode one Unicode scalar value as UTF-8 into [b]. *)
let add_utf8 b u =
  if u < 0x80 then Buffer.add_char b (Char.chr u)
  else if u < 0x800 then begin
    Buffer.add_char b (Char.chr (0xC0 lor (u lsr 6)));
    Buffer.add_char b (Char.chr (0x80 lor (u land 0x3F)))
  end
  else if u < 0x10000 then begin
    Buffer.add_char b (Char.chr (0xE0 lor (u lsr 12)));
    Buffer.add_char b (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor (u land 0x3F)))
  end
  else begin
    Buffer.add_char b (Char.chr (0xF0 lor (u lsr 18)));
    Buffer.add_char b (Char.chr (0x80 lor ((u lsr 12) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor (u land 0x3F)))
  end

let hex4 c =
  let d ch =
    match ch with
    | '0' .. '9' -> Char.code ch - Char.code '0'
    | 'a' .. 'f' -> Char.code ch - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code ch - Char.code 'A' + 10
    | _ -> fail c "invalid \\u escape"
  in
  if c.pos + 4 > String.length c.s then fail c "truncated \\u escape";
  let v =
    (d c.s.[c.pos] lsl 12)
    lor (d c.s.[c.pos + 1] lsl 8)
    lor (d c.s.[c.pos + 2] lsl 4)
    lor d c.s.[c.pos + 3]
  in
  c.pos <- c.pos + 4;
  v

let parse_string c =
  expect c '"';
  let b = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> fail c "unterminated string"
    | Some '"' -> advance c
    | Some '\\' ->
      advance c;
      (match peek c with
      | None -> fail c "unterminated escape"
      | Some ch ->
        advance c;
        (match ch with
        | '"' -> Buffer.add_char b '"'
        | '\\' -> Buffer.add_char b '\\'
        | '/' -> Buffer.add_char b '/'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'n' -> Buffer.add_char b '\n'
        | 'r' -> Buffer.add_char b '\r'
        | 't' -> Buffer.add_char b '\t'
        | 'u' ->
          let u = hex4 c in
          (* surrogate pair *)
          if u >= 0xD800 && u <= 0xDBFF then begin
            if
              c.pos + 2 <= String.length c.s
              && c.s.[c.pos] = '\\'
              && c.s.[c.pos + 1] = 'u'
            then begin
              c.pos <- c.pos + 2;
              let lo = hex4 c in
              if lo >= 0xDC00 && lo <= 0xDFFF then
                add_utf8 b
                  (0x10000 + ((u - 0xD800) lsl 10) + (lo - 0xDC00))
              else fail c "invalid low surrogate"
            end
            else fail c "lone high surrogate"
          end
          else add_utf8 b u
        | _ -> fail c "invalid escape '\\%c'" ch));
      go ()
    | Some ch when Char.code ch < 0x20 -> fail c "raw control character"
    | Some ch ->
      advance c;
      Buffer.add_char b ch;
      go ()
  in
  go ();
  Buffer.contents b

let parse_number c =
  let start = c.pos in
  let is_num_char ch =
    match ch with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while
    c.pos < String.length c.s && is_num_char c.s.[c.pos]
  do
    advance c
  done;
  if c.pos = start then fail c "expected a number";
  let span = String.sub c.s start (c.pos - start) in
  match float_of_string_opt span with
  | Some v -> v
  | None ->
    c.pos <- start;
    fail c "malformed number %S" span

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> fail c "unexpected end of input"
  | Some '"' -> Str (parse_string c)
  | Some '{' ->
    advance c;
    skip_ws c;
    if peek c = Some '}' then begin
      advance c;
      Obj []
    end
    else begin
      let rec members acc =
        skip_ws c;
        let k = parse_string c in
        skip_ws c;
        expect c ':';
        let v = parse_value c in
        skip_ws c;
        match peek c with
        | Some ',' ->
          advance c;
          members ((k, v) :: acc)
        | Some '}' ->
          advance c;
          List.rev ((k, v) :: acc)
        | _ -> fail c "expected ',' or '}'"
      in
      Obj (members [])
    end
  | Some '[' ->
    advance c;
    skip_ws c;
    if peek c = Some ']' then begin
      advance c;
      List []
    end
    else begin
      let rec elements acc =
        let v = parse_value c in
        skip_ws c;
        match peek c with
        | Some ',' ->
          advance c;
          elements (v :: acc)
        | Some ']' ->
          advance c;
          List.rev (v :: acc)
        | _ -> fail c "expected ',' or ']'"
      in
      List (elements [])
    end
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some _ -> Num (parse_number c)

let parse s =
  let c = { s; pos = 0 } in
  match parse_value c with
  | v ->
    skip_ws c;
    if c.pos <> String.length s then
      Error (Printf.sprintf "trailing input at byte %d" c.pos)
    else Ok v
  | exception Parse_error m -> Error m

let member k = function
  | Obj fields -> List.assoc_opt k fields
  | _ -> None

let to_float = function Num v -> Some v | _ -> None

let to_int = function
  | Num v
    when Float.is_integer v
         && Float.abs v <= 9007199254740992.0 (* 2^53 *) ->
    Some (int_of_float v)
  | _ -> None

let to_string = function Str s -> Some s | _ -> None
let to_list = function List l -> Some l | _ -> None
let to_obj = function Obj o -> Some o | _ -> None

let encode v =
  let b = Buffer.create 256 in
  let rec go = function
    | Null -> Buffer.add_string b "null"
    | Bool x -> Buffer.add_string b (string_of_bool x)
    | Num v -> Buffer.add_string b (Json_text.number v)
    | Str s -> Buffer.add_string b (Json_text.quoted s)
    | List l ->
      Buffer.add_char b '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char b ',';
          go x)
        l;
      Buffer.add_char b ']'
    | Obj fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, x) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_string b (Json_text.quoted k);
          Buffer.add_char b ':';
          go x)
        fields;
      Buffer.add_char b '}'
  in
  go v;
  Buffer.contents b
