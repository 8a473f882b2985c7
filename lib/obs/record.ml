type value = Bool of bool | Int of int | Float of float | Str of string
type t = (string * value) list

let find = List.assoc_opt

let to_float = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  (* How [to_json] writes a non-finite float; see [value_into]. *)
  | Str ("inf" | "-inf" | "nan" | "-nan" as s) -> Some (float_of_string s)
  | Bool _ | Str _ -> None

let to_int = function Int i -> Some i | Float _ | Bool _ | Str _ -> None
let to_str = function Str s -> Some s | Int _ | Float _ | Bool _ -> None

(* %.12g: enough digits that trace timestamps and scores survive a
   round-trip at full useful precision without the noise of %.17g. *)
let float_str f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.12g" f

(* --- JSONL ---------------------------------------------------------- *)

let escape_into b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 32 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let value_into b = function
  | Bool x -> Buffer.add_string b (string_of_bool x)
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f ->
    if Float.is_finite f then Buffer.add_string b (float_str f)
    else begin
      (* JSON has no inf/nan literals; quote them rather than lie. *)
      Buffer.add_char b '"';
      Buffer.add_string b (Float.to_string f);
      Buffer.add_char b '"'
    end
  | Str s ->
    Buffer.add_char b '"';
    escape_into b s;
    Buffer.add_char b '"'

let to_json (r : t) =
  let b = Buffer.create 128 in
  Buffer.add_char b '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_char b '"';
      escape_into b k;
      Buffer.add_string b "\":";
      value_into b v)
    r;
  Buffer.add_char b '}';
  Buffer.contents b

exception Parse of string

(* Minimal parser for the flat one-object-per-line JSON this library
   writes: values are strings, numbers, or booleans — no nesting. *)
let of_json line =
  let n = String.length line in
  let pos = ref 0 in
  let fail msg = raise (Parse (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then Some line.[!pos] else None in
  let skip_ws () =
    while
      !pos < n && (match line.[!pos] with ' ' | '\t' | '\r' | '\n' -> true | _ -> false)
    do
      incr pos
    done
  in
  let expect c =
    skip_ws ();
    if peek () = Some c then incr pos else fail (Printf.sprintf "expected %c" c)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = line.[!pos] in
      incr pos;
      if c = '"' then Buffer.contents b
      else if c = '\\' then begin
        if !pos >= n then fail "dangling escape";
        let e = line.[!pos] in
        incr pos;
        (match e with
        | '"' -> Buffer.add_char b '"'
        | '\\' -> Buffer.add_char b '\\'
        | '/' -> Buffer.add_char b '/'
        | 'n' -> Buffer.add_char b '\n'
        | 't' -> Buffer.add_char b '\t'
        | 'r' -> Buffer.add_char b '\r'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'u' ->
          if !pos + 4 > n then fail "truncated \\u escape";
          let code = int_of_string ("0x" ^ String.sub line !pos 4) in
          pos := !pos + 4;
          Buffer.add_char b (if code < 128 then Char.chr code else '?')
        | _ -> fail "unknown escape");
        go ()
      end
      else begin
        Buffer.add_char b c;
        go ()
      end
    in
    go ()
  in
  let parse_value () =
    skip_ws ();
    match peek () with
    | Some '"' -> Str (parse_string ())
    | Some 't' when !pos + 4 <= n && String.sub line !pos 4 = "true" ->
      pos := !pos + 4;
      Bool true
    | Some 'f' when !pos + 5 <= n && String.sub line !pos 5 = "false" ->
      pos := !pos + 5;
      Bool false
    | Some _ ->
      let start = !pos in
      while
        !pos < n
        && (match line.[!pos] with
           | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
           | _ -> false)
      do
        incr pos
      done;
      let tok = String.sub line start (!pos - start) in
      if tok = "" then fail "expected a value";
      (match int_of_string_opt tok with
      | Some i -> Int i
      | None -> (
        match float_of_string_opt tok with
        | Some f -> Float f
        | None -> fail "malformed number"))
    | None -> fail "expected a value"
  in
  try
    expect '{';
    skip_ws ();
    if peek () = Some '}' then Ok []
    else begin
      let fields = ref [] in
      let rec members () =
        skip_ws ();
        let k = parse_string () in
        expect ':';
        let v = parse_value () in
        fields := (k, v) :: !fields;
        skip_ws ();
        match peek () with
        | Some ',' ->
          incr pos;
          members ()
        | Some '}' -> incr pos
        | _ -> fail "expected , or }"
      in
      members ();
      Ok (List.rev !fields)
    end
  with Parse msg -> Error msg

(* --- CSV ------------------------------------------------------------ *)

(* Field values never contain commas (queue names, event kinds, numbers),
   so no quoting is needed — kept that way on purpose. *)

let value_to_csv = function
  | Bool x -> string_of_bool x
  | Int i -> string_of_int i
  | Float f -> float_str f
  | Str s -> s

let csv_header columns = String.concat "," columns

let to_csv ~columns (r : t) =
  String.concat ","
    (List.map
       (fun c -> match find c r with Some v -> value_to_csv v | None -> "")
       columns)

let csv_cell s =
  match int_of_string_opt s with
  | Some i -> Int i
  | None -> (
    match float_of_string_opt s with
    | Some f -> Float f
    | None -> (
      match bool_of_string_opt s with Some b -> Bool b | None -> Str s))

let of_csv ~header line =
  let cells = String.split_on_char ',' line in
  let rec zip hs cs acc =
    match (hs, cs) with
    | [], _ | _, [] -> List.rev acc
    | h :: hs, c :: cs ->
      if c = "" then zip hs cs acc else zip hs cs ((h, csv_cell c) :: acc)
  in
  zip header cells []
