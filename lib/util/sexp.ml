type t = Atom of string | List of t list

let atom s = Atom s
let list l = List l
let float f = Atom (Printf.sprintf "%.17g" f)
let int i = Atom (string_of_int i)

let needs_quoting s =
  s = ""
  || String.exists
       (fun c -> c = ' ' || c = '\t' || c = '\n' || c = '(' || c = ')' || c = '"' || c = ';')
       s

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      (match c with
      | '"' | '\\' -> Buffer.add_char buf '\\'
      | _ -> ());
      Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let string s = Atom s

let render_atom s = if needs_quoting s then escape s else s

let rec write buf = function
  | Atom s -> Buffer.add_string buf (render_atom s)
  | List items ->
    Buffer.add_char buf '(';
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_char buf ' ';
        write buf item)
      items;
    Buffer.add_char buf ')'

let to_string t =
  let buf = Buffer.create 256 in
  write buf t;
  Buffer.contents buf

let rec write_hum buf indent = function
  | Atom _ as a -> write buf a
  | List items when List.for_all (function Atom _ -> true | List _ -> false) items ->
    write buf (List items)
  | List items ->
    Buffer.add_char buf '(';
    List.iteri
      (fun i item ->
        if i > 0 then begin
          Buffer.add_char buf '\n';
          Buffer.add_string buf (String.make (indent + 1) ' ')
        end;
        write_hum buf (indent + 1) item)
      items;
    Buffer.add_char buf ')'

let to_string_hum t =
  let buf = Buffer.create 1024 in
  write_hum buf 0 t;
  Buffer.contents buf

exception Parse_error of int * string
(* Internal: offset into the input + message.  [of_string] converts the
   offset to a line/column pair before surfacing the error. *)

let line_col input pos =
  let pos = min pos (String.length input) in
  let line = ref 1 and bol = ref 0 in
  for i = 0 to pos - 1 do
    if input.[i] = '\n' then begin
      incr line;
      bol := i + 1
    end
  done;
  (!line, pos - !bol + 1)

let of_string input =
  let len = String.length input in
  let pos = ref 0 in
  let peek () = if !pos < len then Some input.[!pos] else None in
  let advance () = incr pos in
  let fail at msg = raise (Parse_error (at, msg)) in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | Some ';' ->
      (* comment to end of line *)
      while !pos < len && input.[!pos] <> '\n' do
        advance ()
      done;
      skip_ws ()
    | _ -> ()
  in
  let parse_quoted () =
    let opened = !pos in
    advance ();
    let buf = Buffer.create 16 in
    let rec loop () =
      match peek () with
      | None -> fail opened "truncated input: unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | None -> fail (!pos - 1) "truncated input: dangling escape"
        | Some c ->
          Buffer.add_char buf c;
          advance ();
          loop ())
      | Some c ->
        Buffer.add_char buf c;
        advance ();
        loop ()
    in
    loop ();
    Atom (Buffer.contents buf)
  in
  let parse_bare () =
    let start = !pos in
    let is_delim c =
      c = ' ' || c = '\t' || c = '\n' || c = '\r' || c = '(' || c = ')' || c = '"' || c = ';'
    in
    while !pos < len && not (is_delim input.[!pos]) do
      advance ()
    done;
    if !pos = start then fail start "empty atom";
    Atom (String.sub input start (!pos - start))
  in
  let rec parse () =
    skip_ws ();
    match peek () with
    | None -> fail !pos "truncated input: unexpected end of input"
    | Some '(' ->
      let opened = !pos in
      advance ();
      let items = ref [] in
      let rec loop () =
        skip_ws ();
        match peek () with
        | None -> fail opened "truncated input: unterminated list opened here"
        | Some ')' -> advance ()
        | Some _ ->
          items := parse () :: !items;
          loop ()
      in
      loop ();
      List (List.rev !items)
    | Some ')' -> fail !pos "unexpected )"
    | Some '"' -> parse_quoted ()
    | Some _ -> parse_bare ()
  in
  match parse () with
  | result ->
    skip_ws ();
    if !pos < len then begin
      let line, col = line_col input !pos in
      Error (Printf.sprintf "line %d, column %d: trailing garbage after expression" line col)
    end
    else Ok result
  | exception Parse_error (at, msg) ->
    let line, col = line_col input at in
    Error (Printf.sprintf "line %d, column %d: %s" line col msg)

let to_atom = function
  | Atom s -> Ok s
  | List _ -> Error "expected atom, got list"

let to_list = function
  | List l -> Ok l
  | Atom s -> Error (Printf.sprintf "expected list, got atom %S" s)

let to_float t =
  match to_atom t with
  | Error _ as e -> e
  | Ok s -> (
    match float_of_string_opt s with
    | Some f -> Ok f
    | None -> Error (Printf.sprintf "not a float: %S" s))

let to_int t =
  match to_atom t with
  | Error _ as e -> e
  | Ok s -> (
    match int_of_string_opt s with
    | Some i -> Ok i
    | None -> Error (Printf.sprintf "not an int: %S" s))

let field t key =
  match t with
  | Atom _ -> Error "field lookup in atom"
  | List items ->
    let rec find = function
      | [] -> Error (Printf.sprintf "missing field %S" key)
      | List (Atom k :: rest) :: _ when k = key -> (
        match rest with
        | [ single ] -> Ok single
        | _ -> Ok (List rest))
      | _ :: tl -> find tl
    in
    find items

(* Atomic *and durable*: tmp + fsync + rename + directory fsync.
   Without the file fsync, a crash after the rename can publish a name
   pointing at un-flushed data (an empty or torn table); without the
   directory fsync, the rename itself may not survive.  Directory fsync
   is best-effort — some filesystems refuse it. *)
let save path t =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  (try
     output_string oc (to_string_hum t);
     output_char oc '\n';
     flush oc;
     Unix.fsync (Unix.descr_of_out_channel oc);
     close_out oc
   with e ->
     close_out_noerr oc;
     raise e);
  Sys.rename tmp path;
  try
    let fd = Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY ] 0 in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())
  with Unix.Unix_error _ -> ()

(* [Sys_error]'s message already begins with the path. *)
let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | contents -> (
    match of_string contents with
    | Ok _ as ok -> ok
    | Error e -> Error (Printf.sprintf "%s: %s" path e))
  | exception Sys_error msg -> Error msg
