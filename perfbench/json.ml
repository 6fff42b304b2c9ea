(* Minimal JSON reader/printer for BENCHMARK.json, result lines and span
   dumps. Numbers are floats; printing keeps every digit needed to read
   the same float back. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Error m)) fmt

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let rec ws () =
    match peek () with
    | ' ' | '\t' | '\n' | '\r' ->
        incr pos;
        ws ()
    | _ -> ()
  in
  let expect c =
    ws ();
    if peek () <> c then fail "expected '%c' at byte %d" c !pos;
    incr pos
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail "bad literal at byte %d" !pos
  in
  let string_lit () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> Buffer.contents b
      | '\\' ->
          if !pos >= n then fail "unterminated escape";
          let e = s.[!pos] in
          incr pos;
          (match e with
          | '"' | '\\' | '/' -> Buffer.add_char b e
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' ->
              if !pos + 4 > n then fail "short \\u escape";
              let code = int_of_string ("0x" ^ String.sub s !pos 4) in
              pos := !pos + 4;
              Buffer.add_utf_8_uchar b (Uchar.of_int code)
          | _ -> fail "bad escape at byte %d" !pos);
          go ()
      | c ->
          Buffer.add_char b c;
          go ()
    in
    go ()
  in
  let number () =
    let start = !pos in
    while
      !pos < n
      && match s.[!pos] with
         | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
         | _ -> false
    do
      incr pos
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Num f
    | None -> fail "bad number at byte %d" start
  in
  let rec value () =
    ws ();
    match peek () with
    | '{' ->
        incr pos;
        ws ();
        if peek () = '}' then begin
          incr pos;
          Obj []
        end
        else
          let rec fields acc =
            let k = string_lit () in
            expect ':';
            let v = value () in
            ws ();
            match peek () with
            | ',' ->
                incr pos;
                fields ((k, v) :: acc)
            | '}' ->
                incr pos;
                Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected ',' or '}' at byte %d" !pos
          in
          fields []
    | '[' ->
        incr pos;
        ws ();
        if peek () = ']' then begin
          incr pos;
          Arr []
        end
        else
          let rec items acc =
            let v = value () in
            ws ();
            match peek () with
            | ',' ->
                incr pos;
                items (v :: acc)
            | ']' ->
                incr pos;
                Arr (List.rev (v :: acc))
            | _ -> fail "expected ',' or ']' at byte %d" !pos
          in
          items []
    | '"' -> Str (string_lit ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> number ()
  in
  let v = value () in
  ws ();
  if !pos <> n then fail "trailing data at byte %d" !pos;
  v

let member k = function
  | Obj fields -> ( try List.assoc k fields with Not_found -> Null)
  | _ -> Null

let to_list = function Arr l -> l | _ -> fail "expected an array"

let to_str = function Str s -> s | _ -> fail "expected a string"

let to_num = function Num f -> f | _ -> fail "expected a number"

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Shortest of %.15g / %.17g that reads back as the same float; whole
   numbers print without a fraction. *)
let number_string f =
  if not (Float.is_finite f) then fail "non-finite number %f" f
  else if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else
    let short = Printf.sprintf "%.15g" f in
    if float_of_string short = f then short else Printf.sprintf "%.17g" f

let rec to_string = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Num f -> number_string f
  | Str s -> "\"" ^ escape s ^ "\""
  | Arr l -> "[" ^ String.concat ", " (List.map to_string l) ^ "]"
  | Obj fields ->
      "{"
      ^ String.concat ", "
          (List.map (fun (k, v) -> "\"" ^ escape k ^ "\": " ^ to_string v) fields)
      ^ "}"
