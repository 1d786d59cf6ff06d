type t = Atom of string | List of t list

let atom s = Atom s
let list l = List l

let needs_quoting s =
  String.equal s ""
  || String.exists
       (fun c ->
         match c with
         | ' ' | '(' | ')' | '"' | '\\' | '\n' | '\t' | '\r' -> true
         | c -> Char.code c < 32)
       s

let rec to_buffer buf = function
  | Atom s ->
      if needs_quoting s then begin
        Buffer.add_char buf '"';
        String.iter
          (fun c ->
            match c with
            | '"' -> Buffer.add_string buf "\\\""
            | '\\' -> Buffer.add_string buf "\\\\"
            | '\n' -> Buffer.add_string buf "\\n"
            | '\t' -> Buffer.add_string buf "\\t"
            | '\r' -> Buffer.add_string buf "\\r"
            | c -> Buffer.add_char buf c)
          s;
        Buffer.add_char buf '"'
      end
      else Buffer.add_string buf s
  | List items ->
      Buffer.add_char buf '(';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ' ';
          to_buffer buf item)
        items;
      Buffer.add_char buf ')'

let to_string t =
  let buf = Buffer.create 256 in
  to_buffer buf t;
  Buffer.contents buf
