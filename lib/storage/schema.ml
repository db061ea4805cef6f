type column = {
  name : string;
  dtype : Dtype.t;
  nullable : bool;
}

type t = {
  cols : column array;
  lnames : string array;  (* lowercased once here, for [column_index] *)
}

let make cols =
  let names = List.map (fun c -> String.lowercase_ascii c.name) cols in
  if List.exists (fun n -> n = "") names then Error "empty column name"
  else if List.length (List.sort_uniq String.compare names) <> List.length names then
    Error "duplicate column names"
  else Ok { cols = Array.of_list cols; lnames = Array.of_list names }

let make_exn cols =
  match make cols with
  | Ok t -> t
  | Error msg -> invalid_arg ("Schema.make_exn: " ^ msg)

let columns t = Array.to_list t.cols
let arity t = Array.length t.cols

(* [lname] is lowercase; compares without building a lowercased copy *)
let matches lname name =
  let n = String.length lname in
  n = String.length name
  &&
  let rec go i =
    i = n || (lname.[i] = Char.lowercase_ascii name.[i] && go (i + 1))
  in
  go 0

let column_index t name =
  let rec loop i =
    if i = Array.length t.lnames then None
    else if matches t.lnames.(i) name then Some i
    else loop (i + 1)
  in
  loop 0

let column t i = t.cols.(i)

let validate_row t row =
  if Array.length row <> arity t then
    Error
      (Printf.sprintf "row arity %d does not match schema arity %d"
         (Array.length row) (arity t))
  else begin
    let err = ref None in
    Array.iteri
      (fun i v ->
        if !err = None then begin
          let c = t.cols.(i) in
          match v with
          | Dtype.Null ->
              if not c.nullable then
                err := Some (Printf.sprintf "column %s is not nullable" c.name)
          | _ ->
              if not (Dtype.conforms c.dtype v) then
                err :=
                  Some
                    (Printf.sprintf "column %s expects %s, got %s" c.name
                       (Dtype.to_string c.dtype)
                       (Dtype.value_to_display v))
        end)
      row;
    match !err with None -> Ok () | Some msg -> Error msg
  end

let to_string t =
  Printf.sprintf "(%s)"
    (String.concat ", "
       (List.map
          (fun c ->
            Printf.sprintf "%s %s%s" c.name (Dtype.to_string c.dtype)
              (if c.nullable then "" else " not null"))
          (columns t)))

let equal a b = columns a = columns b
let pp ppf t = Format.pp_print_string ppf (to_string t)
