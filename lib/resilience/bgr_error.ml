type code =
  | Parse
  | Validate
  | Geometry
  | Unroutable
  | Deadline
  | Fault
  | Io_error
  | Internal

type t = {
  code : code;
  phase : string option;
  file : string option;
  line : int option;
  message : string;
}

exception Error of t

let make ?phase ?file ?line code fmt =
  Format.kasprintf (fun message -> { code; phase; file; line; message }) fmt

let raise_error ?phase ?file ?line code fmt =
  Format.kasprintf
    (fun message -> raise (Error { code; phase; file; line; message }))
    fmt

let code_name = function
  | Parse -> "parse"
  | Validate -> "validate"
  | Geometry -> "geometry"
  | Unroutable -> "unroutable"
  | Deadline -> "deadline"
  | Fault -> "fault"
  | Io_error -> "io"
  | Internal -> "internal"

let all_codes =
  [ Parse; Validate; Geometry; Unroutable; Deadline; Fault; Io_error; Internal ]

let code_of_name name = List.find_opt (fun c -> code_name c = name) all_codes

let exit_code = function
  | Parse -> 2
  | Validate | Geometry -> 3
  | Unroutable -> 4
  | Fault -> 5
  | Deadline -> 6
  | Io_error -> 7
  | Internal -> 10

let with_file file t = match t.file with Some _ -> t | None -> { t with file = Some file }

let to_string t =
  let body = Printf.sprintf "[%s] %s" (code_name t.code) t.message in
  let body =
    match t.phase with None -> body | Some p -> Printf.sprintf "[%s] (%s) %s" (code_name t.code) p t.message
  in
  match t.file with
  | None -> body
  | Some f -> Printf.sprintf "%s:%d: %s" f (Option.value t.line ~default:0) body

let pp ppf t = Format.pp_print_string ppf (to_string t)

(* Render our own exception readably in uncaught-exception reports. *)
let () =
  Printexc.register_printer (function
    | Error t -> Some (Printf.sprintf "Bgr_error.Error (%s)" (to_string t))
    | _ -> None)
