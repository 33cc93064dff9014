type t = { fd : Unix.file_descr; mutable rbuf : string; mutable open_ : bool }

let io_error fmt =
  Printf.ksprintf (fun m -> Error (Bgr_error.make ~phase:"serve" Bgr_error.Io_error "%s" m)) fmt

let close c =
  if c.open_ then begin
    c.open_ <- false;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  end

let write_all fd s =
  let n = String.length s in
  let rec go pos =
    if pos >= n then Ok ()
    else
      match Unix.write_substring fd s pos (n - pos) with
      | written -> go (pos + written)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go pos
      | exception Unix.Unix_error (e, _, _) -> io_error "write: %s" (Unix.error_message e)
  in
  go 0

(* Read until [want c.rbuf] yields, honouring the optional deadline. *)
let read_until ?timeout_s c want =
  let deadline = Option.map (fun s -> Unix.gettimeofday () +. s) timeout_s in
  let buf = Bytes.create 65536 in
  let rec go () =
    match want () with
    | Some v -> Ok v
    | None ->
      let wait =
        match deadline with
        | None -> Ok (-1.0)
        | Some d ->
          let left = d -. Unix.gettimeofday () in
          if left <= 0.0 then
            Error (Bgr_error.make ~phase:"serve" Bgr_error.Deadline "reply timed out")
          else Ok left
      in
      Result.bind wait @@ fun wait ->
      let ready =
        match Unix.select [ c.fd ] [] [] wait with
        | [], _, _ -> false
        | _ -> true
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> false
      in
      if not ready then go ()
      else begin
        match Unix.read c.fd buf 0 (Bytes.length buf) with
        | 0 -> io_error "connection closed by the daemon"
        | n ->
          c.rbuf <- c.rbuf ^ Bytes.sub_string buf 0 n;
          go ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
        | exception Unix.Unix_error (e, _, _) -> io_error "read: %s" (Unix.error_message e)
      end
  in
  go ()

let connect path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | exception Unix.Unix_error (e, _, _) ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    Error
      (Bgr_error.make ~phase:"serve" ~file:path Bgr_error.Io_error "cannot connect: %s"
         (Unix.error_message e))
  | () -> (
    let c = { fd; rbuf = ""; open_ = true } in
    let greeting =
      Result.bind (write_all fd Wire.magic) @@ fun () ->
      read_until ~timeout_s:10.0 c (fun () -> Frame.greet ~magic:Wire.magic c.rbuf)
    in
    match greeting with
    | Ok (Ok rest) ->
      c.rbuf <- rest;
      Ok c
    | Ok (Error banner) ->
      close c;
      Error
        (Bgr_error.make ~phase:"serve" ~file:path Bgr_error.Parse
           "the peer is not a bgr daemon (banner %S)" banner)
    | Error e ->
      close c;
      Error e)

let send c req =
  if not c.open_ then io_error "connection is closed" else write_all c.fd (Wire.encode_request req)

let next_reply ?timeout_s c =
  if not c.open_ then io_error "connection is closed"
  else begin
    let frame = ref None in
    let result =
      read_until ?timeout_s c (fun () ->
          match Frame.extract ~phase:"serve" ~max_len:Wire.max_payload c.rbuf ~pos:0 with
          | Frame.Need _ -> None
          | Frame.Frame (payload, used) ->
            c.rbuf <- String.sub c.rbuf used (String.length c.rbuf - used);
            frame := Some (Ok payload);
            Some ()
          | Frame.Bad e ->
            frame := Some (Error e);
            Some ())
    in
    Result.bind result @@ fun () ->
    match !frame with
    | Some (Ok payload) -> Wire.decode_reply payload
    | Some (Error e) -> Error e
    | None -> Error (Bgr_error.make ~phase:"serve" Bgr_error.Internal "no frame after read")
  end

let request ?timeout_s c req = Result.bind (send c req) (fun () -> next_reply ?timeout_s c)
