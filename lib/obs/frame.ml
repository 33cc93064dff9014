(* --- payload primitives ------------------------------------------------ *)

exception Short
exception Malformed of string

let put_u32 b v = Buffer.add_int32_be b (Int32.of_int v)
let put_f64 b v = Buffer.add_int64_be b (Int64.bits_of_float v)

let put_lpstr b s =
  put_u32 b (String.length s);
  Buffer.add_string b s

let u32 s pos = Int32.to_int (String.get_int32_be s pos) land 0xFFFFFFFF

let get_u32 s pos =
  if pos + 4 > String.length s then raise Short;
  u32 s pos

let get_f64 s pos =
  if pos + 8 > String.length s then raise Short;
  Int64.float_of_bits (String.get_int64_be s pos)

let get_lpstr ~max_len s pos =
  let n = get_u32 s pos in
  if n > max_len then raise (Malformed "string length exceeds the frame bound");
  if pos + 4 + n > String.length s then raise Short;
  (String.sub s (pos + 4) n, pos + 4 + n)

(* --- writing ----------------------------------------------------------- *)

let add b payload =
  put_u32 b (String.length payload);
  Buffer.add_string b payload;
  put_u32 b (Crc32.string payload)

let encode payload =
  let b = Buffer.create (String.length payload + 8) in
  add b payload;
  Buffer.contents b

(* --- files: the salvaging reader ---------------------------------------- *)

type 'a salvaged = { value : 'a; valid_bytes : int; torn : bool; warning : string option }

let read_string ~magic ~max_len ~what ~phase ?file ~init decode s =
  let len = String.length s and header = String.length magic in
  let parse fmt =
    Printf.ksprintf (fun m -> Error (Bgr_error.make ?file ~phase Bgr_error.Parse "%s" m)) fmt
  in
  let rec go acc p =
    let torn why =
      Ok
        { value = acc;
          valid_bytes = p;
          torn = true;
          warning = Some (Printf.sprintf "%s tail truncated at byte %d (%s)" what p why) }
    in
    if p = len then Ok { value = acc; valid_bytes = p; torn = false; warning = None }
    else if len - p < 4 then torn "partial length prefix discarded"
    else begin
      let l = u32 s p in
      let frame_end = p + 4 + l + 4 in
      if l < 1 || l > max_len then
        parse "%s corrupt at byte %d: implausible frame length %d" what p l
      else if frame_end > len then torn "torn frame discarded"
      else if Crc32.update 0 s (p + 4) l <> u32 s (p + 4 + l) then
        if frame_end = len then torn "bad CRC on the final frame"
        else parse "%s corrupt at byte %d: CRC mismatch before the final frame" what p
      else
        match decode ~at:p acc (String.sub s (p + 4) l) with
        | acc -> go acc frame_end
        | exception Malformed m -> parse "%s corrupt at byte %d: %s" what p m
    end
  in
  if len < header || String.sub s 0 header <> magic then parse "not a bgr %s" what
  else go init header

let read_file ~phase path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> Ok s
  | exception Sys_error msg -> Error (Bgr_error.make ~file:path ~phase Bgr_error.Io_error "%s" msg)

(* --- streams: the strict extractor -------------------------------------- *)

type extract = Need of int | Frame of string * int | Bad of Bgr_error.t

let extract ~phase ~max_len s ~pos =
  let avail = String.length s - pos in
  if avail < 4 then Need (4 - avail)
  else begin
    let len = u32 s pos in
    if len > max_len then
      Bad
        (Bgr_error.make ~phase Bgr_error.Parse
           "frame declares a %d-byte payload; the protocol caps payloads at %d" len max_len)
    else if avail < 4 + len + 4 then Need (4 + len + 4 - avail)
    else begin
      let payload = String.sub s (pos + 4) len in
      let crc = u32 s (pos + 4 + len) and computed = Crc32.string payload in
      if crc <> computed then
        Bad
          (Bgr_error.make ~phase Bgr_error.Parse
             "frame CRC mismatch (recorded %08x, computed %08x)" crc computed)
      else Frame (payload, 4 + len + 4)
    end
  end

let greet ~magic buf =
  let n = String.length magic in
  if String.length buf < n then None
  else if String.sub buf 0 n = magic then Some (Ok (String.sub buf n (String.length buf - n)))
  else Some (Error (String.sub buf 0 n))
